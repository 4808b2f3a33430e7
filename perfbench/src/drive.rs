//! Load generation over one connection: a closed loop (next frame when
//! the last answer arrived) or an open loop (frames sent on a Poisson
//! schedule by one thread, answers read by another). Every answer is
//! checked against the reference placements as it arrives.

use crate::daemon::{recv_on, Conn};
use crate::workload::Frames;
use dbp_proto::{BinId, Response};
use std::io::{self, Write};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Raw per-request samples from one connection.
#[derive(Debug, Default)]
pub struct ConnSamples {
    /// Per event: from when it was due to be sent (or was sent, if that
    /// was earlier) until its bin arrived, µs. In a closed loop an event
    /// is due when its frame is sent, so this is one sample per frame.
    /// A failed or wrong answer is +∞.
    pub place_us: Vec<f64>,
    /// Per frame: from the first byte written to the answer read, µs
    /// (+∞ when failed or wrong).
    pub frame_us: Vec<f64>,
    /// Per frame: how late the generator sent it, µs. Open loop: send
    /// time minus scheduled time. Closed loop: send time minus the
    /// arrival of the previous answer.
    pub late_us: Vec<f64>,
    /// Per frame: (trace id echoed, send offset ns, answer offset ns)
    /// relative to the pass origin, for traced passes.
    pub frames: Vec<(Option<u64>, u64, u64)>,
    /// Events sent.
    pub events: u64,
    /// Events answered with an error or a placement other than the
    /// reference's.
    pub failed: u64,
}

/// Compares one answer with the reference placements of its frame.
/// Returns the number of events it got wrong.
fn check(response: &Response, expected: &[BinId]) -> u64 {
    match response {
        Response::Bin(bin) if expected.len() == 1 => u64::from(*bin != expected[0]),
        Response::Bins(bins) if bins.len() == expected.len() => {
            bins.iter().zip(expected).filter(|(a, b)| a != b).count() as u64
        }
        _ => expected.len() as u64,
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Sends frames `range` one at a time, each after the previous answer.
pub fn closed_loop(
    conn: &mut Conn,
    expected: &[BinId],
    frames: &Frames,
    range: Range<usize>,
    origin: Instant,
) -> io::Result<ConnSamples> {
    let mut out = ConnSamples::default();
    let mut ready = Instant::now();
    for i in range {
        let events = frames.frames[i].events.clone();
        let sent = Instant::now();
        conn.writer.write_all(frames.frame(i))?;
        let (response, trace) = conn.recv()?;
        let done = Instant::now();
        let wrong = check(&response, &expected[events.clone()]);
        out.failed += wrong;
        out.events += events.len() as u64;
        let rtt = if wrong > 0 {
            f64::INFINITY
        } else {
            micros(done - sent)
        };
        out.place_us.push(rtt);
        out.frame_us.push(rtt);
        out.late_us.push(micros(sent - ready));
        out.frames
            .push((trace, nanos_since(origin, sent), nanos_since(origin, done)));
        ready = done;
    }
    Ok(out)
}

fn nanos_since(origin: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(origin).as_nanos() as u64
}

/// Poisson send offsets (ns after the start) for `n` frames at `rate`
/// frames per second, from a splitmix64 stream seeded by `seed`.
pub fn poisson_schedule(n: usize, rate: f64, seed: u64) -> Vec<u64> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            // Uniform in (0, 1], then an exponential gap.
            let u = ((next() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
            at += -u.ln() / rate * 1e9;
            at as u64
        })
        .collect()
}

/// How far past its deadline `thread::sleep` typically returns (the
/// timer slack). The sender sleeps this much less than the gap to the
/// next due time and never spins, so pacing costs no core.
pub fn sleep_overshoot() -> Duration {
    let mut over: Vec<Duration> = (0..25)
        .map(|_| {
            let t = Instant::now();
            std::thread::sleep(Duration::from_micros(100));
            t.elapsed().saturating_sub(Duration::from_micros(100))
        })
        .collect();
    over.sort();
    over[over.len() / 2]
}

fn pace(due: Instant, overshoot: Duration) {
    let left = due.saturating_duration_since(Instant::now());
    if left > overshoot {
        std::thread::sleep(left - overshoot);
    }
}

/// Sends frames `range` on the `schedule` (ns offsets from `start`) from
/// a sender thread while a receiver thread reads and checks answers.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    conn: &mut Conn,
    expected: &[BinId],
    frames: &Frames,
    range: Range<usize>,
    schedule: &[u64],
    start: Instant,
    overshoot: Duration,
    origin: Instant,
) -> io::Result<ConnSamples> {
    let n = range.len();
    let Conn {
        reader,
        writer,
        scratch,
    } = conn;
    let (sent, answered) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> io::Result<Vec<Instant>> {
            let mut sent = Vec::with_capacity(n);
            for (k, i) in range.clone().enumerate() {
                pace(start + Duration::from_nanos(schedule[k]), overshoot);
                sent.push(Instant::now());
                writer.write_all(frames.frame(i))?;
            }
            Ok(sent)
        });
        let mut answered = Vec::with_capacity(n);
        let mut result = Ok(());
        for i in range.clone() {
            match recv_on(reader, scratch) {
                Ok((response, trace)) => {
                    let wrong = check(&response, &expected[frames.frames[i].events.clone()]);
                    answered.push((Instant::now(), trace, wrong));
                }
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        let sent = sender.join().expect("the sender thread does not panic");
        (sent, result.map(|()| answered))
    });
    let sent = sent?;
    let answered = answered?;
    let mut out = ConnSamples::default();
    for (k, i) in range.enumerate() {
        let due = start + Duration::from_nanos(schedule[k]);
        let (done, trace, wrong) = answered[k];
        out.events += frames.frames[i].events.len() as u64;
        out.failed += wrong;
        if wrong > 0 {
            out.place_us.push(f64::INFINITY);
            out.frame_us.push(f64::INFINITY);
        } else {
            // A frame sent early (within the timer slack of its due
            // time) still counts its whole round trip.
            out.place_us.push(micros(done - due.min(sent[k])));
            out.frame_us
                .push(micros(done.saturating_duration_since(sent[k])));
        }
        out.late_us
            .push(micros(sent[k].saturating_duration_since(due)));
        out.frames.push((
            trace,
            nanos_since(origin, sent[k]),
            nanos_since(origin, done),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_counts_every_wrong_or_missing_placement() {
        let want = [BinId(0), BinId(1), BinId(1)];
        assert_eq!(check(&Response::Bins(want.to_vec()), &want), 0);
        assert_eq!(
            check(&Response::Bins(vec![BinId(0), BinId(2), BinId(1)]), &want),
            1
        );
        assert_eq!(check(&Response::Bins(vec![BinId(0)]), &want), 3);
        assert_eq!(check(&Response::Bin(BinId(4)), &[BinId(4)]), 0);
        assert_eq!(check(&Response::Bin(BinId(4)), &[BinId(5)]), 1);
        assert_eq!(check(&Response::Shutdown, &want), 3);
    }

    #[test]
    fn poisson_schedule_is_seeded_and_keeps_its_rate() {
        let a = poisson_schedule(20_000, 10_000.0, 3);
        assert_eq!(a, poisson_schedule(20_000, 10_000.0, 3));
        assert_ne!(a, poisson_schedule(20_000, 10_000.0, 4));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let seconds = a[a.len() - 1] as f64 / 1e9;
        assert!((seconds - 2.0).abs() < 0.1, "{seconds}");
    }
}
