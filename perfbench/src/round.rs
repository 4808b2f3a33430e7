//! One round: spawn the daemon, attach every tenant, serve the timed
//! stream, check it, crash the daemon, restart it, and check what came
//! back.

use crate::daemon::{Conn, Daemon, DaemonConfig};
use crate::drive::{closed_loop, open_loop, poisson_schedule, ConnSamples};
use crate::workload::{certify, Frames, Scale, Spec, TenantStream};
use dbp_proto::{BinId, Request, Response};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Everything a round needs besides the streams.
pub struct Ctx<'a> {
    /// The workload.
    pub spec: Spec,
    /// Stream size (the full-scale certificate is the cheap one).
    pub scale: Scale,
    /// The `mindbp` binary.
    pub daemon: &'a Path,
    /// Scratch directory for journals and slow-ring dumps.
    pub scratch: PathBuf,
    /// The seed (also drives the open-loop schedule).
    pub seed: u64,
    /// `thread::sleep` overshoot, for open-loop pacing.
    pub overshoot: Duration,
    /// Reference placements per tenant (the self-test tampers with them).
    pub expected: Vec<Vec<BinId>>,
}

/// What one round measured and checked.
#[derive(Debug, Default)]
pub struct RoundOut {
    /// Spawn to every hello acked, s.
    pub setup_s: f64,
    /// Per restart: from restarting over the killed daemon's state to
    /// every hello acked with the right `resumed_events`, s.
    pub recovery_s: Vec<f64>,
    /// The daemon's `VmHWM` after the timed pass, MiB.
    pub rss_mib: f64,
    /// Wall time of the timed pass, s.
    pub wall_s: f64,
    /// This process's CPU seconds during the timed pass.
    pub cpu_s: f64,
    /// Raw samples per connection.
    pub conns: Vec<ConnSamples>,
    /// Total usage time of the finished outcomes.
    pub usage: f64,
    /// Sum of the finished streams' `max(vol, span)`.
    pub lower_bound: f64,
    /// Events sent (timed pass and tail).
    pub attempted: u64,
    /// Failed, refused or wrong events, plus one per failed
    /// outcome-level check.
    pub failed: u64,
    /// Descriptions of the failures.
    pub problems: Vec<String>,
    /// The metrics page scraped after the timed pass.
    pub page: String,
    /// The daemon's slow-ring dump (traced rounds), JSONL.
    pub slow_log: String,
}

impl RoundOut {
    /// Events served in the timed pass.
    pub fn events(&self) -> u64 {
        self.conns.iter().map(|c| c.events).sum()
    }

    fn fail(&mut self, n: u64, problem: String) {
        self.failed += n;
        self.problems.push(problem);
    }
}

/// CPU seconds this process has used (`utime + stime`, USER_HZ = 100).
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    // After the command name: state is field 3, utime 14, stime 15.
    let tick = |i: usize| fields.get(i - 3).and_then(|v| v.parse::<f64>().ok());
    match (tick(14), tick(15)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// Writes the killed daemon's journals back to disk before the restart,
/// so kernel writeback does not compete with the replay being timed.
fn settle_disk(journal_dir: &Path) {
    let Ok(entries) = std::fs::read_dir(journal_dir) else {
        return;
    };
    for entry in entries.flatten() {
        if let Ok(file) = std::fs::File::open(entry.path()) {
            let _ = file.sync_all();
        }
    }
}

fn config(ctx: &Ctx, dir: &Path, trace_out: Option<PathBuf>) -> DaemonConfig {
    DaemonConfig {
        journal_dir: ctx.spec.journal.then(|| dir.join("journal")),
        quotas: ctx.spec.quotas,
        trace_out,
    }
}

/// Spawns the daemon and says hello for every tenant. Returns the
/// daemon, the connections and the `resumed_events` each hello saw.
fn attach(
    ctx: &Ctx,
    streams: &[TenantStream],
    config: &DaemonConfig,
) -> Result<(Daemon, Vec<Conn>, Vec<u64>), String> {
    let daemon = Daemon::spawn(ctx.daemon, config).map_err(|e| format!("spawn: {e}"))?;
    let mut conns = Vec::new();
    let mut resumed = Vec::new();
    for s in streams {
        let (conn, r) = Conn::hello(daemon.addr, ctx.spec.hello(&s.name, s.grid))
            .map_err(|e| format!("hello {}: {e}", s.name))?;
        conns.push(conn);
        resumed.push(r);
    }
    Ok((daemon, conns, resumed))
}

/// One set-up on its own: spawn, attach, stop. Seconds from spawn to
/// the last hello ack.
pub fn setup_probe(ctx: &Ctx, streams: &[TenantStream], n: usize) -> Result<f64, String> {
    let dir = ctx.scratch.join(format!("setup-{n}"));
    let t = Instant::now();
    let (daemon, conns, _) = attach(ctx, streams, &config(ctx, &dir, None))?;
    let setup = t.elapsed().as_secs_f64();
    drop(conns);
    daemon.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(setup)
}

/// Checks a tenant that has served its whole stream. With `finish`,
/// finishes it and checks the outcome against the reference and the
/// paper's certificate. Otherwise compares its live metrics with the
/// reference's: the exact usage time, bins opened and peak open bins.
/// (Finishing ships the whole outcome through the generic codec, which
/// costs seconds at 300k items, so only one round per run does it.)
fn settle(ctx: &Ctx, conn: &mut Conn, stream: &TenantStream, finish: bool, out: &mut RoundOut) {
    let usage = if finish {
        match conn.request(&Request::Finish) {
            Ok(Response::Outcomes(outcomes)) if outcomes.len() == 1 => {
                let outcome = &outcomes[0];
                if *outcome != stream.outcome {
                    out.fail(1, format!("{}: finished outcome differs", stream.name));
                }
                if let Err(e) = certify(&stream.instance, outcome, ctx.scale) {
                    out.fail(1, format!("{}: {e}", stream.name));
                }
                outcome.total_usage()
            }
            other => return out.fail(1, format!("{}: finish answered {other:?}", stream.name)),
        }
    } else {
        match conn.request(&Request::Metrics) {
            Ok(Response::Metrics(m)) => {
                let want = &stream.outcome;
                let got = (
                    m.usage_time,
                    m.bins_opened,
                    m.peak_open_bins,
                    m.active_items,
                );
                let expected = (
                    want.total_usage(),
                    want.bins_opened(),
                    stream.peak_open_bins,
                    0,
                );
                if got != expected {
                    out.fail(
                        1,
                        format!(
                            "{}: (usage, bins opened, peak open, active) {got:?}, reference {expected:?}",
                            stream.name
                        ),
                    );
                }
                m.usage_time
            }
            other => return out.fail(1, format!("{}: metrics answered {other:?}", stream.name)),
        }
    };
    out.usage += usage.to_f64();
    out.lower_bound += stream.lower_bound().to_f64();
}

fn absorb(out: &mut RoundOut, samples: std::io::Result<ConnSamples>, what: &str) {
    match samples {
        Ok(s) => {
            out.attempted += s.events;
            if s.failed > 0 {
                out.fail(
                    s.failed,
                    format!("{what}: {} wrong or failed events", s.failed),
                );
            }
            out.conns.push(s);
        }
        Err(e) => out.fail(1, format!("{what}: {e}")),
    }
}

/// Runs one round over `frames` (untraced or traced encodings of each
/// stream); `finish_outcome` picks how the served state is checked (see
/// [`settle`]). A traced round records every request in the daemon's slow
/// ring and stops it with a wire shutdown, so the ring is dumped;
/// otherwise the daemon is killed with `SIGKILL`.
pub fn round(
    ctx: &Ctx,
    streams: &[TenantStream],
    frames: &[&Frames],
    traced: bool,
    finish_outcome: bool,
    n: usize,
    origin: Instant,
) -> Result<RoundOut, String> {
    let dir = ctx.scratch.join(format!("round-{n}"));
    let slow = dir.join("slow.jsonl");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = RoundOut::default();

    let t = Instant::now();
    let (daemon, mut conns, resumed) = attach(
        ctx,
        streams,
        &config(ctx, &dir, traced.then(|| slow.clone())),
    )?;
    out.setup_s = t.elapsed().as_secs_f64();
    if resumed.iter().any(|&r| r != 0) {
        out.fail(1, format!("fresh tenants resumed {resumed:?} events"));
    }

    // The timed pass: one client thread per connection.
    let cpu = process_cpu_s();
    let t = Instant::now();
    let samples: Vec<std::io::Result<ConnSamples>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(streams)
            .zip(frames)
            .zip(&ctx.expected)
            .map(|(((conn, stream), frames), expected)| {
                scope.spawn(move || {
                    let range = 0..stream.prefix_frames;
                    match ctx.spec.rate {
                        Some(rate) => {
                            let schedule = poisson_schedule(range.len(), rate, ctx.seed ^ n as u64);
                            let start = Instant::now() + Duration::from_millis(1);
                            open_loop(
                                conn,
                                expected,
                                frames,
                                range,
                                &schedule,
                                start,
                                ctx.overshoot,
                                origin,
                            )
                        }
                        None => closed_loop(conn, expected, frames, range, origin),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    out.wall_s = t.elapsed().as_secs_f64();
    out.cpu_s = process_cpu_s() - cpu;
    for (s, stream) in samples.into_iter().zip(streams) {
        absorb(&mut out, s, &stream.name);
    }
    out.rss_mib = daemon.peak_rss_mib().map_err(|e| format!("VmHWM: {e}"))?;
    // A `metrics` frame republishes the page, which otherwise lags by
    // up to `publish_every` events.
    if let Some(conn) = conns.first_mut() {
        conn.request(&Request::Metrics)
            .map_err(|e| format!("metrics: {e}"))?;
    }
    out.page = daemon.scrape().map_err(|e| format!("scrape: {e}"))?;

    if !ctx.spec.journal {
        for (conn, stream) in conns.iter_mut().zip(streams) {
            settle(ctx, conn, stream, finish_outcome, &mut out);
        }
    }

    // The crash, and restarts over whatever the daemon left behind.
    // A journal replay costs about four times the serving it replays, so
    // journaled rounds restart once; an empty restart costs milliseconds.
    let restarts = if ctx.spec.journal { 1 } else { 5 };
    let mut daemon = daemon;
    for k in 0..restarts {
        drop(conns);
        if traced && k == 0 {
            daemon.shutdown().map_err(|e| format!("shutdown: {e}"))?;
            out.slow_log = std::fs::read_to_string(&slow).unwrap_or_default();
        } else {
            daemon.kill().map_err(|e| format!("kill: {e}"))?;
        }
        settle_disk(&dir.join("journal"));
        let t = Instant::now();
        let resumed;
        (daemon, conns, resumed) = attach(ctx, streams, &config(ctx, &dir, None))?;
        out.recovery_s.push(t.elapsed().as_secs_f64());
        for (stream, r) in streams.iter().zip(&resumed) {
            let want = if ctx.spec.journal {
                stream.prefix_events() as u64
            } else {
                0
            };
            if *r != want {
                out.fail(
                    1,
                    format!("{}: resumed {r} events, acked {want}", stream.name),
                );
            }
        }
    }

    if ctx.spec.journal {
        for (((conn, stream), frames), expected) in
            conns.iter_mut().zip(streams).zip(frames).zip(&ctx.expected)
        {
            let tail = stream.prefix_frames..frames.frames.len();
            let samples = closed_loop(conn, expected, frames, tail, origin);
            match samples {
                Ok(s) => {
                    out.attempted += s.events;
                    if s.failed > 0 {
                        out.fail(
                            s.failed,
                            format!("{} tail: {} wrong events", stream.name, s.failed),
                        );
                    }
                }
                Err(e) => out.fail(1, format!("{} tail: {e}", stream.name)),
            }
            settle(ctx, conn, stream, finish_outcome, &mut out);
        }
    }
    drop(conns);
    daemon
        .shutdown()
        .map_err(|e| format!("shutdown after recovery: {e}"))?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}
