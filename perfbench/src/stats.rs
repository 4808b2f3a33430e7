//! Exact order statistics over raw samples.
//!
//! Quantiles are read off the sorted samples themselves (nearest rank),
//! never off histogram buckets, so a reported p99 is a latency some
//! request actually saw.

/// Samples beyond a reported tail percentile, at least.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `sorted` (ascending, non-empty):
/// the smallest sample with at least `q·n` samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// A tail quantile with its provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (as a fraction).
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// Samples in the distribution.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// The `want` quantile of `sorted`, lowered to the highest percentile
/// (in steps of 0.1 %) that still leaves [`MIN_BEYOND`] samples beyond
/// it. Returns `None` for fewer than `2 · MIN_BEYOND` samples.
pub fn tail(sorted: &[f64], want: f64) -> Option<Tail> {
    let n = sorted.len();
    if n < 2 * MIN_BEYOND {
        return None;
    }
    let mut permille = (want * 1000.0).round() as usize;
    loop {
        let q = permille as f64 / 1000.0;
        let rank = (q * n as f64).ceil() as usize;
        if n - rank >= MIN_BEYOND || permille <= 500 {
            return Some(Tail {
                q,
                value: quantile(sorted, q),
                samples: n,
                beyond: n - rank.min(n),
            });
        }
        permille -= 1;
    }
}

/// Requests per window of [`windowed`]: a p99 leaves exactly
/// [`MIN_BEYOND`] samples beyond it, a p95 fifty.
pub const WINDOW: usize = 1_000;

/// The `across` quantile, over windows of [`WINDOW`] consecutive
/// samples, of each window's exact `within` quantile; with the number
/// of windows. The windows of one series never span another.
///
/// On a shared host, vCPU stalls of 1–25 ms disturb a share of the
/// windows that changes from run to run; each stall inflates only the
/// windows it lands in. With `across` = 0.25 the figure is the latency
/// of the calm windows, which a program change moves and host stalls
/// do not, as long as a quarter of the windows are calm. Series shorter
/// than a window fall back to the `within` quantile of all samples.
pub fn windowed<'a>(
    series: impl Iterator<Item = &'a [f64]>,
    within: f64,
    across: f64,
) -> Option<(f64, usize)> {
    let mut all = Vec::new();
    let mut per_window = Vec::new();
    for s in series {
        all.extend_from_slice(s);
        for w in s.chunks_exact(WINDOW) {
            let mut w = w.to_vec();
            w.sort_by(f64::total_cmp);
            per_window.push(quantile(&w, within));
        }
    }
    if per_window.is_empty() {
        all.sort_by(f64::total_cmp);
        return (!all.is_empty()).then(|| (quantile(&all, within), 0));
    }
    per_window.sort_by(f64::total_cmp);
    Some((quantile(&per_window, across), per_window.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let big: Vec<f64> = (0..10_000).map(f64::from).collect();
        let t = tail(&big, 0.99).unwrap();
        assert_eq!((t.q, t.beyond), (0.99, 100));
        // 200 samples: p99 would leave 2 beyond, so it drops to p95.
        let small: Vec<f64> = (0..200).map(f64::from).collect();
        let t = tail(&small, 0.99).unwrap();
        assert_eq!(t.q, 0.95);
        assert!(t.beyond >= MIN_BEYOND);
        assert!(tail(&small[..19], 0.99).is_none());
    }

    #[test]
    fn stalled_windows_do_not_move_the_calm_quartile() {
        let calm: Vec<f64> = (0..8 * WINDOW).map(|i| (i % 100) as f64).collect();
        let (base, windows) = windowed([calm.as_slice()].into_iter(), 0.99, 0.25).unwrap();
        assert_eq!((base, windows), (98.0, 8));
        // Stalls in five windows of eight leave the lower quartile
        // alone but move the median over windows.
        let mut stalled = calm.clone();
        for w in 0..5 {
            stalled[w * WINDOW..w * WINDOW + 50].fill(10_000.0);
        }
        let (quartile, _) = windowed([stalled.as_slice()].into_iter(), 0.99, 0.25).unwrap();
        assert_eq!(quartile, base);
        let (median, _) = windowed([stalled.as_slice()].into_iter(), 0.99, 0.5).unwrap();
        assert_eq!(median, 10_000.0);
        // Short series: the quantile of everything.
        let short = [1.0, 2.0, 3.0];
        assert_eq!(
            windowed([&short[..]].into_iter(), 0.5, 0.25),
            Some((2.0, 0))
        );
    }
}
