//! Order statistics and host normalisation.

use crate::refk::{REF_NOMINAL_MS, SYNC_NOMINAL_MS};

/// Median of `values` (mean of the two middle values when even). Panics
/// on an empty slice: a metric without samples must not be printed.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `q`-quantile (0..=1) of sorted `values`, linear interpolation between
/// closest ranks.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method),
/// which is what the benchmark driver uses for its spread check.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    [cut(1), cut(2), cut(3)]
}

/// Interquartile range as a share of the median: the driver's "spread".
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`; `None` below twenty samples, where that
/// percentile would sit under the median.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 20 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - 10; // ten samples lie strictly beyond index rank - 1
    Some((100.0 * rank as f64 / n as f64, v[rank - 1]))
}

/// One timed lap of fixed work, bracketed by reference slices run on the
/// thread that timed it: the compute kernel, and one small `fsync`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lap {
    pub raw_ms: f64,
    pub ref_before_ms: f64,
    pub ref_after_ms: f64,
    /// Reference `fsync` latency before and after the lap.
    pub sync_ref_before_ms: f64,
    pub sync_ref_after_ms: f64,
    /// Part of `raw_ms` the program itself reports waiting on WAL syncs
    /// (`ImportTimings::wal`); 0 for laps that sync nothing.
    pub sync_ms: f64,
}

impl Lap {
    /// How much slower than nominal the host computed around this lap.
    pub fn host_factor(&self) -> f64 {
        (self.ref_before_ms + self.ref_after_ms) / 2.0 / REF_NOMINAL_MS
    }

    /// How much slower than nominal the host's storage synced around it.
    pub fn sync_factor(&self) -> f64 {
        (self.sync_ref_before_ms + self.sync_ref_after_ms) / 2.0 / SYNC_NOMINAL_MS
    }

    /// `ms` of this lap, of which `sync_ms` were spent waiting on syncs, on
    /// a nominal host: the two parts are scaled by their own factors.
    pub fn normalise(&self, ms: f64, sync_ms: f64) -> f64 {
        let sync_ms = sync_ms.min(ms);
        (ms - sync_ms) / self.host_factor() + sync_ms / self.sync_factor()
    }

    /// The lap's duration on a nominal host.
    pub fn norm_ms(&self) -> f64 {
        self.normalise(self.raw_ms, self.sync_ms)
    }
}

/// Host-normalised total of a lap series, in seconds.
pub fn norm_total_s(laps: &[Lap]) -> f64 {
    laps.iter().map(Lap::norm_ms).sum::<f64>() / 1e3
}

pub fn raw_total_s(laps: &[Lap]) -> f64 {
    laps.iter().map(|l| l.raw_ms).sum::<f64>() / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lap on a nominal host that syncs nothing.
    const QUIET: Lap = Lap {
        raw_ms: 0.0,
        ref_before_ms: REF_NOMINAL_MS,
        ref_after_ms: REF_NOMINAL_MS,
        sync_ref_before_ms: SYNC_NOMINAL_MS,
        sync_ref_after_ms: SYNC_NOMINAL_MS,
        sync_ms: 0.0,
    };

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), 10.0);
        assert_eq!(quantile_sorted(&sorted, 0.5), 30.0);
        assert_eq!(quantile_sorted(&sorted, 0.9), 46.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 50.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([2, 4, 4, 5, 7, 9, 11], n=4) == [4.0, 5.0, 9.0]
        assert_eq!(
            quartiles(&[9.0, 2.0, 4.0, 11.0, 4.0, 5.0, 7.0]),
            [4.0, 5.0, 9.0]
        );
        // two samples: python extrapolates to [0.75, 1.5, 2.25] for [1, 2]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 19]), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
    }

    /// A stretch of the run on a host 1.5x slower must not move the
    /// normalised total by 5 %, though it moves the raw total by 17 %.
    #[test]
    fn normalisation_absorbs_a_slow_stretch() {
        let series = |slow: std::ops::Range<usize>| -> Vec<Lap> {
            (0..60)
                .map(|i| {
                    // deterministic +-3 % jitter the kernel does not see
                    let jitter = 1.0 + 0.03 * (((i * 37) % 7) as f64 - 3.0) / 3.0;
                    let f = if slow.contains(&i) { 1.5 } else { 1.0 };
                    Lap {
                        raw_ms: 200.0 * f * jitter,
                        ref_before_ms: REF_NOMINAL_MS * f,
                        ref_after_ms: REF_NOMINAL_MS * f,
                        ..QUIET
                    }
                })
                .collect()
        };
        let calm = series(0..0);
        let disturbed = series(20..40);
        let raw_shift = raw_total_s(&disturbed) / raw_total_s(&calm) - 1.0;
        let norm_shift = norm_total_s(&disturbed) / norm_total_s(&calm) - 1.0;
        assert!(raw_shift > 0.15, "raw total moved {raw_shift}");
        assert!(
            norm_shift.abs() < 0.05,
            "normalised total moved {norm_shift}"
        );
        // a lap straddling the edge of the stretch sees one slow slice
        let edge = Lap {
            raw_ms: 250.0,
            ref_before_ms: REF_NOMINAL_MS,
            ref_after_ms: 1.5 * REF_NOMINAL_MS,
            ..QUIET
        };
        assert!((edge.host_factor() - 1.25).abs() < 1e-12);
        assert!((edge.norm_ms() - 200.0).abs() < 1e-9);
    }

    /// Storage three times slower than nominal must not show in a lap that
    /// spent 10 % of a nominal host's time waiting on syncs.
    #[test]
    fn sync_waits_are_scaled_by_the_storage_factor() {
        let calm = Lap {
            raw_ms: 100.0,
            sync_ms: 10.0,
            ..QUIET
        };
        let slow_disk = Lap {
            raw_ms: 120.0,
            sync_ms: 30.0,
            sync_ref_before_ms: 3.0 * SYNC_NOMINAL_MS,
            sync_ref_after_ms: 3.0 * SYNC_NOMINAL_MS,
            ..QUIET
        };
        assert!((calm.norm_ms() - 100.0).abs() < 1e-9);
        assert!((slow_disk.norm_ms() - 100.0).abs() < 1e-9);
        // a sample inside the lap is scaled with the lap's factors
        assert!((slow_disk.normalise(12.0, 3.0) - 10.0).abs() < 1e-9);
        // a claimed wait longer than the sample is clamped to it
        assert!((slow_disk.normalise(3.0, 9.0) - 1.0).abs() < 1e-9);
    }
}
