//! Summary statistics over latency samples.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Median of a sample (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Share of the ranked sample, around its middle, that [`mid_mean`]
/// averages.
pub const MID_SHARE: f64 = 0.2;

/// A smoothed median: the mean of the samples ranked in the middle
/// [`MID_SHARE`] of the sample (at least the one or two middle ones).
/// Where a sample is two clusters of about equal size, as cache hits and
/// misses are, the plain median is the mean of the slowest of one and the
/// fastest of the other, two extremes; this averages many ranks instead.
/// `None` when empty.
pub fn mid_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let half = ((n as f64 * MID_SHARE / 2.0).round() as usize).min((n - 1) / 2);
    let (lo, hi) = ((n - 1) / 2 - half, n / 2 + half);
    let mid = &v[lo..=hi];
    Some(mid.iter().sum::<f64>() / mid.len() as f64)
}

/// Percentiles a tail may be reported at, in per mille, highest first.
pub const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile of a sample that still leaves
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in (0, 100).
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Sample count.
    pub samples: usize,
    /// Samples ranked beyond the reported one.
    pub beyond: usize,
}

/// The tail of a sample: the highest [`TAIL_LADDER`] percentile (nearest
/// rank) that leaves [`TAIL_BEYOND`] samples beyond it, or, for samples
/// too small for any of them, the sample of rank `n - TAIL_BEYOND`.
/// `None` when the sample cannot leave [`TAIL_BEYOND`] beyond any value.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (permille, rank) = TAIL_LADDER
        .iter()
        .map(|&pm| (pm as f64, (pm * n).div_ceil(1000)))
        .find(|&(_, rank)| n - rank >= TAIL_BEYOND)
        .unwrap_or((
            1000.0 * (n - TAIL_BEYOND) as f64 / n as f64,
            n - TAIL_BEYOND,
        ));
    Some(Tail {
        percentile: permille / 10.0,
        value: v[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

impl Tail {
    /// How the report names this tail: percentile, sample count, and the
    /// samples beyond it.
    pub fn describe(&self) -> String {
        format!(
            "p{} of {} samples ({} beyond it)",
            self.percentile, self.samples, self.beyond
        )
    }
}
