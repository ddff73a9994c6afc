//! Order statistics over latency samples.

/// Samples the tail leaves beyond it.
const BEYOND_TAIL: usize = 10;

/// The nearest-rank `p`-th percentile of `sorted` (ascending); 0 for no
/// samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (any order).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A latency summary: the median, and the tail: the highest percentile
/// that still has at least ten samples beyond it, which is the
/// eleventh-largest sample. Taking that rank rather than rounding down
/// to a fixed percentile keeps the tail continuous in the sample count.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    /// The percentile `tail` sits at: `100 (n - 10) / n`; 50 with too
    /// few samples, where the tail falls back to the median.
    pub tail_pct: f64,
    pub tail: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let p50 = percentile(&v, 50.0);
        let (tail_pct, tail) = if n >= 2 * BEYOND_TAIL {
            (
                100.0 * (n - BEYOND_TAIL) as f64 / n as f64,
                v[n - BEYOND_TAIL - 1],
            )
        } else {
            (50.0, p50)
        };
        Summary {
            samples: n,
            p50,
            tail_pct,
            tail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.tail_pct, s.tail, s.p50), (95.0, 190.0, 100.0));
        let s = Summary::of(&v[..150]);
        assert_eq!(s.tail, 140.0);
        let s = Summary::of(&v[..19]);
        assert_eq!((s.tail_pct, s.tail), (50.0, 10.0));
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
