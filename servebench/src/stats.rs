//! Order statistics, the tail-percentile rule and per-session effort.

/// Percentile levels the tail rule picks from, lowest first, in
/// hundredths of a percent so ranks are computed exactly.
pub const TAIL_LEVELS: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// A tail percentile must leave at least this many samples beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q·len` samples at or below it.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// Nearest-rank quantile of unsorted values.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// The median (nearest-rank).
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// A tail figure together with the percentile it was read at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile used, e.g. `99.0`.
    pub percentile: f64,
    /// The value at that percentile.
    pub value: f64,
    /// Samples the figure was read from.
    pub samples: usize,
    /// Samples ranked strictly above the percentile's position.
    pub beyond: usize,
}

/// The highest percentile in [`TAIL_LEVELS`] that still has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. With too few samples for even
/// the median to qualify, the median is returned and `beyond` says how
/// thin it is.
#[must_use]
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let samples = sorted.len();
    let at = |level: u64| {
        let rank = (level * samples as u64).div_ceil(10_000) as usize;
        let rank = rank.clamp(1, samples.max(1));
        (rank, samples - rank)
    };
    let level = TAIL_LEVELS
        .iter()
        .rev()
        .copied()
        .find(|&p| at(p).1 >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_LEVELS[0]);
    let (rank, beyond) = at(level);
    let value = *sorted.get(rank - 1)?;
    Some(Tail {
        percentile: level as f64 / 100.0,
        value,
        samples,
        beyond,
    })
}

/// Served effort of one session in ticks per message: the tick of its
/// last output write at the server minus the time of its first data send
/// (both on the shared clock), divided by `n`.
#[must_use]
pub fn served_effort(
    first_send_micros: u64,
    last_write_tick: u64,
    tick_micros: u64,
    n: usize,
) -> Option<f64> {
    if n == 0 || tick_micros == 0 {
        return None;
    }
    let first = first_send_micros as f64 / tick_micros as f64;
    Some((last_write_tick as f64 - first) / n as f64)
}

/// Values below this are counted exactly, one bucket per microsecond.
const LINEAR_US: u64 = 1024;
/// Sub-buckets per power of two above [`LINEAR_US`]: 1/64 ≈ 1.6 % wide.
const SUB_BUCKETS: u64 = 64;
/// Buckets needed to cover every `u64`.
const BUCKETS: usize = (LINEAR_US + (64 - 10) * SUB_BUCKETS) as usize;

/// A log-linear histogram of microsecond values: exact below 1 ms,
/// within 1.6 % above. Its counts are allocated once, at the first
/// record, so recording on a hot path never reallocates (a growing
/// sample vector would stall the thread that records into it).
#[derive(Clone, Debug, Default)]
pub struct MicrosHist {
    counts: Vec<u64>,
    total: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < LINEAR_US {
        return v as usize;
    }
    let exp = 63 - u64::from(v.leading_zeros());
    let sub = (v >> (exp - 6)) & (SUB_BUCKETS - 1);
    (LINEAR_US + (exp - 10) * SUB_BUCKETS + sub) as usize
}

fn lower_edge(b: usize) -> u64 {
    let b = b as u64;
    if b < LINEAR_US {
        return b;
    }
    let exp = (b - LINEAR_US) / SUB_BUCKETS + 10;
    let sub = (b - LINEAR_US) % SUB_BUCKETS;
    (SUB_BUCKETS + sub) << (exp - 6)
}

impl MicrosHist {
    /// Counts one value.
    pub fn record(&mut self, micros: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        if let Some(c) = self.counts.get_mut(bucket_of(micros)) {
            *c += 1;
            self.total += 1;
        }
    }

    /// Values counted.
    #[cfg(test)]
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds `other`'s counts to this one.
    pub fn merge(&mut self, other: &MicrosHist) {
        if other.total == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Nearest-rank quantile, as the lower edge of its bucket; 0 when
    /// empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return lower_edge(b) as f64;
            }
        }
        0.0
    }
}

/// Ratio of two sums, 0 when the denominator is 0 (a layer that did no
/// work on this workload).
#[must_use]
pub fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(5.0));
        assert_eq!(quantile(&v, 0.9), Some(9.0));
        assert_eq!(quantile(&v, 1.0), Some(10.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).expect("tail");
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1000);
        assert_eq!(t.beyond, 10);

        // 999 samples: p99 leaves only 9 beyond, so p90 is used.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&v).expect("tail");
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 999 - 900);

        // 100 samples: p90 leaves 10 beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v).expect("tail").percentile, 90.0);

        // 12 samples: nothing qualifies, the median is reported as thin.
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        let t = tail(&v).expect("tail");
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.beyond, 6);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v).expect("tail").value, 90.0);
    }

    #[test]
    fn effort_on_a_hand_built_timeline() {
        // 200 µs ticks. First data send at 1 000 µs (tick 5), last write
        // at tick 4 613: 4 608 ticks for 1 024 messages = 4.5 ticks/msg.
        let e = served_effort(1_000, 4_613, 200, 1_024).expect("effort");
        assert!((e - 4.5).abs() < 1e-12, "{e}");
        // A send stamp between ticks counts fractionally.
        let e = served_effort(1_100, 105, 200, 100).expect("effort");
        assert!((e - (105.0 - 5.5) / 100.0).abs() < 1e-12, "{e}");
        assert_eq!(served_effort(0, 10, 200, 0), None);
        assert_eq!(served_effort(0, 10, 0, 4), None);
    }

    #[test]
    fn histogram_is_exact_below_a_millisecond() {
        let mut h = MicrosHist::default();
        assert_eq!(h.quantile(0.5), 0.0);
        for v in 1..=1000 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.quantile(0.5), 500.0);
        assert_eq!(h.quantile(0.99), 990.0);
        let mut other = MicrosHist::default();
        other.record(5_000_000);
        h.merge(&other);
        assert_eq!(h.count(), 1001);
        assert_eq!(h.quantile(1.0), lower_edge(bucket_of(5_000_000)) as f64);
    }

    #[test]
    fn histogram_buckets_are_within_two_percent_above_a_millisecond() {
        for v in [1024u64, 1500, 65_535, 1 << 20, 123_456_789, u64::MAX] {
            let b = bucket_of(v);
            assert!(b < BUCKETS, "{v}");
            let lo = lower_edge(b);
            assert!(lo <= v && (v - lo) as f64 <= v as f64 / 64.0, "{v}: {lo}");
        }
        // Edges are monotone, so quantiles are too.
        assert!((1..BUCKETS).all(|b| lower_edge(b) > lower_edge(b - 1)));
    }

    #[test]
    fn per_guards_empty_layers() {
        assert_eq!(per(3.0, 0.0), 0.0);
        assert_eq!(per(3.0, 2.0), 1.5);
    }
}
