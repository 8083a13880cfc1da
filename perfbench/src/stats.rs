//! The benchmark's metric arithmetic: one percentile rule and ratios
//! that name their base. Every reported number goes through here, so
//! the tests below pin the rules the numbers are read by.

use std::collections::{BTreeMap, BTreeSet};

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q · n` samples at or below it (`q` in `[0, 1]`).
/// `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median under the same nearest-rank rule (the lower middle sample for
/// an even count), after sorting a copy.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Each window's p99, for `(window, sample)` pairs, taken at quantile
/// `across` over the windows (0.5: the median window). Windows with fewer
/// than `min` samples (fewer than `min / 100` beyond their p99) are left
/// out; `None` when no window qualifies.
pub fn windowed_p99(samples: &[(u32, f64)], min: usize, across: f64) -> Option<f64> {
    let mut by_window: std::collections::BTreeMap<u32, Vec<f64>> = Default::default();
    for &(w, v) in samples {
        by_window.entry(w).or_default().push(v);
    }
    let mut p99s: Vec<f64> = by_window
        .into_values()
        .filter(|v| v.len() >= min)
        .filter_map(|mut v| {
            v.sort_by(f64::total_cmp);
            percentile(&v, 0.99)
        })
        .collect();
    p99s.sort_by(f64::total_cmp);
    percentile(&p99s, across)
}

/// The windows that count as clean: those where neither the window nor
/// any window within `reach` of it lost more CPU time to the host than
/// the run's median window did. `steal` maps window numbers to ticks
/// stolen; consecutive numbers are consecutive in time. On a quiet host
/// the median is 0, and only windows with no steal near them count;
/// while the host steals a little from every window, the windows it
/// stole more from are left out with their neighbours.
pub fn clean_windows(steal: &BTreeMap<u32, u64>, reach: u32) -> BTreeSet<u32> {
    let limit = steal_limit(steal.values().copied());
    steal
        .keys()
        .copied()
        .filter(|&w| {
            let near = w.saturating_sub(reach)..=w.saturating_add(reach);
            steal.range(near).all(|(_, &s)| s <= limit)
        })
        .collect()
}

/// The median steal (the lower middle one); 0 for no windows.
fn steal_limit(steals: impl Iterator<Item = u64>) -> u64 {
    let mut v: Vec<u64> = steals.collect();
    v.sort_unstable();
    v.get(v.len().saturating_sub(1) / 2).copied().unwrap_or(0)
}

/// `part ÷ base`; 0 when the base is empty, so a layer that did no work
/// reads as 0 rather than NaN.
pub fn ratio(part: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        part / base
    }
}

/// `part` per thousand of `base`.
pub fn per_thousand(part: f64, base: f64) -> f64 {
    1000.0 * ratio(part, base)
}

/// Relative slowdown of `traced` against `untraced` for a metric where
/// `higher_is_better`: positive means tracing cost that share.
pub fn slowdown(untraced: f64, traced: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        ratio(untraced - traced, untraced)
    } else {
        ratio(traced - untraced, untraced)
    }
}

/// Counters of the served reads, the base of `read_served_ratio`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReadCounts {
    /// Reads issued (every `GetReq` sent).
    pub issued: u64,
    /// Answered `Fresh`.
    pub fresh: u64,
    /// Answered `ServedStale`.
    pub served_stale: u64,
    /// Answered `RefusedStale`.
    pub refused: u64,
    /// Answered `Miss`.
    pub misses: u64,
}

impl ReadCounts {
    /// (Fresh + ServedStale) ÷ reads issued: a read that never got an
    /// answer counts against the ratio like a refusal does.
    pub fn served_ratio(&self) -> f64 {
        ratio((self.fresh + self.served_stale) as f64, self.issued as f64)
    }

    /// Counts since `earlier`.
    pub fn since(&self, earlier: &ReadCounts) -> ReadCounts {
        ReadCounts {
            issued: self.issued - earlier.issued,
            fresh: self.fresh - earlier.fresh,
            served_stale: self.served_stale - earlier.served_stale,
            refused: self.refused - earlier.refused,
            misses: self.misses - earlier.misses,
        }
    }

    /// Add another phase's counts.
    pub fn add(&mut self, o: &ReadCounts) {
        self.issued += o.issued;
        self.fresh += o.fresh;
        self.served_stale += o.served_stale;
        self.refused += o.refused;
        self.misses += o.misses;
    }
}

/// Length of the union of `[start, end)` intervals: the part of a
/// parent span its children cover, with overlaps counted once.
pub fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(
            percentile(&v, 0.0),
            Some(1.0),
            "rank clamps to the first sample"
        );
        // 0.99 · 10 = 9.9 → rank 10: with ten samples p99 is the maximum.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.99), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_sorts_and_takes_the_lower_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn windowed_p99_ranks_the_windows() {
        // Four windows of 100 samples 1..=100 shifted by 0, 1000, 10, 20:
        // window p99s 99, 1099, 109, 119. The stalled window is an
        // outlier the lower quantiles skip.
        let mut s = Vec::new();
        for (w, shift) in [0.0, 1000.0, 10.0, 20.0].into_iter().enumerate() {
            s.extend((1..=100).map(|i| (w as u32, f64::from(i) + shift)));
        }
        s.push((9, 5.0)); // a short trailing window is left out
        assert_eq!(windowed_p99(&s, 100, 0.25), Some(99.0));
        assert_eq!(windowed_p99(&s, 100, 0.5), Some(109.0));
        assert_eq!(windowed_p99(&s, 100, 1.0), Some(1099.0));
        assert_eq!(windowed_p99(&s, 101, 0.5), None);
    }

    #[test]
    fn steal_limit_is_the_lower_median() {
        assert_eq!(steal_limit([0, 0, 3, 0, 1].into_iter()), 0);
        assert_eq!(steal_limit([1, 2, 1, 4, 1, 2].into_iter()), 1);
        assert_eq!(steal_limit([2, 1].into_iter()), 1, "lower middle");
        assert_eq!(steal_limit(std::iter::empty()), 0);
    }

    #[test]
    fn clean_windows_leave_out_the_neighbours_of_stolen_ones() {
        // Segment 0: windows 0..=6, steal in window 3. Segment 1 starts at
        // 100000 with steal in its first window.
        let steal: BTreeMap<u32, u64> = [
            (0, 0),
            (1, 0),
            (2, 0),
            (3, 1),
            (4, 0),
            (5, 0),
            (6, 0),
            (100_000, 2),
            (100_001, 0),
            (100_002, 0),
        ]
        .into_iter()
        .collect();
        let clean = |reach| clean_windows(&steal, reach).into_iter().collect::<Vec<_>>();
        assert_eq!(clean(0), [0, 1, 2, 4, 5, 6, 100_001, 100_002]);
        assert_eq!(clean(1), [0, 1, 5, 6, 100_002]);
        assert_eq!(clean(2), [0, 6], "reach never crosses into another segment");
        // A host that stole from every window: only its heavier spells go.
        let busy: BTreeMap<u32, u64> = (0..6).zip([1, 1, 3, 1, 1, 1]).collect();
        assert_eq!(
            clean_windows(&busy, 1).into_iter().collect::<Vec<_>>(),
            [0, 4, 5]
        );
    }

    #[test]
    fn ratios_state_their_base() {
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(5.0, 0.0), 0.0, "an empty base reads as zero, not NaN");
        // 325 refetches over 1000 reads: 325 per thousand reads.
        assert_eq!(per_thousand(325.0, 1000.0), 325.0);
        assert_eq!(per_thousand(13.0, 2000.0), 6.5);
    }

    #[test]
    fn served_ratio_counts_unanswered_reads_against_it() {
        let c = ReadCounts {
            issued: 10,
            fresh: 6,
            served_stale: 2,
            refused: 1,
            misses: 0,
        };
        // One read of the ten got no answer at all: still in the base.
        assert_eq!(c.served_ratio(), 0.8);
        let mut total = ReadCounts::default();
        total.add(&c);
        total.add(&c);
        assert_eq!(total.issued, 20);
        assert_eq!(total.served_ratio(), 0.8);
    }

    #[test]
    fn slowdown_is_signed_by_direction() {
        assert!(
            (slowdown(100.0, 90.0, true) - 0.1).abs() < 1e-12,
            "throughput fell 10%"
        );
        assert!(
            (slowdown(50.0, 55.0, false) - 0.1).abs() < 1e-12,
            "latency rose 10%"
        );
        assert!(
            slowdown(100.0, 110.0, true) < 0.0,
            "a faster traced run is negative"
        );
    }

    #[test]
    fn coverage_merges_overlaps() {
        assert_eq!(covered(vec![]), 0);
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(covered(vec![(20, 25), (0, 10), (10, 12)]), 17);
        assert_eq!(
            covered(vec![(0, 100), (10, 20)]),
            100,
            "nested children count once"
        );
    }
}
