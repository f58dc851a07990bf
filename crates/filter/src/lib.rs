//! Alert filtering (Section 3.3 of the paper).
//!
//! "A single failure may generate alerts across many nodes or many
//! alerts on a single node. Filtering is used to reduce a related set of
//! alerts to a single initial alert per failure."
//!
//! This crate implements:
//!
//! * [`SpatioTemporalFilter`] — the paper's Algorithm 3.1, which applies
//!   temporal and spatial filtering **simultaneously**: an alert is
//!   redundant if *any* source reported its category within the last
//!   `T` seconds.
//! * [`SerialFilter`] — the prior-work baseline (Liang et al.,
//!   DSN'05/'06): a per-source temporal pass followed by a cross-source
//!   spatial pass. Kept for the paper's speed/quality comparison.
//! * [`TupleFilter`] — Tsao-style tupling (related work [4, 26]):
//!   category-blind per-source coalescing, an ablation baseline.
//! * [`AdaptiveFilter`] — per-category thresholds, the future-work
//!   direction Section 4 recommends ("a single filtering threshold is
//!   not appropriate for all kinds of messages").
//! * [`score`] / [`compare`] — ground-truth evaluation enabled by the
//!   simulator's [`FailureId`]s, quantifying what the paper could only
//!   argue anecdotally (≤ 1 true positive lost, dozens of false
//!   positives removed).
//!
//! All filters implement [`AlertFilter`] and are pure functions of the
//! time-sorted alert sequence.
//!
//! [`FailureId`]: sclog_types::FailureId

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod metrics;
mod serial;
mod spatio;
mod tuple;

pub use adaptive::AdaptiveFilter;
pub use metrics::{compare, score, FilterComparison, FilterScore};
pub use serial::SerialFilter;
pub use spatio::{SpatioTemporalFilter, SpatioTemporalStream};
pub use tuple::TupleFilter;

use sclog_types::{Alert, Duration};

/// The threshold used throughout the paper: `T = 5` seconds, "in
/// correspondence with previous work [4, 9, 10]".
pub const PAPER_THRESHOLD: Duration = Duration::from_secs(5);

/// A batch alert filter: consumes a time-sorted alert sequence and
/// returns the kept subsequence.
pub trait AlertFilter {
    /// Short display name for reports.
    fn name(&self) -> &'static str;

    /// Filters a time-sorted alert sequence.
    ///
    /// # Panics
    ///
    /// Implementations panic if `alerts` is not sorted by time — the
    /// check runs in release builds too, because every filter's
    /// correctness depends on it and a silently wrong answer is worse
    /// than the O(n) scan.
    fn filter(&self, alerts: &[Alert]) -> Vec<Alert>;

    /// Convenience: how many alerts the filter keeps.
    fn kept_count(&self, alerts: &[Alert]) -> usize {
        self.filter(alerts).len()
    }
}

/// Validates the [`AlertFilter::filter`] precondition in all build
/// profiles. Every filter algorithm assumes time order; violating it
/// yields quietly wrong suppression decisions, so this is a hard
/// `assert!`, not a `debug_assert!`. The scan is O(n) against the
/// filters' own O(n·sources) work.
pub(crate) fn assert_sorted(alerts: &[Alert]) {
    if let Some(i) = alerts.windows(2).position(|w| w[0].time > w[1].time) {
        panic!(
            "alerts must be sorted by time: alerts[{i}] at {:?} precedes alerts[{}] at {:?}",
            alerts[i].time,
            i + 1,
            alerts[i + 1].time
        );
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use sclog_types::{Alert, CategoryId, NodeId, Timestamp};

    /// Builds an alert at `secs` from source `src` in category `cat`.
    pub fn alert(secs: f64, src: u32, cat: u16, idx: usize) -> Alert {
        Alert::new(
            Timestamp::from_micros((secs * 1e6) as i64),
            NodeId::from_index(src),
            CategoryId::from_index(cat),
            idx,
        )
    }

    /// Builds a sequence from `(secs, src, cat)` triples, indexing
    /// messages in order.
    pub fn alerts(spec: &[(f64, u32, u16)]) -> Vec<Alert> {
        let mut v: Vec<Alert> = spec
            .iter()
            .enumerate()
            .map(|(i, &(s, src, cat))| alert(s, src, cat, i))
            .collect();
        v.sort_by_key(|a| a.time);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::alerts;
    use super::*;

    #[test]
    fn paper_threshold_is_five_seconds() {
        assert_eq!(PAPER_THRESHOLD.as_secs(), 5);
    }

    #[test]
    fn trait_kept_count_matches_filter_len() {
        let f = SpatioTemporalFilter::paper();
        let a = alerts(&[(0.0, 0, 0), (1.0, 0, 0), (10.0, 0, 0)]);
        assert_eq!(f.kept_count(&a), f.filter(&a).len());
    }

    #[test]
    fn unsorted_input_panics_in_every_profile() {
        use super::testutil::alert;
        // Deliberately out of order; `alerts()` would sort it.
        let bad = vec![alert(10.0, 0, 0, 0), alert(1.0, 0, 0, 1)];
        for f in [
            Box::new(SpatioTemporalFilter::paper()) as Box<dyn AlertFilter>,
            Box::new(SerialFilter::paper()),
            Box::new(TupleFilter::paper()),
            Box::new(AdaptiveFilter::new(Duration::from_secs(5))),
        ] {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.filter(&bad)))
                .expect_err("unsorted input must panic");
            let msg = err.downcast_ref::<String>().expect("string panic");
            assert!(msg.contains("sorted by time"), "{}: {msg}", f.name());
        }
    }
}
