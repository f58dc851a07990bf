//! Bounded top-`limit` selection over a streaming scan.
//!
//! [`SegmentStore::scan_runs`](crate::SegmentStore::scan_runs) hands
//! over each segment's matches as runs sorted by `(time, seq)`; a
//! consumer that wants only the first `limit` matches of the whole
//! answer feeds each run to a [`TopK`], which keeps the `limit`
//! smallest keys in a max-heap and counts everything it was offered.
//! Only the first `limit` matches of a run can enter it, and it stops
//! a run at the first match that does not: every later match of the
//! same run has a larger key. Memory is O(`limit`) however many records
//! match, and because `seq` is unique the kept rows are exactly the
//! first `limit` of the fully sorted answer.

use std::collections::BinaryHeap;

use sclog_types::Timestamp;

use crate::column::Run;
use crate::record::StoredAlert;

/// The `limit` smallest `(time, seq)` records offered, plus a count of
/// all of them.
#[derive(Debug)]
pub struct TopK {
    limit: usize,
    total: u64,
    /// `(time, seq, slot)`, largest key on top; `kept[slot]` is the
    /// record.
    heap: BinaryHeap<(Timestamp, u64, usize)>,
    kept: Vec<StoredAlert>,
}

impl TopK {
    /// An empty selection keeping at most `limit` records.
    pub fn new(limit: usize) -> TopK {
        TopK {
            limit,
            total: 0,
            heap: BinaryHeap::new(),
            kept: Vec::new(),
        }
    }

    /// Counts `r` and keeps it if it is among the `limit` smallest
    /// `(time, seq)` keys offered so far.
    pub fn offer(&mut self, r: &StoredAlert) {
        self.total += 1;
        self.admit((r.time, r.seq), || *r);
    }

    /// Counts every match of `run` (a popcount) and keeps those among
    /// the `limit` smallest keys offered so far, reading the run in
    /// order only until a match is turned away.
    pub fn offer_run(&mut self, run: &Run<'_>) {
        self.total += run.count();
        let block = run.block();
        for i in run.rows().take(self.limit) {
            let key = (Timestamp::from_micros(block.times()[i]), block.seqs()[i]);
            if !self.admit(key, || block.row(i)) {
                break;
            }
        }
    }

    /// Keeps the record keyed `key` (built by `row` only if kept) when
    /// it is among the `limit` smallest keys; returns whether it was.
    fn admit(&mut self, key: (Timestamp, u64), row: impl FnOnce() -> StoredAlert) -> bool {
        if self.kept.len() < self.limit {
            self.heap.push((key.0, key.1, self.kept.len()));
            self.kept.push(row());
            return true;
        }
        match self.heap.peek_mut() {
            Some(mut max) if key < (max.0, max.1) => {
                self.kept[max.2] = row();
                *max = (key.0, key.1, max.2);
                true
            }
            _ => false,
        }
    }

    /// Records offered so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The kept records, sorted by `(time, seq)`.
    pub fn into_sorted(self) -> Vec<StoredAlert> {
        let kept = self.kept;
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|(_, _, slot)| kept[slot])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sclog_types::{CategoryId, NodeId, Severity};

    fn alert(time: i64, seq: u64) -> StoredAlert {
        StoredAlert {
            time: Timestamp::from_micros(time),
            host: NodeId::from_index(0),
            category: CategoryId::from_index(0),
            severity: Severity::None,
            message_index: seq as usize,
            filtered: false,
            seq,
        }
    }

    #[test]
    fn keeps_the_smallest_keys_with_seq_breaking_time_ties() {
        // Offered out of order, with every time shared by two seqs.
        let offered: Vec<StoredAlert> = (0..40u64)
            .map(|i| alert(((i * 7) % 20 / 2) as i64, (i * 13) % 40))
            .collect();
        let mut sorted = offered.clone();
        sorted.sort_by_key(|r| (r.time, r.seq));
        for limit in [1, 2, 5, 40, 100] {
            let mut top = TopK::new(limit);
            offered.iter().for_each(|r| top.offer(r));
            assert_eq!(top.total(), 40);
            let want: Vec<StoredAlert> = sorted.iter().take(limit).copied().collect();
            assert_eq!(top.into_sorted(), want, "limit {limit}");
        }
    }
}
