//! Per-segment zone maps and the scan filter they prune against.
//!
//! A zone map is a tiny summary of one sealed segment — time min/max,
//! category bitset, sorted host-id set, severity and class bitsets,
//! record/survivor counts — small enough to keep resident for every
//! segment. A range or filter query consults the zone map first and
//! skips the whole segment when no record can possibly match, which
//! is the store's core performance idea: *don't read* most of the
//! data.
//!
//! Pruning is conservative by construction: `may_match` returns
//! `false` only when the summarized dimensions prove emptiness, so a
//! pruned scan is always result-identical to a full scan (the
//! equivalence property test drives this on random filters).

use std::io;

use sclog_types::segment::{class_code, severity_code, SEVERITY_CODES};
use sclog_types::{CategoryRegistry, SystemId, Timestamp};

use crate::record::StoredAlert;
use crate::varint::{corrupt, get_i64, get_u64, put_i64, put_u64};

/// Summary of one sealed segment, consulted before its payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap {
    /// Records in the segment.
    pub count: u64,
    /// Records with the survivor bit set.
    pub survivors: u64,
    /// Earliest record time.
    pub min_time: Timestamp,
    /// Latest record time.
    pub max_time: Timestamp,
    /// Smallest admission sequence.
    pub min_seq: u64,
    /// Largest admission sequence.
    pub max_seq: u64,
    /// Bitset over category indexes present.
    pub categories: Vec<u64>,
    /// Sorted, deduplicated host ids present.
    pub hosts: Vec<u32>,
    /// Bitset over severity codes present (`SEVERITY_CODES` wide).
    pub severities: u16,
    /// Bitset over class codes present.
    pub classes: u8,
    /// Byte length of the segment's record payload (excluding its
    /// CRC), so a reader can validate file size without a scan.
    pub payload_len: u64,
}

impl ZoneMap {
    /// Summarizes `records`; `categories` resolves each record's
    /// class. `payload_len` is filled in by the segment writer.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch — empty segments are never sealed.
    pub fn build(records: &[StoredAlert], categories: &CategoryRegistry) -> ZoneMap {
        assert!(!records.is_empty(), "zone map of an empty segment");
        let mut zone = ZoneMap {
            count: records.len() as u64,
            survivors: 0,
            min_time: records[0].time,
            max_time: records[0].time,
            min_seq: records[0].seq,
            max_seq: records[0].seq,
            categories: Vec::new(),
            hosts: Vec::new(),
            severities: 0,
            classes: 0,
            payload_len: 0,
        };
        for r in records {
            zone.survivors += u64::from(r.filtered);
            zone.min_time = zone.min_time.min(r.time);
            zone.max_time = zone.max_time.max(r.time);
            zone.min_seq = zone.min_seq.min(r.seq);
            zone.max_seq = zone.max_seq.max(r.seq);
            let cat = r.category.index();
            if zone.categories.len() <= cat / 64 {
                zone.categories.resize(cat / 64 + 1, 0);
            }
            zone.categories[cat / 64] |= 1 << (cat % 64);
            zone.hosts.push(r.host.index() as u32);
            zone.severities |= 1 << severity_code(r.severity);
            zone.classes |= 1 << class_code(categories.def(r.category).alert_type);
        }
        zone.hosts.sort_unstable();
        zone.hosts.dedup();
        zone
    }

    /// Whether any record in the segment *could* satisfy `filter`.
    /// `false` is a proof of emptiness; `true` is only a maybe.
    pub fn may_match(&self, filter: &ScanFilter) -> bool {
        if let Some(from) = filter.from {
            if self.max_time < from {
                return false;
            }
        }
        if let Some(to) = filter.to {
            if self.min_time > to {
                return false;
            }
        }
        match filter.filtered {
            Some(true) if self.survivors == 0 => return false,
            Some(false) if self.survivors == self.count => return false,
            _ => {}
        }
        if let Some(mask) = filter.severities {
            if self.severities & mask == 0 {
                return false;
            }
        }
        if let Some(mask) = filter.classes {
            if self.classes & mask == 0 {
                return false;
            }
        }
        if let Some(want) = &filter.categories {
            let overlap = self.categories.iter().zip(want).any(|(&a, &b)| a & b != 0);
            if !overlap {
                return false;
            }
        }
        if let Some(want) = &filter.hosts {
            if !sorted_intersect(&self.hosts, want) {
                return false;
            }
        }
        true
    }

    /// Serializes the zone map (appending to `out`).
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.count);
        put_u64(out, self.survivors);
        put_i64(out, self.min_time.as_micros());
        put_i64(out, self.max_time.as_micros());
        put_u64(out, self.min_seq);
        put_u64(out, self.max_seq);
        put_u64(out, self.categories.len() as u64);
        for &word in &self.categories {
            put_u64(out, word);
        }
        put_u64(out, self.hosts.len() as u64);
        let mut prev = 0u32;
        for &host in &self.hosts {
            put_u64(out, u64::from(host - prev)); // sorted: deltas ≥ 0
            prev = host;
        }
        put_u64(out, u64::from(self.severities));
        put_u64(out, u64::from(self.classes));
        put_u64(out, self.payload_len);
    }

    /// Deserializes a zone map written by [`ZoneMap::encode`].
    ///
    /// # Errors
    ///
    /// `InvalidData` on truncation, trailing bytes, or out-of-range
    /// sets.
    pub fn decode(buf: &[u8]) -> io::Result<ZoneMap> {
        let mut pos = 0usize;
        let count = get_u64(buf, &mut pos)?;
        let survivors = get_u64(buf, &mut pos)?;
        let min_time = Timestamp::from_micros(get_i64(buf, &mut pos)?);
        let max_time = Timestamp::from_micros(get_i64(buf, &mut pos)?);
        let min_seq = get_u64(buf, &mut pos)?;
        let max_seq = get_u64(buf, &mut pos)?;
        let words = get_u64(buf, &mut pos)?;
        if words > (u16::MAX as u64 / 64) + 1 {
            return Err(corrupt("zone category bitset"));
        }
        let mut categories = Vec::with_capacity(words as usize);
        for _ in 0..words {
            categories.push(get_u64(buf, &mut pos)?);
        }
        let host_count = get_u64(buf, &mut pos)?;
        if host_count > count {
            return Err(corrupt("zone host set"));
        }
        let mut hosts = Vec::with_capacity(host_count as usize);
        let mut prev = 0u64;
        for _ in 0..host_count {
            prev += get_u64(buf, &mut pos)?;
            if prev > u64::from(u32::MAX) {
                return Err(corrupt("zone host id"));
            }
            hosts.push(prev as u32);
        }
        let severities = get_u64(buf, &mut pos)?;
        if severities >> SEVERITY_CODES != 0 {
            return Err(corrupt("zone severity bitset"));
        }
        let classes = get_u64(buf, &mut pos)?;
        if classes > 0x7 {
            return Err(corrupt("zone class bitset"));
        }
        let payload_len = get_u64(buf, &mut pos)?;
        if pos != buf.len() {
            return Err(corrupt("zone map (trailing bytes)"));
        }
        Ok(ZoneMap {
            count,
            survivors,
            min_time,
            max_time,
            min_seq,
            max_seq,
            categories,
            hosts,
            severities: severities as u16,
            classes: classes as u8,
            payload_len,
        })
    }
}

/// The store-level query predicate; `None` in any dimension means
/// "unconstrained". Built by `sclogd` from a parsed URL query, or
/// directly by tests and benches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanFilter {
    /// Inclusive lower time bound.
    pub from: Option<Timestamp>,
    /// Inclusive upper time bound.
    pub to: Option<Timestamp>,
    /// Restrict to one system (prunes whole partitions).
    pub system: Option<SystemId>,
    /// Allowed category indexes as a bitset; `Some(all-zero)` matches
    /// nothing (e.g. an unknown category name).
    pub categories: Option<Vec<u64>>,
    /// Allowed host ids, sorted; `Some(empty)` matches nothing.
    pub hosts: Option<Vec<u32>>,
    /// Allowed severity codes as a bitset.
    pub severities: Option<u16>,
    /// Allowed class codes as a bitset.
    pub classes: Option<u8>,
    /// Survivor-bit requirement.
    pub filtered: Option<bool>,
}

impl ScanFilter {
    /// A filter matching every record.
    pub fn all() -> ScanFilter {
        ScanFilter::default()
    }

    /// Whether one record satisfies every dimension. `categories`
    /// resolves the record's system and class, and is consulted only
    /// when the filter constrains one of them.
    pub fn matches(&self, r: &StoredAlert, categories: &CategoryRegistry) -> bool {
        if let Some(from) = self.from {
            if r.time < from {
                return false;
            }
        }
        if let Some(to) = self.to {
            if r.time > to {
                return false;
            }
        }
        if let Some(want) = self.filtered {
            if r.filtered != want {
                return false;
            }
        }
        if let Some(mask) = self.severities {
            if mask & (1 << severity_code(r.severity)) == 0 {
                return false;
            }
        }
        if let Some(want) = &self.categories {
            let cat = r.category.index();
            if want
                .get(cat / 64)
                .is_none_or(|w| w & (1 << (cat % 64)) == 0)
            {
                return false;
            }
        }
        if let Some(want) = &self.hosts {
            if want.binary_search(&(r.host.index() as u32)).is_err() {
                return false;
            }
        }
        if self.system.is_none() && self.classes.is_none() {
            return true;
        }
        let def = categories.def(r.category);
        self.system.is_none_or(|system| def.system == system)
            && self
                .classes
                .is_none_or(|mask| mask & (1 << class_code(def.alert_type)) != 0)
    }
}

/// Whether two sorted slices share an element (merge walk).
fn sorted_intersect(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use sclog_types::{CategoryId, NodeId, Severity};

    fn registry() -> CategoryRegistry {
        let mut reg = CategoryRegistry::new();
        reg.register(
            "HW CAT",
            SystemId::Liberty,
            sclog_types::AlertType::Hardware,
        );
        reg.register("SW CAT", SystemId::Spirit, sclog_types::AlertType::Software);
        reg
    }

    fn records() -> Vec<StoredAlert> {
        (0..4)
            .map(|i| StoredAlert {
                time: Timestamp::from_micros(1_000_000 * i),
                host: NodeId::from_index((i % 2) as u32 * 5),
                category: CategoryId::from_index((i % 2) as u16),
                severity: Severity::None,
                message_index: i as usize,
                filtered: i % 2 == 0,
                seq: 10 + i as u64,
            })
            .collect()
    }

    #[test]
    fn zone_round_trips_and_summarizes() {
        let reg = registry();
        let mut zone = ZoneMap::build(&records(), &reg);
        zone.payload_len = 99;
        assert_eq!(zone.count, 4);
        assert_eq!(zone.survivors, 2);
        assert_eq!(zone.hosts, vec![0, 5]);
        assert_eq!(zone.min_seq, 10);
        assert_eq!(zone.max_seq, 13);
        assert_eq!(zone.classes, 0b11);
        let mut buf = Vec::new();
        zone.encode(&mut buf);
        assert_eq!(ZoneMap::decode(&buf).unwrap(), zone);
        for cut in 0..buf.len() {
            assert!(ZoneMap::decode(&buf[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn pruning_is_conservative() {
        let reg = registry();
        let zone = ZoneMap::build(&records(), &reg);
        let recs = records();
        // A filter the zone prunes must match no record; a filter any
        // record matches must pass the zone.
        let disjoint_time = ScanFilter {
            from: Some(Timestamp::from_micros(10_000_000)),
            ..ScanFilter::all()
        };
        assert!(!zone.may_match(&disjoint_time));
        assert!(recs.iter().all(|r| !disjoint_time.matches(r, &reg)));

        let wrong_host = ScanFilter {
            hosts: Some(vec![1, 2, 3]),
            ..ScanFilter::all()
        };
        assert!(!zone.may_match(&wrong_host));

        let matching = ScanFilter {
            hosts: Some(vec![5]),
            filtered: Some(false),
            ..ScanFilter::all()
        };
        assert!(zone.may_match(&matching));
        assert!(recs.iter().any(|r| matching.matches(r, &reg)));
    }
}
