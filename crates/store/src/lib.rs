//! Zone-map-pruned, time-partitioned on-disk segment store.
//!
//! The paper works from *months* of logs per system — Table 1's five
//! corpora span 139 days to over a year — and any serving layer over
//! such a corpus lives or dies by how little of it a query touches.
//! This crate is that layer for `sclogd`: an append-only store
//! partitioned by `(system, day)`, holding alerts in a compact
//! in-tree binary format (varint-delta timestamps, interned host and
//! category ids, CRC-32 on every durable block), std-only per the
//! workspace's hermetic policy.
//!
//! The architecture, bottom-up:
//!
//! * [`StoredAlert`] — the record at rest, plus its delta-varint
//!   batch codec (shared by WAL frames and segment payloads).
//! * [`ZoneMap`] / [`ScanFilter`] — each sealed segment carries a
//!   small resident summary (time min/max, category bitset, host-id
//!   set, severity/class bitsets); [`ZoneMap::may_match`] lets a scan
//!   prove a segment empty *without opening it*. Pruning is
//!   conservative, so a pruned scan is always result-identical to a
//!   full one.
//! * `Wal` / `Partition` — appends land in a per-partition
//!   write-ahead log whose recovery truncates a torn tail at the last
//!   valid frame; sealing moves the tail into an immutable segment
//!   under an atomically-renamed manifest, and a compactor merges
//!   runs of small segments.
//! * [`Block`] / [`Run`] — a sealed segment's payload decodes once,
//!   lazily, into columns (time, seq, host, category, severity,
//!   message index, plus a survivor bitmap) sorted by `(time, seq)`;
//!   a scan selects from it a column at a time, skipping predicates
//!   the zone map proves for every row, and hands consumers the
//!   selection as a sorted run.
//! * [`SegmentStore`] — the facade: routes appends by `(system,
//!   day)`, assigns the global admission sequence that keeps scans
//!   deterministic, prunes whole partitions then individual segments
//!   in its one scan loop ([`SegmentStore::scan_runs`], which hands a
//!   visitor each segment's matches as sorted runs;
//!   [`SegmentStore::scan_with`]
//!   feeds it matches one at a time; [`SegmentStore::scan`] collects
//!   and sorts them), and reports `store.segments_pruned` /
//!   `store.segments_scanned` / `store.bytes_read` plus
//!   WAL/seal/compaction spans through `sclog-obs`.
//! * [`TopK`] — the bounded `(time, seq)` top-`limit` a streaming
//!   consumer keeps, so a truncated answer costs O(`limit`) memory and
//!   reads at most `limit` rows of each run.
//!
//! # Examples
//!
//! ```
//! use sclog_obs::Recorder;
//! use sclog_store::{ScanFilter, SegmentStore, StoreConfig, StoreMetrics, StoredAlert};
//! use sclog_types::{AlertType, Severity, SystemId, Timestamp};
//!
//! let root = std::env::temp_dir().join(format!("sclog-store-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&root);
//! let mut store = SegmentStore::open(&root, StoreConfig::default()).unwrap();
//! let host = store.intern_host("sn373");
//! let category = store.register_category("PBS_CHK", SystemId::Liberty, AlertType::Software);
//! let rec = Recorder::disabled().thread("doc");
//! let metrics = StoreMetrics::disabled();
//! store
//!     .append(
//!         &[StoredAlert {
//!             time: Timestamp::from_ymd_hms(2005, 3, 7, 7, 30, 0),
//!             host,
//!             category,
//!             severity: Severity::None,
//!             message_index: 0,
//!             filtered: true,
//!             seq: 0, // assigned by the store
//!         }],
//!         &rec,
//!         &metrics,
//!     )
//!     .unwrap();
//! store.seal_all(&rec, &metrics).unwrap();
//!
//! // Hand each segment's matches to a visitor as sorted runs…
//! let mut survivors = 0;
//! let stats = store
//!     .scan_runs(&ScanFilter::all(), true, &rec, &metrics, |run| {
//!         survivors += run.survivor_rows().count();
//!     })
//!     .unwrap();
//! assert_eq!((survivors, stats.rows_decoded), (1, 1));
//! // …or collect them sorted by (time, seq).
//! let (hits, _) = store.scan(&ScanFilter::all(), true, &rec, &metrics).unwrap();
//! assert_eq!(hits.len(), 1);
//! # std::fs::remove_dir_all(&root).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod column;
mod crc;
mod partition;
mod record;
mod segment;
mod store;
mod topk;
mod varint;
pub mod wal;
mod zonemap;

pub use catalog::Catalog;
pub use column::{Block, Run, RUN_ROWS};
pub use crc::crc32;
pub use record::{decode_batch, encode_batch, StoredAlert};
pub use sclog_types::trace::ScanStats;
pub use segment::Segment;
pub use store::{SegmentStore, StoreConfig, StoreMetrics};
pub use topk::TopK;
pub use zonemap::{ScanFilter, ZoneMap};
