//! The column-at-a-time scan kernel: decoded segment blocks, the
//! compiled scan filter, and the per-segment selections consumers
//! read.
//!
//! A sealed segment's payload decodes (lazily, on first read) into a
//! [`Block`]: one column per field plus the survivor bit as a `u64`
//! bitmap, with rows put in `(time, seq)` order at decode — one sort,
//! paid only when the payload is out of order. A scan compiles its
//! [`ScanFilter`] once into a [`CompiledFilter`] (system, class and
//! category folded into one per-category-id table, hosts into a dense
//! id bitmap), binary-searches the time window on the sorted `time`
//! column, and builds one 64-row selection word at a time from only
//! the columns the filter names — skipping a predicate outright when
//! the segment's zone map proves every row passes it. Consumers get a
//! [`Run`]: a block plus its selection, a sorted run whose match count
//! is a popcount and whose first `limit` matches are the only ones a
//! top-`limit` reader can use.
//!
//! Alerts come in floods — one node repeating one message — so most
//! 64-row words of a sorted block hold a single host and a single
//! category. Each block keeps, per word, the host and the category all
//! of its rows share (or a private "mixed" mark), built once after the
//! sort. The host and category predicates answer such a word with one
//! lookup spread over all 64 bits, and [`Run::count_categories`]
//! credits its popcount to one category; only mixed words are read row
//! by row. The summaries are exact, so answers never depend on how
//! bursty a block is — only the speed does.

use std::io;
use std::ops::Range;

use sclog_types::segment::{class_code, severity_from_code};
use sclog_types::{CategoryId, CategoryRegistry, NodeId, Timestamp};

use crate::record::{BatchDecoder, RawRecord, StoredAlert};
use crate::varint::corrupt;
use crate::zonemap::{ScanFilter, ZoneMap};

/// Word-summary mark for a word whose rows hold more than one host. A
/// word whose rows all hold this id is marked mixed too, so no answer
/// depends on the mark.
const MIXED_HOST: u32 = u32::MAX;
/// [`MIXED_HOST`] for the category column.
const MIXED_CATEGORY: u16 = u16::MAX;

/// A segment payload decoded into columns, rows in `(time, seq)`
/// order. About 31 bytes per row; no row structs are kept.
#[derive(Debug, Default)]
pub struct Block {
    time: Vec<i64>,
    seq: Vec<u64>,
    host: Vec<u32>,
    category: Vec<u16>,
    /// Severity codes (`sclog_types::segment::severity_code`).
    severity: Vec<u8>,
    message_index: Vec<u64>,
    /// Survivor bits: bit `i % 64` of word `i / 64` is row `i`'s.
    survivors: Vec<u64>,
    /// Per 64-row word: the host every row of the word holds, or
    /// [`MIXED_HOST`]. Built after the sort, like the next one.
    host_words: Vec<u32>,
    /// Per 64-row word: the category every row of the word holds, or
    /// [`MIXED_CATEGORY`].
    category_words: Vec<u16>,
}

impl Block {
    /// Decodes one [`encode_batch`](crate::encode_batch) payload
    /// straight into columns and sorts it, checking it holds `count`
    /// records. The payload is freed before the sort, so the sort's
    /// scratch never sits beside it.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a malformed batch, a record-count mismatch, or
    /// rows that break [`Block::sort`]'s premise.
    pub(crate) fn decode(payload: Vec<u8>, count: u64) -> io::Result<Block> {
        let mut records = BatchDecoder::new(&payload)?;
        if records.remaining() as u64 != count {
            return Err(corrupt("segment record count"));
        }
        let mut block = Block::fill(count as usize, records.by_ref())?;
        records.finish()?;
        drop(payload);
        block.sort()?;
        block.summarise();
        Ok(block)
    }

    /// A sorted block holding `rows` (a partition's unsealed tail).
    ///
    /// # Errors
    ///
    /// `InvalidData` when the rows break [`Block::sort`]'s premise.
    pub(crate) fn from_rows(rows: &[StoredAlert]) -> io::Result<Block> {
        let mut block = Block::fill(rows.len(), rows.iter().map(|r| Ok(RawRecord::of(r))))?;
        block.sort()?;
        block.summarise();
        Ok(block)
    }

    /// An unsorted block of the first `n` of `records`, its columns
    /// sized up front and filled by index.
    fn fill(n: usize, records: impl Iterator<Item = io::Result<RawRecord>>) -> io::Result<Block> {
        let (mut time, mut seq, mut host) = (vec![0; n], vec![0; n], vec![0; n]);
        let (mut category, mut severity) = (vec![0; n], vec![0; n]);
        let mut message_index = vec![0; n];
        let mut survivors = vec![0u64; n.div_ceil(64)];
        for (i, r) in records.take(n).enumerate() {
            let r = r?;
            time[i] = r.time;
            seq[i] = r.seq;
            host[i] = r.host;
            category[i] = r.category;
            severity[i] = r.severity;
            message_index[i] = r.message_index;
            survivors[i / 64] |= u64::from(r.filtered) << (i % 64);
        }
        Ok(Block {
            time,
            seq,
            host,
            category,
            severity,
            message_index,
            survivors,
            ..Block::default()
        })
    }

    /// Puts rows in `(time, seq)` order; a no-op when times already
    /// ascend. Rows arrive in admission order — payloads, compaction
    /// output and tails all keep it — so `seq` ascends with the row
    /// index and the index breaks time ties: the sort packs `(time -
    /// min, index)` into one `u64` (a partition spans one day, far
    /// inside the bits the index leaves) and sorts those integers with
    /// the standard library's stable sort, which finds the sorted
    /// appends an out-of-order payload is made of and merges them.
    /// Columns are then permuted one at a time, so the scratch beyond
    /// the block is the sort keys plus one column.
    ///
    /// # Errors
    ///
    /// `InvalidData` when seqs do not ascend or the time span does not
    /// fit beside the index.
    fn sort(&mut self) -> io::Result<()> {
        if !self.seq.windows(2).all(|w| w[0] < w[1]) {
            return Err(corrupt("rows out of admission order"));
        }
        if self.time.windows(2).all(|w| w[0] <= w[1]) {
            return Ok(());
        }
        let n = self.len();
        let index_bits = u64::BITS - (n as u64 - 1).leading_zeros();
        let (min, max) = self
            .time
            .iter()
            .fold((i64::MAX, i64::MIN), |(lo, hi), &t| (lo.min(t), hi.max(t)));
        if (i128::from(max) - i128::from(min)) >> (64 - index_bits) != 0 {
            return Err(corrupt("block time span"));
        }
        let mut order: Vec<u64> = (0..n)
            .map(|i| (self.time[i].wrapping_sub(min) as u64) << index_bits | i as u64)
            .collect();
        order.sort();
        let index_mask = u64::MAX >> (64 - index_bits);
        let source = |k: &u64| (k & index_mask) as usize;
        fn gather<T: Copy>(column: &mut Vec<T>, order: &[u64], source: impl Fn(&u64) -> usize) {
            *column = order.iter().map(|k| column[source(k)]).collect();
        }
        gather(&mut self.time, &order, source);
        gather(&mut self.seq, &order, source);
        gather(&mut self.host, &order, source);
        gather(&mut self.category, &order, source);
        gather(&mut self.severity, &order, source);
        gather(&mut self.message_index, &order, source);
        let mut survivors = vec![0u64; self.survivors.len()];
        for (to, k) in order.iter().enumerate() {
            survivors[to / 64] |= u64::from(self.is_survivor(source(k))) << (to % 64);
        }
        self.survivors = survivors;
        Ok(())
    }

    /// Builds the per-word host and category summaries of the sorted
    /// columns.
    fn summarise(&mut self) {
        fn shared<T: Copy + PartialEq>(column: &[T], mixed: T) -> Vec<T> {
            column
                .chunks(64)
                .map(|rows| {
                    let first = rows[0];
                    if rows.iter().all(|&v| v == first) {
                        first
                    } else {
                        mixed
                    }
                })
                .collect()
        }
        self.host_words = shared(&self.host, MIXED_HOST);
        self.category_words = shared(&self.category, MIXED_CATEGORY);
    }

    /// The host every row of word `w` holds, if they hold one.
    fn word_host(&self, w: usize) -> Option<u32> {
        Some(self.host_words[w]).filter(|&host| host != MIXED_HOST)
    }

    /// The category every row of word `w` holds, if they hold one.
    fn word_category(&self, w: usize) -> Option<u16> {
        Some(self.category_words[w]).filter(|&cat| cat != MIXED_CATEGORY)
    }

    /// Rows in the block.
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// Whether the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// The `time` column, in microseconds, ascending.
    pub fn times(&self) -> &[i64] {
        &self.time
    }

    /// The `seq` column (ascending within equal times).
    pub fn seqs(&self) -> &[u64] {
        &self.seq
    }

    /// The `host` column: catalog host ids.
    pub fn hosts(&self) -> &[u32] {
        &self.host
    }

    /// The `category` column: catalog category ids.
    pub fn categories(&self) -> &[u16] {
        &self.category
    }

    /// Whether row `i` survived the spatio-temporal filter.
    fn is_survivor(&self, i: usize) -> bool {
        self.survivors[i / 64] >> (i % 64) & 1 != 0
    }

    /// Row `i` as a record.
    pub fn row(&self, i: usize) -> StoredAlert {
        StoredAlert {
            time: Timestamp::from_micros(self.time[i]),
            host: NodeId::from_index(self.host[i]),
            category: CategoryId::from_index(self.category[i]),
            severity: severity_from_code(self.severity[i]).expect("validated at decode"),
            message_index: self.message_index[i] as usize,
            filtered: self.is_survivor(i),
            seq: self.seq[i],
        }
    }
}

/// Rows one [`Run`] spans at most. A segment's matches arrive as one
/// run per `RUN_ROWS` rows of its block, so the selection words live in
/// a fixed 512-byte buffer whatever the segment's size.
pub const RUN_ROWS: usize = 4096;

/// Matches among up to [`RUN_ROWS`] consecutive rows of one sorted
/// block (a segment's, or the block of a partition's unsealed-tail
/// matches): the block plus a selection over it. Selected rows are in
/// `(time, seq)` order, so the first `k` of a run are its `k` smallest
/// keys, and a block's runs arrive in row order.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    block: &'a Block,
    /// Bit `j` of `words[k]` selects row `(first_word + k) * 64 + j`.
    words: &'a [u64],
    first_word: usize,
    count: u64,
}

impl<'a> Run<'a> {
    /// The block the selection ranges over.
    pub fn block(&self) -> &'a Block {
        self.block
    }

    /// Selected rows (a popcount, not a walk).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Indexes of the selected rows, ascending — `(time, seq)` order.
    pub fn rows(&self) -> impl Iterator<Item = usize> + 'a {
        set_bits(self.words.iter().copied(), self.first_word)
    }

    /// Indexes of the selected rows whose survivor bit is set,
    /// ascending; read from the bitmap, not row by row.
    pub fn survivor_rows(&self) -> impl Iterator<Item = usize> + 'a {
        let survivors = &self.block.survivors[self.first_word..];
        set_bits(
            self.words.iter().zip(survivors).map(|(w, s)| w & s),
            self.first_word,
        )
    }

    /// The selected rows as records, in `(time, seq)` order.
    pub fn alerts(&self) -> impl Iterator<Item = StoredAlert> + 'a {
        let block = self.block;
        self.rows().map(move |i| block.row(i))
    }

    /// Counts the selected rows per category: `add(category, n)` adds
    /// `n` rows of `category`. A word whose rows all hold one category
    /// is added as its popcount in one call; the selected rows of any
    /// other word are added one at a time.
    pub fn count_categories(&self, mut add: impl FnMut(u16, u64)) {
        for (k, &word) in self.words.iter().enumerate() {
            if word == 0 {
                continue;
            }
            let w = self.first_word + k;
            match self.block.word_category(w) {
                Some(cat) => add(cat, u64::from(word.count_ones())),
                None => {
                    set_bits(std::iter::once(word), w).for_each(|i| add(self.block.category[i], 1))
                }
            }
        }
    }
}

/// Positions of the set bits of `words`, word `k` covering rows from
/// `(first_word + k) * 64`.
fn set_bits(words: impl Iterator<Item = u64>, first_word: usize) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(move |(k, mut word)| {
        let base = (first_word + k) * 64;
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                base + bit
            })
        })
    })
}

/// Which of a filter's predicates a zone map proves true for every
/// row of its segment; a proved predicate's column is never read.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Covered {
    time: bool,
    filtered: bool,
    severities: bool,
    categories: bool,
    hosts: bool,
}

impl Covered {
    /// Every predicate proved: the segment is answered from the zone
    /// map alone.
    pub(crate) fn all(&self) -> bool {
        self.time && self.filtered && self.severities && self.categories && self.hosts
    }
}

/// A [`ScanFilter`] compiled once per scan into the kernel's lookup
/// form.
#[derive(Debug)]
pub(crate) struct CompiledFilter {
    /// Inclusive time bounds in microseconds (open ends saturated).
    from: i64,
    to: i64,
    filtered: Option<bool>,
    severities: Option<u16>,
    /// Per category id: 1 when the category, system and class
    /// constraints all admit it. `None` when none of them constrains.
    categories: Option<Vec<u8>>,
    /// Dense host-id bitmap; `None` when hosts are unconstrained.
    hosts: Option<Vec<u64>>,
}

impl CompiledFilter {
    /// Compiles `filter`; `registry` resolves each category's system
    /// and class once, here, instead of once per row.
    pub(crate) fn compile(filter: &ScanFilter, registry: &CategoryRegistry) -> CompiledFilter {
        let hosts = filter.hosts.as_ref().map(|ids| {
            let mut bits = vec![0u64; ids.iter().max().map_or(0, |&max| max as usize / 64 + 1)];
            for &id in ids {
                bits[id as usize / 64] |= 1 << (id % 64);
            }
            bits
        });
        CompiledFilter {
            from: filter.from.map_or(i64::MIN, Timestamp::as_micros),
            to: filter.to.map_or(i64::MAX, Timestamp::as_micros),
            filtered: filter.filtered,
            severities: filter.severities,
            categories: admit_table(filter, registry),
            hosts,
        }
    }

    fn category_bit(lut: &[u8], category: u16) -> u64 {
        u64::from(lut.get(category as usize).copied().unwrap_or(0))
    }

    fn host_bit(bits: &[u64], host: u32) -> u64 {
        bits.get(host as usize / 64)
            .map_or(0, |w| w >> (host % 64) & 1)
    }

    /// The predicates `zone` proves for every row of its segment.
    pub(crate) fn covered(&self, zone: &ZoneMap) -> Covered {
        let mut zone_categories = zone
            .categories
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| set_bits(std::iter::once(word), w));
        Covered {
            time: self.from <= zone.min_time.as_micros() && zone.max_time.as_micros() <= self.to,
            filtered: match self.filtered {
                None => true,
                Some(true) => zone.survivors == zone.count,
                Some(false) => zone.survivors == 0,
            },
            severities: self
                .severities
                .is_none_or(|mask| zone.severities & !mask == 0),
            categories: self.categories.as_ref().is_none_or(|lut| {
                zone_categories.all(|cat| Self::category_bit(lut, cat as u16) != 0)
            }),
            hosts: self.hosts.as_ref().is_none_or(|bits| {
                zone.hosts
                    .iter()
                    .all(|&host| Self::host_bit(bits, host) != 0)
            }),
        }
    }

    /// Selects the rows of `block` that pass, skipping the predicates
    /// `covered` proves, and hands `visit` each non-empty [`Run`] of
    /// them in row order. The time window becomes a row range by
    /// binary search on the sorted `time` column; every other
    /// predicate is evaluated 64 rows at a time into a selection word,
    /// reading only its own column or, for host and category, the
    /// word's summary. Returns how many words a summary answered.
    pub(crate) fn scan_block(
        &self,
        block: &Block,
        covered: Covered,
        visit: &mut impl FnMut(&Run<'_>),
    ) -> u64 {
        let (lo, hi) = if covered.time {
            (0, block.len())
        } else {
            (
                block.time.partition_point(|&t| t < self.from),
                block.time.partition_point(|&t| t <= self.to),
            )
        };
        let mut words = [0u64; RUN_ROWS / 64];
        let mut summarised = 0;
        let mut start = lo;
        while start < hi {
            let end = ((start / RUN_ROWS + 1) * RUN_ROWS).min(hi);
            let first_word = start / 64;
            let span = first_word..end.div_ceil(64);
            let mut count = 0;
            for (slot, w) in words.iter_mut().zip(span.clone()) {
                let (word, from_summary) = self.select_word(block, w, start..end, covered);
                *slot = word;
                count += u64::from(word.count_ones());
                summarised += u64::from(from_summary);
            }
            if count > 0 {
                visit(&Run {
                    block,
                    words: &words[..span.len()],
                    first_word,
                    count,
                });
            }
            start = end;
        }
        summarised
    }

    /// The selection word for rows `64 * w ..` of `block`: bit `j` set
    /// when row `64 * w + j` lies in `range` and passes every predicate
    /// `covered` does not prove. The flag says whether a word summary
    /// answered the host or the category predicate.
    fn select_word(
        &self,
        block: &Block,
        w: usize,
        range: Range<usize>,
        covered: Covered,
    ) -> (u64, bool) {
        let rows = w * 64..((w + 1) * 64).min(block.len());
        // In-range rows of this word (at least one: the caller's words
        // all overlap `range`).
        let start = range.start.max(rows.start) - rows.start;
        let end = range.end.min(rows.end) - rows.start;
        let mut word = (u64::MAX >> (64 - (end - start))) << start;
        if !covered.filtered {
            match self.filtered {
                Some(true) => word &= block.survivors[w],
                Some(false) => word &= !block.survivors[w],
                None => {}
            }
        }
        if let (Some(mask), false) = (self.severities, covered.severities) {
            if word != 0 {
                word &= column_bits(&block.severity[rows.clone()], |code| {
                    u64::from(mask >> code & 1)
                });
            }
        }
        // A summary's pass bit (0 or 1) spreads over the word by
        // negation: 1 becomes all ones.
        let mut summarised = false;
        if let (Some(lut), false) = (&self.categories, covered.categories) {
            if word != 0 {
                let pass = |cat| Self::category_bit(lut, cat);
                word &= match block.word_category(w) {
                    Some(cat) => {
                        summarised = true;
                        pass(cat).wrapping_neg()
                    }
                    None => column_bits(&block.category[rows.clone()], pass),
                };
            }
        }
        if let (Some(bits), false) = (&self.hosts, covered.hosts) {
            if word != 0 {
                let pass = |host| Self::host_bit(bits, host);
                word &= match block.word_host(w) {
                    Some(host) => {
                        summarised = true;
                        pass(host).wrapping_neg()
                    }
                    None => column_bits(&block.host[rows], pass),
                };
            }
        }
        (word, summarised)
    }
}

/// Per category id, 1 when `filter`'s category, system and class
/// constraints all admit it; `None` when none of them constrains. Ids
/// past the registry can only be admitted by the category bitset
/// alone, as [`ScanFilter::matches`] would.
fn admit_table(filter: &ScanFilter, registry: &CategoryRegistry) -> Option<Vec<u8>> {
    if filter.categories.is_none() && filter.system.is_none() && filter.classes.is_none() {
        return None;
    }
    let named = filter.categories.as_ref().map_or(0, |bits| bits.len() * 64);
    let table = (0..registry.len().max(named))
        .map(|cat| {
            let listed = filter
                .categories
                .as_ref()
                .is_none_or(|bits| bits.get(cat / 64).is_some_and(|w| w >> (cat % 64) & 1 != 0));
            let def =
                (cat < registry.len()).then(|| registry.def(CategoryId::from_index(cat as u16)));
            let system = filter
                .system
                .is_none_or(|s| def.is_some_and(|d| d.system == s));
            let class = filter
                .classes
                .is_none_or(|mask| def.is_some_and(|d| mask >> class_code(d.alert_type) & 1 != 0));
            u8::from(listed && system && class)
        })
        .collect();
    Some(table)
}

/// One selection word from up to 64 values of a column: bit `j` is
/// `pass(column[j])`.
fn column_bits<T: Copy>(column: &[T], pass: impl Fn(T) -> u64) -> u64 {
    column
        .iter()
        .enumerate()
        .fold(0, |word, (j, &v)| word | pass(v) << j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::encode_batch;
    use sclog_types::segment::severity_code;
    use sclog_types::{Severity, SyslogSeverity};

    fn rows(n: usize) -> Vec<StoredAlert> {
        // Times run backwards every third row, so the payload is out
        // of (time, seq) order and ties fall back to seq.
        (0..n)
            .map(|i| StoredAlert {
                time: Timestamp::from_micros(((i * 7) % 23) as i64),
                host: NodeId::from_index((i % 5) as u32),
                category: CategoryId::from_index((i % 3) as u16),
                severity: if i % 2 == 0 {
                    Severity::None
                } else {
                    Severity::Syslog(SyslogSeverity::Error)
                },
                message_index: i,
                filtered: i % 4 == 1,
                seq: i as u64,
            })
            .collect()
    }

    #[test]
    fn decode_sorts_by_time_then_seq_and_keeps_every_field() {
        let records = rows(150);
        let mut payload = Vec::new();
        encode_batch(&records, &mut payload);
        let block = Block::decode(payload.clone(), records.len() as u64).unwrap();
        let mut want = records.clone();
        want.sort_by_key(|r| (r.time, r.seq));
        let got: Vec<StoredAlert> = (0..block.len()).map(|i| block.row(i)).collect();
        assert_eq!(got, want);
        assert!(Block::decode(payload, 149).is_err(), "count is checked");
        let mut shuffled = records.clone();
        shuffled.swap(3, 4);
        assert!(
            Block::from_rows(&shuffled).is_err(),
            "rows out of admission order are refused"
        );
    }

    #[test]
    fn a_block_takes_at_most_32_bytes_per_row() {
        let records = rows(4096);
        let mut payload = Vec::new();
        encode_batch(&records, &mut payload);
        let block = Block::decode(payload, records.len() as u64).unwrap();
        let bytes = block.time.capacity() * 8
            + block.seq.capacity() * 8
            + block.host.capacity() * 4
            + block.category.capacity() * 2
            + block.severity.capacity()
            + block.message_index.capacity() * 8
            + block.survivors.capacity() * 8
            + block.host_words.capacity() * 4
            + block.category_words.capacity() * 2;
        assert!(bytes <= 32 * records.len(), "{bytes} bytes");
    }

    #[test]
    fn selection_equals_the_row_predicate() {
        let records = rows(200);
        let block = Block::from_rows(&records).unwrap();
        let mut registry = CategoryRegistry::new();
        for (name, class) in [
            ("A", sclog_types::AlertType::Hardware),
            ("B", sclog_types::AlertType::Software),
            ("C", sclog_types::AlertType::Hardware),
        ] {
            registry.register(name, sclog_types::SystemId::Liberty, class);
        }
        let filter = ScanFilter {
            from: Some(Timestamp::from_micros(3)),
            to: Some(Timestamp::from_micros(17)),
            hosts: Some(vec![1, 4]),
            classes: Some(1 << class_code(sclog_types::AlertType::Hardware)),
            severities: Some(1 << severity_code(Severity::None)),
            filtered: Some(false),
            ..ScanFilter::all()
        };
        let compiled = CompiledFilter::compile(&filter, &registry);
        let (mut got, mut count) = (Vec::new(), 0);
        compiled.scan_block(&block, Covered::default(), &mut |run| {
            got.extend(run.alerts());
            count += run.count();
        });
        let want: Vec<StoredAlert> = (0..block.len())
            .map(|i| block.row(i))
            .filter(|r| filter.matches(r, &registry))
            .collect();
        assert!(!want.is_empty());
        assert_eq!(got, want);
        assert_eq!(count, want.len() as u64);
    }
}
