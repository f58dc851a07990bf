//! Host-speed probe and host-adjusted sample series.
//!
//! The benchmark shares a small virtual host whose speed drops by
//! 40–60% for seconds at a time with no steal time recorded. Raw
//! wall-clock medians of identical code then differ by 15–25% between
//! runs. Every timed block is therefore followed by two runs of a
//! fixed, code-independent kernel (the probe), and each raw sample in
//! the block is scaled by `REF_MS / median(probes)`: when the host is
//! slow the probe is slow by about the same factor and the sample
//! shrinks back to what a calm host would have measured.
//!
//! The kernel runs on both of the host's CPUs at once, one copy per
//! CPU, and a reading is the mean of the two. A single copy sees only
//! the CPU it lands on, while the daemon keeps both busy: over five
//! runs of identical code, the two-CPU probe cut the run-to-run spread
//! of boot time from 4.3% to 2.7% and of serve latency from 7.2% to
//! 3.4%, where one copy had managed 4.3% and 7.2% (raw: 4.6%, 6.7%).
//!
//! The probe touches no `sclog` code and allocates nothing: its
//! buffers are reserved once and its helper thread lives as long as
//! the probe, so a change to the program under test cannot change it.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::heap;

/// Probe time on a calm host, in milliseconds (the 10th percentile of
/// 1 500 readings on the reference host). Frozen: a run never refits
/// it, so adjusted numbers from different runs and commits share one
/// scale.
pub const REF_MS: f64 = 5.7;

/// Elements the probe sorts.
const PROBE_LEN: usize = 1 << 18;

/// One kernel run: fill from a fixed splitmix sequence, sort, fold.
/// Returns milliseconds.
fn kernel(buf: &mut Vec<u64>) -> f64 {
    let start = Instant::now();
    buf.clear();
    let mut z = 0x9E37_79B9_7F4A_7C15u64;
    buf.extend((0..PROBE_LEN).map(|_| {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }));
    black_box(&mut *buf).sort_unstable();
    let fold = buf
        .iter()
        .step_by(7)
        .fold(0u64, |acc, &x| acc.rotate_left(5) ^ x);
    black_box(fold);
    start.elapsed().as_secs_f64() * 1e3
}

/// The probe: the calling thread and one helper run the kernel
/// together, released by one barrier and collected by another.
pub struct Probe {
    buf: Vec<u64>,
    start: Arc<Barrier>,
    done: Arc<Barrier>,
    /// The helper's last reading, as `f64` bits.
    helper_ms: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    helper: Option<JoinHandle<()>>,
    /// Every probe reading, in milliseconds.
    pub series_ms: Vec<f64>,
    /// Peak live heap of each block, in bytes.
    block_peaks: Vec<usize>,
}

impl Probe {
    /// Reserves both buffers and starts the helper thread.
    pub fn new() -> Self {
        let start = Arc::new(Barrier::new(2));
        let done = Arc::new(Barrier::new(2));
        let helper_ms = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let helper = {
            let (start, done, helper_ms, stop) =
                (start.clone(), done.clone(), helper_ms.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut buf = Vec::with_capacity(PROBE_LEN);
                loop {
                    start.wait();
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    helper_ms.store(kernel(&mut buf).to_bits(), Ordering::SeqCst);
                    done.wait();
                }
            })
        };
        Probe {
            buf: Vec::with_capacity(PROBE_LEN),
            start,
            done,
            helper_ms,
            stop,
            helper: Some(helper),
            series_ms: Vec::new(),
            block_peaks: Vec::new(),
        }
    }

    /// One reading: the kernel on both CPUs at once, mean of the two.
    fn once(&mut self) -> f64 {
        self.start.wait();
        let mine = kernel(&mut self.buf);
        self.done.wait();
        (mine + f64::from_bits(self.helper_ms.load(Ordering::SeqCst))) / 2.0
    }

    /// Ends a measurement block: runs two probes and returns the factor
    /// that scales the block's raw samples to the reference host speed.
    pub fn end_block(&mut self) -> f64 {
        self.block_peaks.push(heap::peak());
        let a = self.once();
        let b = self.once();
        self.series_ms.push(a);
        self.series_ms.push(b);
        heap::reset_peak();
        REF_MS / ((a + b) / 2.0)
    }

    /// Times `f` as one block of its own: returns its result and its
    /// `(raw, adjusted)` seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, (f64, f64)) {
        let t = Instant::now();
        let out = f();
        let raw = t.elapsed().as_secs_f64();
        (out, (raw, raw * self.end_block()))
    }

    /// Starts a phase: returns a mark for [`Probe::heap_peak_mib`].
    pub fn heap_mark(&mut self) -> (usize, usize) {
        (self.block_peaks.len(), heap::reset_peak())
    }

    /// The phase's peak live heap above its starting level, in MiB:
    /// the 90th percentile of its blocks' peaks. A high quantile, not
    /// the maximum, so that no single block sets the metric.
    pub fn heap_peak_mib(&self, (first, start): (usize, usize)) -> f64 {
        let peaks: Vec<f64> = self.block_peaks[first..]
            .iter()
            .map(|&p| p.saturating_sub(start) as f64 / (1024.0 * 1024.0))
            .collect();
        quantile(&peaks, 0.9)
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.start.wait();
        if let Some(helper) = self.helper.take() {
            let _ = helper.join();
        }
    }
}

/// Samples of one timing, raw and host-adjusted, filled block by block.
#[derive(Default, Clone)]
pub struct Series {
    /// Unadjusted samples, as measured.
    pub raw: Vec<f64>,
    /// The same samples scaled by their block's probe factor.
    pub adj: Vec<f64>,
    pending: Vec<f64>,
}

impl Series {
    /// Records a raw sample in the current block.
    pub fn push(&mut self, raw: f64) {
        self.pending.push(raw);
    }

    /// Scales the current block's samples by `factor` and files them.
    pub fn close(&mut self, factor: f64) {
        for raw in self.pending.drain(..) {
            self.raw.push(raw);
            self.adj.push(raw * factor);
        }
    }

    /// Number of filed samples.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Sum of filed samples, `(raw, adjusted)`.
    pub fn sum(&self) -> (f64, f64) {
        (self.raw.iter().sum(), self.adj.iter().sum())
    }

    /// Quantile `q` of the filed samples, `(raw, adjusted)`.
    pub fn quantile(&self, q: f64) -> (f64, f64) {
        (quantile(&self.raw, q), quantile(&self.adj, q))
    }

    /// Files one already-adjusted `(raw, adjusted)` sample.
    pub fn file(&mut self, (raw, adj): (f64, f64)) {
        self.raw.push(raw);
        self.adj.push(adj);
    }
}

/// Sum over steps of each step's median across repetitions:
/// `reps[r][s]` is step `s` of repetition `r`, `(raw, adjusted)`. A
/// stall in one repetition's step is voted out by the others, where a
/// median of whole-repetition totals would keep it whenever two
/// repetitions each had one.
pub fn median_steps(reps: &[Vec<(f64, f64)>]) -> (f64, f64) {
    let steps = reps.first().map_or(0, Vec::len);
    (0..steps)
        .map(|s| {
            let raw: Vec<f64> = reps.iter().map(|r| r[s].0).collect();
            let adj: Vec<f64> = reps.iter().map(|r| r[s].1).collect();
            (quantile(&raw, 0.5), quantile(&adj, 0.5))
        })
        .fold((0.0, 0.0), |(a, b), (r, j)| (a + r, b + j))
}

/// Linear-interpolated quantile of unsorted values; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
