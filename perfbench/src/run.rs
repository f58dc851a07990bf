//! The end-to-end workloads, measured with tracing off.
//!
//! Work is fixed per run, not bounded by the clock: `--seconds` buys a
//! number of passes, requests or cycles calibrated to take about that
//! long on a calm 2-vCPU host. A faster commit therefore does the same
//! work on the same store as its parent — with a clock bound it would
//! do more, grow the store further and slow its own later requests.

use std::time::Instant;

use sclogd::format::scan_filter;
use sclogd::query::Query;

use crate::daemon::{get, ingest_one, json_uints, Daemon, Ingested};
use crate::inputs::{mix_stream, pass_order, slice_picks, Anchors, Request, Shape, SystemLog};
use crate::probe::{Probe, Series};

/// Serve sends per block.
const SLICE: usize = 16;
/// Times the serve loop sends its whole request stream.
const SENDS: usize = 2;
/// One in this many `/alerts` replies is re-counted in-process.
const CHECK_EVERY: usize = 32;

/// Latency samples (seconds) by request shape, plus every request.
#[derive(Default)]
pub struct Latencies {
    pub narrow: Series,
    pub wide: Series,
    pub scan: Series,
    pub aggregate: Series,
    pub refresh: Series,
    pub all: Series,
    /// Completed requests per second, one sample per block.
    pub rate: Series,
}

impl Latencies {
    fn push(&mut self, shape: Shape, secs: f64) {
        match shape {
            Shape::Narrow => self.narrow.push(secs),
            Shape::Wide => self.wide.push(secs),
            Shape::Scan => self.scan.push(secs),
            Shape::Aggregate => self.aggregate.push(secs),
            Shape::Refresh => self.refresh.push(secs),
        }
        self.all.push(secs);
    }

    /// Files one already-adjusted `(raw, adjusted)` sample.
    fn file(&mut self, shape: Shape, sample: (f64, f64)) {
        match shape {
            Shape::Narrow => self.narrow.file(sample),
            Shape::Wide => self.wide.file(sample),
            Shape::Scan => self.scan.file(sample),
            Shape::Aggregate => self.aggregate.file(sample),
            Shape::Refresh => self.refresh.file(sample),
        }
        self.all.file(sample);
    }

    /// Closes a block whose requests were served in `busy` raw seconds.
    fn close(&mut self, factor: f64, requests: usize, busy: f64) {
        for s in [
            &mut self.narrow,
            &mut self.wide,
            &mut self.scan,
            &mut self.aggregate,
            &mut self.refresh,
            &mut self.all,
        ] {
            s.close(factor);
        }
        self.file_rate(factor, requests, busy);
    }

    /// Files the rate of a block of `requests` served in `busy` raw
    /// seconds.
    fn file_rate(&mut self, factor: f64, requests: usize, busy: f64) {
        if requests > 0 && busy > 0.0 {
            let rate = requests as f64 / busy;
            self.rate.file((rate, rate / factor));
        }
    }
}

/// Operation accounting and output checks for one run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; any entry makes the run incorrect.
    pub problems: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Re-counts an `/alerts` request in-process and compares it with the
/// `total` the socket returned.
fn verify_total(d: &Daemon, query: &str, total: u64, tally: &mut Tally) {
    let inner = d.state.store.read();
    let expected = Query::parse(query)
        .map_err(|e| e.to_string())
        .and_then(|q| {
            inner
                .scan(&scan_filter(&inner, &q), &d.rec)
                .map_err(|e| e.to_string())
        })
        .map(|(hits, _)| hits.len() as u64);
    tally.check(expected.as_ref() == Ok(&total), || {
        format!("/alerts?{query}: socket total {total}, in-process {expected:?}")
    });
}

/// Sends one request, returning its latency in seconds and the body.
/// A non-200 reply or a refused connection counts as a failed
/// operation and yields no latency sample.
fn send(d: &Daemon, req: &Request, tally: &mut Tally) -> Option<(f64, String)> {
    tally.attempted += 1;
    let t = Instant::now();
    let reply = get(d.addr(), &req.target);
    let dt = t.elapsed().as_secs_f64();
    match reply {
        Ok(r) if r.status == 200 => Some((dt, r.body)),
        _ => {
            tally.failed += 1;
            None
        }
    }
}

/// Keeps the `total` of one in [`CHECK_EVERY`] `/alerts` replies for
/// an in-process recount.
fn keep_for_check(req: &Request, index: usize, body: &str, seen: &mut Vec<(String, u64)>) {
    if req.path() == "/alerts" && index.is_multiple_of(CHECK_EVERY) {
        let total = json_uints(body, "total").first().copied();
        seen.push((req.query().to_owned(), total.unwrap_or(u64::MAX)));
    }
}

/// A closed loop of one caller sending its seeded stream of `requests`
/// mix requests, the whole stream [`SENDS`] times over, after an
/// untimed warm-up that sends each distinct endpoint once (so the
/// run's first aggregate recomputes and cold caches stay out of the
/// samples). A request's sample is its fastest send, host-adjusted.
/// Blocks are slices of [`SLICE`] sends; a block's rate is its
/// completed sends over its wall time.
///
/// One caller, not one per CPU: with two callers on the 2-vCPU
/// reference host every request also queued behind the other caller's.
/// Fastest of two sends, because the host itself delays a few percent
/// of loopback round trips by milliseconds (thread wake-ups), and in
/// noisy hours that host tail, not the daemon, set `query_p99_ms`.
pub fn serve_loop(
    d: &Daemon,
    probe: &mut Probe,
    seed: u64,
    requests: usize,
    anchors: &Anchors,
    lat: &mut Latencies,
    tally: &mut Tally,
) {
    let stream = mix_stream(seed, 0, requests, anchors);
    let mut warm: Vec<&Request> = Vec::new();
    for req in &stream {
        if !warm
            .iter()
            .any(|w| w.path() == req.path() && w.shape == req.shape)
        {
            warm.push(req);
        }
    }
    for req in warm {
        send(d, req, tally);
    }
    let mut best: Vec<Option<(f64, f64)>> = vec![None; stream.len()];
    let mut to_check = Vec::new();
    for pass in 0..SENDS {
        for (b, block) in stream.chunks(SLICE).enumerate() {
            let mut done = Vec::with_capacity(block.len());
            let t = Instant::now();
            for (i, req) in block.iter().enumerate() {
                if let Some((dt, body)) = send(d, req, tally) {
                    done.push((b * SLICE + i, dt));
                    if pass == 0 {
                        keep_for_check(req, b * SLICE + i, &body, &mut to_check);
                    }
                }
            }
            let wall = t.elapsed().as_secs_f64();
            let factor = probe.end_block();
            lat.file_rate(factor, done.len(), wall);
            for (at, raw) in done {
                let adj = raw * factor;
                if best[at].is_none_or(|(_, a)| adj < a) {
                    best[at] = Some((raw, adj));
                }
            }
        }
    }
    for (req, sample) in stream.iter().zip(best) {
        if let Some(sample) = sample {
            lat.file(req.shape, sample);
        }
    }
    for (query, total) in to_check {
        verify_total(d, &query, total, tally);
    }
}

/// Churn cycles: append one seeded pick of the Spirit slices
/// (`ingest_stream` + `ingest_with`), `GET /categories` (a recompute,
/// since the append bumped the store version), then `reads` requests
/// of the serve mix. One cycle is one block; its rate is its requests
/// over the time they took. Returns the appends' ingest accounting.
#[allow(clippy::too_many_arguments)]
pub fn churn_cycles(
    d: &Daemon,
    probe: &mut Probe,
    seed: u64,
    slices: &[SystemLog],
    cycles: usize,
    reads: usize,
    anchors: &Anchors,
    append: &mut Series,
    lat: &mut Latencies,
    tally: &mut Tally,
) -> Ingested {
    let mut sum = Ingested::default();
    let stream = mix_stream(seed, 0xC4, cycles * reads, anchors);
    let refresh = Request {
        shape: Shape::Refresh,
        target: "/categories".to_owned(),
    };
    for (c, pick) in slice_picks(seed, cycles, slices.len())
        .into_iter()
        .enumerate()
    {
        tally.attempted += 1;
        let t = Instant::now();
        let appended = ingest_one(&d.state.store, &slices[pick], &d.rec);
        append.push(t.elapsed().as_secs_f64());
        match appended {
            Ok(one) => sum.add(one),
            Err(e) => {
                tally.failed += 1;
                tally.problems.push(format!("churn append failed: {e}"));
            }
        }
        let mut busy = 0.0;
        let mut completed = 0;
        let categories = send(d, &refresh, tally).map(|(dt, body)| {
            lat.push(Shape::Refresh, dt);
            busy += dt;
            completed += 1;
            body
        });
        let mut seen = Vec::new();
        for (i, req) in stream.iter().enumerate().skip(c * reads).take(reads) {
            if let Some((dt, body)) = send(d, req, tally) {
                lat.push(req.shape, dt);
                busy += dt;
                completed += 1;
                keep_for_check(req, i, &body, &mut seen);
            }
        }
        let factor = probe.end_block();
        append.close(factor);
        lat.close(factor, completed, busy);

        let count = d.state.store.read().alert_count();
        if let Some(body) = categories {
            let tagged: u64 = json_uints(&body, "tagged").iter().sum();
            tally.check(tagged == count, || {
                format!("cycle {c}: /categories tagged total {tagged} != alert_count {count}")
            });
        }
        for (query, total) in seen {
            verify_total(d, &query, total, tally);
        }
    }
    sum
}

/// Live ingest passes: every system of `pass`, in a seeded order per
/// pass, through `ingest_stream` and `ingest_with` (one block each),
/// then `finalize` (one block). Returns the ingest accounting and,
/// per pass, the `(raw, adjusted)` seconds of each system (in `pass`
/// order) followed by `finalize`.
pub fn ingest_passes(
    d: &Daemon,
    probe: &mut Probe,
    seed: u64,
    pass: &[SystemLog],
    passes: usize,
    tally: &mut Tally,
) -> (Ingested, Vec<Vec<(f64, f64)>>) {
    let mut sum = Ingested::default();
    let mut rows = Vec::with_capacity(passes);
    for p in 0..passes {
        let mut row = vec![(0.0, 0.0); pass.len() + 1];
        for i in pass_order(seed, p) {
            tally.attempted += 1;
            let (one, t) = probe.time(|| ingest_one(&d.state.store, &pass[i], &d.rec));
            row[i] = t;
            match one {
                Ok(one) => sum.add(one),
                Err(e) => {
                    tally.failed += 1;
                    tally
                        .problems
                        .push(format!("ingest of {} failed: {e}", pass[i].system));
                }
            }
        }
        tally.attempted += 1;
        let (done, t) = probe.time(|| d.state.store.finalize(&d.rec));
        row[pass.len()] = t;
        if let Err(e) = done {
            tally.failed += 1;
            tally.problems.push(format!("finalize failed: {e}"));
        }
        rows.push(row);
    }
    (sum, rows)
}
