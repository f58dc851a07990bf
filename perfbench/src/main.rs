//! `perfbench`: the end-to-end benchmark for `sclogd`.
//!
//! Hosts the daemon in-process exactly as `sclogd`'s `main` does
//! (`AlertStore::open` → `ServerState::new` → ingest → `finalize` →
//! `Server::start`), drives one seeded workload — writes through
//! `AlertStore::ingest_with`, reads over a real loopback socket — and
//! prints one JSON result line. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload ingest|serve|churn --seed N --seconds N --trace 0|1
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1`, the per-layer metrics of a separate traced run. The
//! line before the result is `{"diagnostics": …}`: the probe series,
//! its reference, each timing's raw value and the per-layer labels.
//! Diagnostics are never compared as metrics.

mod daemon;
mod heap;
mod inputs;
mod layers;
mod probe;
mod run;

use std::path::PathBuf;
use std::process::ExitCode;

use sclogd::query::Query;

use crate::daemon::{boot, dir_bytes, BootSteps, Daemon, ScratchDir};
use crate::inputs::{
    history, spirit_slices, Anchors, BASE_SCALE, BASE_SEED, PASS_SCALE, PASS_SEED,
};
use crate::probe::{median_steps, Probe, Series, REF_MS};
use crate::run::{churn_cycles, ingest_passes, serve_loop, Latencies, Tally};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// In-run boots; `setup_s` sums each boot step's median over them.
const BOOTS: usize = 5;
/// Mix requests after each churn append.
const CHURN_READS: usize = 20;
/// Work bought by one `--seconds`, calibrated on a calm 2-vCPU host.
const PASSES_PER_S: f64 = 0.8;
const SERVE_REQUESTS_PER_S: f64 = 110.0;
const CHURN_CYCLES_PER_S: f64 = 6.0;
/// Serve-mix requests on the ingest workload: p99 needs 1 000 for ten
/// samples beyond it.
const TAIL_READS: usize = 1100;
/// Churn appends (without reads) on the ingest and serve workloads,
/// for `append_p50_ms` and `refresh_p50_ms`.
const TAIL_APPENDS: usize = 48;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Ingest,
    Serve,
    Churn,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Serve => "serve",
            Workload::Churn => "churn",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "ingest" => Workload::Ingest,
                    "serve" => Workload::Serve,
                    "churn" => Workload::Churn,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric: the host-adjusted value compared across runs
/// and, for timings, the raw value kept as a diagnostic.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub raw: Option<f64>,
}

impl Metric {
    pub fn exact(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            raw: None,
        }
    }

    pub fn timed(name: impl Into<String>, unit: &'static str, (raw, value): (f64, f64)) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            raw: Some(raw),
        }
    }
}

/// Everything a run prints.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Extra diagnostics, a rendered JSON object body fragment
    /// (`"key":value,…`) or empty.
    pub extra: String,
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn print_outcome(out: &mut Outcome, probe: &Probe) {
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.tally
                .problems
                .push(format!("metric {} is not finite", m.name));
        }
    }
    let raws: Vec<String> = out
        .metrics
        .iter()
        .filter_map(|m| m.raw.map(|r| format!("\"{}\":{}", m.name, num(r))))
        .collect();
    let probes: Vec<String> = probe.series_ms.iter().map(|&p| num(p)).collect();
    let problems: Vec<String> = out
        .tally
        .problems
        .iter()
        .map(|p| format!("{:?}", p.replace('"', "'")))
        .collect();
    println!(
        "{{\"diagnostics\":{{\"probe_ref_ms\":{},\"probe_ms\":[{}],\"raw\":{{{}}},\"problems\":[{}]{}{}}}}}",
        num(REF_MS),
        probes.join(","),
        raws.join(","),
        problems.join(","),
        if out.extra.is_empty() { "" } else { "," },
        out.extra
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                if m.value.is_finite() {
                    num(m.value)
                } else {
                    "0".to_owned()
                },
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.tally.problems.is_empty(),
        out.tally.attempted.max(1),
        out.tally.failed,
        metrics.join(",")
    );
}

/// Spirit alerts on `sn<n>` hosts in the booted store, in time order,
/// for narrow queries to centre on.
fn anchors(d: &Daemon) -> Anchors {
    let inner = d.state.store.read();
    let q = Query::parse("system=spirit&host=sn*").expect("static query parses");
    let (hits, _) = inner
        .scan(&sclogd::format::scan_filter(&inner, &q), &d.rec)
        .expect("anchor scan of the booted store");
    let mut anchors: Anchors = hits
        .iter()
        .filter_map(|a| {
            let node = inner.host_name(a).strip_prefix("sn")?.parse().ok()?;
            Some((a.time.as_secs(), node))
        })
        .collect();
    anchors.sort_unstable();
    anchors
}

/// Scratch root for stores: inside the working directory (the
/// benchmark's checkout), removed when the run ends.
fn scratch_root() -> std::io::Result<PathBuf> {
    let root = std::env::current_dir()?
        .join(".perfbench-data")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&root)?;
    Ok(root)
}

/// Boots [`BOOTS`] times; returns the last daemon, still serving, with
/// every boot's steps.
fn setup(
    root: &std::path::Path,
    base: &[inputs::SystemLog],
    probe: &mut Probe,
    tally: &mut Tally,
) -> std::io::Result<(Daemon, Vec<BootSteps>)> {
    let mut boots = Vec::with_capacity(BOOTS);
    let mut last = None;
    for i in 0..BOOTS {
        let (d, steps) = boot(ScratchDir::new(root, &format!("boot{i}"))?, base, probe)?;
        let count = d.state.store.read().alert_count();
        tally.check(count == d.ingested.tagged, || {
            format!(
                "boot {i}: alert_count {count} != tagged {}",
                d.ingested.tagged
            )
        });
        boots.push(steps);
        if let Some(prev) = last.replace(d) {
            Daemon::stop(prev);
        }
    }
    Ok((last.expect("BOOTS > 0"), boots))
}

/// `n` units over `(raw, adjusted)` seconds, as `(raw, adjusted)` rates.
fn rate(n: u64, (raw, adj): (f64, f64)) -> (f64, f64) {
    (n as f64 / raw, n as f64 / adj)
}

fn ms((raw, adj): (f64, f64)) -> (f64, f64) {
    (raw * 1e3, adj * 1e3)
}

/// Survivors stored: alerts the filter kept, counted in-process.
fn stored_survivors(d: &Daemon) -> Result<u64, String> {
    let inner = d.state.store.read();
    let q = Query::parse("filtered=true").expect("static query parses");
    inner
        .scan(&sclogd::format::scan_filter(&inner, &q), &d.rec)
        .map(|(hits, _)| hits.len() as u64)
        .map_err(|e| e.to_string())
}

/// The `(raw, adjusted)` seconds of the ingest steps of each boot: the
/// per-system ingests and `finalize`, without open and server start.
fn boot_ingest_steps(boots: &[BootSteps]) -> Vec<Vec<(f64, f64)>> {
    boots.iter().map(|b| b[1..b.len() - 1].to_vec()).collect()
}

fn end_to_end(args: &Args, root: &std::path::Path, probe: &mut Probe) -> std::io::Result<Outcome> {
    let seed = args.seed;
    let secs = args.seconds as f64;
    let mut tally = Tally::default();
    eprintln!("perfbench: generating inputs");
    let base = history(BASE_SCALE, BASE_SEED);
    let slices = spirit_slices();
    let pass = match args.workload {
        Workload::Ingest => history(PASS_SCALE, PASS_SEED),
        _ => Vec::new(),
    };

    eprintln!("perfbench: {BOOTS} boots");
    let (d, boots) = setup(root, &base, probe, &mut tally)?;
    let anchors = anchors(&d);
    let mut lat = Latencies::default();
    // Appends beside the ingest and serve phases record here, so their
    // refreshes stay out of those phases' request latencies and rates.
    let mut tail = Latencies::default();
    let mut append = Series::default();

    eprintln!(
        "perfbench: measuring {} (seed {seed})",
        args.workload.name()
    );
    let (ingest_rate, peak_mib) = match args.workload {
        Workload::Ingest => {
            // Reads and appends first, on the booted store, so that
            // their numbers do not depend on how many passes ran.
            serve_loop(&d, probe, seed, TAIL_READS, &anchors, &mut lat, &mut tally);
            let appended = churn_cycles(
                &d,
                probe,
                seed,
                &slices,
                TAIL_APPENDS,
                0,
                &anchors,
                &mut append,
                &mut tail,
                &mut tally,
            );
            let passes = (secs * PASSES_PER_S).round().max(1.0) as usize;
            let before = d.state.store.read().alert_count();
            let mark = probe.heap_mark();
            let (sum, rows) = ingest_passes(&d, probe, seed, &pass, passes, &mut tally);
            let peak = probe.heap_peak_mib(mark);
            let count = d.state.store.read().alert_count();
            tally.check(count == before + sum.tagged, || {
                format!(
                    "ingest: alert_count {count} != {before} + tagged {}",
                    sum.tagged
                )
            });
            let survivors = stored_survivors(&d);
            let expected = d.ingested.filtered + appended.filtered + sum.filtered;
            tally.check(survivors == Ok(expected), || {
                format!("ingest: stored survivors {survivors:?} != filtered {expected}")
            });
            (rate(sum.lines / passes as u64, median_steps(&rows)), peak)
        }
        Workload::Serve => {
            let requests = (secs * SERVE_REQUESTS_PER_S).round().max(1.0) as usize;
            let mark = probe.heap_mark();
            serve_loop(&d, probe, seed, requests, &anchors, &mut lat, &mut tally);
            let peak = probe.heap_peak_mib(mark);
            churn_cycles(
                &d,
                probe,
                seed,
                &slices,
                TAIL_APPENDS,
                0,
                &anchors,
                &mut append,
                &mut tail,
                &mut tally,
            );
            (
                rate(d.ingested.lines, median_steps(&boot_ingest_steps(&boots))),
                peak,
            )
        }
        Workload::Churn => {
            let cycles = (secs * CHURN_CYCLES_PER_S).round().max(1.0) as usize;
            let mark = probe.heap_mark();
            churn_cycles(
                &d,
                probe,
                seed,
                &slices,
                cycles,
                CHURN_READS,
                &anchors,
                &mut append,
                &mut lat,
                &mut tally,
            );
            let peak = probe.heap_peak_mib(mark);
            (
                rate(d.ingested.lines, median_steps(&boot_ingest_steps(&boots))),
                peak,
            )
        }
    };

    let (count, root_dir) = {
        let inner = d.state.store.read();
        (inner.alert_count(), inner.segs.root().to_path_buf())
    };
    let bytes = dir_bytes(&root_dir)?;
    let refresh = if args.workload == Workload::Churn {
        &lat.refresh
    } else {
        &tail.refresh
    };
    for series in [
        &lat.narrow,
        &lat.wide,
        &lat.scan,
        refresh,
        &lat.rate,
        &append,
    ] {
        tally.check(series.len() > 0, || "a timing has no samples".to_owned());
    }
    tally.check(lat.all.len() >= 1000, || {
        format!("only {} request samples: p99 needs 1000", lat.all.len())
    });

    let metrics = vec![
        Metric::timed("setup_s", "s", median_steps(&boots)),
        Metric::timed("ingest_lines_per_s", "lines/s", ingest_rate),
        Metric::exact("bytes_per_alert", "B", bytes as f64 / count as f64),
        Metric::exact("peak_heap_mb", "MiB", peak_mib),
        Metric::timed("query_per_s", "req/s", lat.rate.quantile(0.5)),
        Metric::timed("narrow_p50_ms", "ms", ms(lat.narrow.quantile(0.5))),
        Metric::timed("wide_p50_ms", "ms", ms(lat.wide.quantile(0.5))),
        Metric::timed("scan_p50_ms", "ms", ms(lat.scan.quantile(0.5))),
        Metric::timed("query_p99_ms", "ms", ms(lat.all.quantile(0.99))),
        Metric::timed("append_p50_ms", "ms", ms(append.quantile(0.5))),
        Metric::timed("refresh_p50_ms", "ms", ms(refresh.quantile(0.5))),
    ];
    let extra = format!(
        "\"samples\":{{\"boots\":{},\"requests\":{},\"narrow\":{},\"wide\":{},\"scan\":{},\"refresh\":{},\"appends\":{},\"rate_blocks\":{}}}",
        boots.len(),
        lat.all.len(),
        lat.narrow.len(),
        lat.wide.len(),
        lat.scan.len(),
        refresh.len(),
        append.len(),
        lat.rate.len()
    );
    d.stop();
    Ok(Outcome {
        metrics,
        tally,
        extra,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut probe = Probe::new();
    let root = match scratch_root() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: cannot create scratch dir: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = if args.trace {
        layers::traced(args.workload, args.seed, &root, &mut probe)
    } else {
        end_to_end(&args, &root, &mut probe)
    };
    let _ = std::fs::remove_dir_all(&root);
    if let Some(parent) = root.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    match outcome {
        Ok(mut out) => {
            print_outcome(&mut out, &probe);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            ExitCode::FAILURE
        }
    }
}
