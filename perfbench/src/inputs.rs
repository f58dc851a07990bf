//! Seeded inputs. The daemon only ever receives what is built here:
//! raw log text for its ingest path and request targets for its
//! socket. The same seed gives the same bytes and the same requests.
//!
//! The log corpora themselves are fixed: simgen output is bursty, and
//! a corpus drawn from the run's seed changed the store's size and the
//! widest query's hit count by up to 2× between seeds, which no bound
//! could absorb. Every workload therefore boots on the same base
//! history, and the seed chooses what varies between runs of one
//! workload: the order systems arrive in each ingest pass, the order
//! churn appends its live Spirit slices in, and every request (time
//! windows, host globs, shapes).

use sclog_simgen::{generate, Scale};
use sclog_types::{Severity, SystemId, ALL_SYSTEMS};

/// Base history every workload boots on: ≈1.06 M lines, five systems.
pub const BASE_SCALE: (f64, f64) = (0.004, 0.0005);
/// One live-ingest pass: ≈0.56 M lines, five systems.
pub const PASS_SCALE: (f64, f64) = (0.002, 0.00027);
/// Lines in one churn append (a Spirit slice).
pub const SLICE_LINES: usize = 4500;

/// simgen seed of the base history (the reproduction's default seed).
pub const BASE_SEED: u64 = 20_070_625;
/// simgen seed of the live-ingest corpus.
pub const PASS_SEED: u64 = BASE_SEED + 1;
/// simgen seed of the live Spirit log churn slices are cut from.
pub const LIVE_SEED: u64 = BASE_SEED + 2;

/// splitmix64: the seed expander for every stream below.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for request choices.
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` under `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream)))
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `0..n` in a random order.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// One system's raw log text plus the generator's severities (joined
/// in by the store when the parse is 1:1, as `sclogd` does).
pub struct SystemLog {
    pub system: SystemId,
    pub text: String,
    pub severities: Vec<Severity>,
}

fn system_log(system: SystemId, scale: (f64, f64), seed: u64) -> SystemLog {
    let log = generate(system, Scale::new(scale.0, scale.1), seed);
    let text = log.render();
    SystemLog {
        system,
        severities: log.messages.iter().map(|m| m.severity).collect(),
        text,
    }
}

/// All five systems at `scale`, generated from one simgen seed.
pub fn history(scale: (f64, f64), seed: u64) -> Vec<SystemLog> {
    ALL_SYSTEMS
        .iter()
        .map(|&system| system_log(system, scale, seed))
        .collect()
}

/// Equal-size Spirit slices for churn appends, cut from the live Spirit
/// log. Severities are not joined for slices.
pub fn spirit_slices() -> Vec<SystemLog> {
    let log = system_log(SystemId::Spirit, BASE_SCALE, LIVE_SEED);
    let lines: Vec<&str> = log.text.lines().collect();
    lines
        .chunks_exact(SLICE_LINES)
        .map(|chunk| {
            let mut text = chunk.join("\n");
            text.push('\n');
            SystemLog {
                system: SystemId::Spirit,
                text,
                severities: Vec::new(),
            }
        })
        .collect()
}

/// Which of `n` slices each of `cycles` churn appends takes: every
/// seed appends the same slices (`0, 1, …` cycling through `n`), in a
/// seeded order, so runs of one length grow the store by the same
/// records.
pub fn slice_picks(seed: u64, cycles: usize, n: usize) -> Vec<usize> {
    Rng::new(seed, 0x511CE)
        .permutation(cycles)
        .into_iter()
        .map(|c| c % n)
        .collect()
}

/// The order the five systems arrive in during ingest pass `pass`.
pub fn pass_order(seed: u64, pass: usize) -> Vec<usize> {
    Rng::new(seed, 0x1A6E57 + pass as u64).permutation(ALL_SYSTEMS.len())
}

/// Request shapes of the serve mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Spirit, one hour, one `sn<d>*` host glob: prunes to a partition.
    Narrow,
    /// The largest category, `limit=100`: every hit is materialised.
    Wide,
    /// `filtered=true`: zone maps cannot prune it.
    Scan,
    /// `/categories`, `/hotspots` or `/interarrival` from the cache.
    Aggregate,
    /// The first `/categories` after a churn append: a recompute.
    Refresh,
}

impl Shape {
    /// Name used in metric keys.
    pub fn name(self) -> &'static str {
        match self {
            Shape::Narrow => "narrow",
            Shape::Wide => "wide",
            Shape::Scan => "scan",
            Shape::Aggregate => "aggregate",
            Shape::Refresh => "refresh",
        }
    }
}

/// One request of the mix.
#[derive(Debug, Clone)]
pub struct Request {
    pub shape: Shape,
    /// Path plus query, as sent on the request line.
    pub target: String,
}

impl Request {
    /// The query string after `?` (empty when absent).
    pub fn query(&self) -> &str {
        self.target.split_once('?').map_or("", |(_, q)| q)
    }

    /// The path before `?`.
    pub fn path(&self) -> &str {
        self.target.split_once('?').map_or(&self.target, |(p, _)| p)
    }
}

/// Spirit alerts narrow queries are centred on: `(epoch secs, node
/// number)` of alerts on `sn<n>` hosts, so every narrow query hits.
pub type Anchors = Vec<(i64, u32)>;

/// Query string of the widest `/alerts` request: the largest category
/// (~403 k alerts), every hit materialised and sorted to return 100.
pub const WIDE_QUERY: &str = "category=EXT_CCISS&limit=100";
/// Query string of the full scan: zone maps cannot prune survivors.
pub const SCAN_QUERY: &str = "filtered=true";

/// A narrow query string: Spirit, the hour around an anchor alert,
/// hosts `sn<d>*` for the anchor node's first digit.
pub fn narrow_query((t, node): (i64, u32)) -> String {
    let digit = node
        .to_string()
        .chars()
        .next()
        .expect("node number has a digit");
    format!(
        "system=spirit&from={}&to={}&host=sn{digit}*",
        t - 1800,
        t + 1799
    )
}

/// `m` anchors in a seeded order, one drawn from each of `m` equal
/// strata of `anchors` (which are in time order). Every seed then
/// covers the dense and the sparse stretches of the Spirit history
/// alike: with independent draws, which of the costliest narrow
/// windows a run happened to draw moved `query_p99_ms` by up to 18%
/// between seeds.
pub fn stratified_anchors(rng: &mut Rng, anchors: &Anchors, m: usize) -> Vec<(i64, u32)> {
    let n = anchors.len();
    let picks: Vec<(i64, u32)> = (0..m)
        .map(|k| {
            let lo = k * n / m;
            let hi = ((k + 1) * n / m).max(lo + 1);
            anchors[lo + rng.below(hi - lo)]
        })
        .collect();
    rng.permutation(m).into_iter().map(|i| picks[i]).collect()
}

/// A request stream of the serve mix, `n` requests in a seeded order:
/// 60% narrow, 15% wide, 10% full scan and the rest cached aggregates
/// (`/categories`, `/hotspots`, `/interarrival` in turn). The shares
/// are exact, not drawn, so that every seed sends the same amount of
/// each kind of work.
pub fn mix_stream(seed: u64, stream: u64, n: usize, anchors: &Anchors) -> Vec<Request> {
    let mut rng = Rng::new(seed, 0x5E7E ^ stream);
    let share = |pct: usize| (n * pct + 50) / 100;
    let (wide, scan) = (share(15), share(10));
    let narrow = share(60).min(n - wide - scan);
    let mut requests: Vec<Request> = stratified_anchors(&mut rng, anchors, narrow)
        .into_iter()
        .map(|anchor| Request {
            shape: Shape::Narrow,
            target: format!("/alerts?{}", narrow_query(anchor)),
        })
        .collect();
    requests.extend((0..wide).map(|_| Request {
        shape: Shape::Wide,
        target: format!("/alerts?{WIDE_QUERY}"),
    }));
    requests.extend((0..scan).map(|_| Request {
        shape: Shape::Scan,
        target: format!("/alerts?{SCAN_QUERY}"),
    }));
    requests.extend((0..n - narrow - wide - scan).map(|k| Request {
        shape: Shape::Aggregate,
        target: ["/categories", "/hotspots", "/interarrival"][k % 3].to_owned(),
    }));
    let mut slots: Vec<Option<Request>> = requests.into_iter().map(Some).collect();
    rng.permutation(n)
        .into_iter()
        .map(|i| {
            slots[i]
                .take()
                .expect("a permutation visits each slot once")
        })
        .collect()
}
