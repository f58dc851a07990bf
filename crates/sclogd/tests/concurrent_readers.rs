//! Concurrent-readers property: N client threads hammering a frozen
//! store over real sockets must each see exactly what a serial oracle
//! saw — byte-identical bodies, same statuses — no matter how reads
//! interleave with each other or with the aggregate cache.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use sclog_core::pipeline::ingest_batch;
use sclog_filter::SpatioTemporalFilter;
use sclog_rules::RuleSet;
use sclog_simgen::{generate, Scale};
use sclog_types::{CategoryRegistry, Severity, SystemId};
use sclogd::server::{handle, Server, ServerConfig, ServerState};
use sclogd::store::AlertStore;

/// A store with two systems: a simulated BG/L slice (severities join
/// in from ground truth) and a handcrafted Liberty fixture.
fn frozen_store() -> AlertStore {
    let store = AlertStore::new();
    let filter = SpatioTemporalFilter::paper();

    let log = generate(SystemId::BlueGeneL, Scale::new(0.002, 0.002), 7);
    let text = log.render();
    let mut registry = CategoryRegistry::new();
    let rules = RuleSet::builtin(SystemId::BlueGeneL, &mut registry);
    let result = ingest_batch(SystemId::BlueGeneL, &text, &rules, &filter);
    let severities: Vec<Severity> = if result.parse.parsed as usize == log.messages.len() {
        log.messages.iter().map(|m| m.severity).collect()
    } else {
        Vec::new()
    };
    store.ingest(SystemId::BlueGeneL, &result, &registry, &severities);

    let mut registry = CategoryRegistry::new();
    let rules = RuleSet::builtin(SystemId::Liberty, &mut registry);
    let text = "\
Mar  7 07:30:00 sn373 pbs_mom: task_check, cannot tm_reply to 10 task 1\n\
Mar  7 07:30:01 sn373 pbs_mom: task_check, cannot tm_reply to 11 task 1\n\
Mar  7 09:00:00 dn228 pbs_mom: task_check, cannot tm_reply to 12 task 1\n";
    let result = ingest_batch(SystemId::Liberty, text, &rules, &filter);
    store.ingest(SystemId::Liberty, &result, &registry, &[]);
    store
}

/// The query mix. `/obs` is deliberately absent — its body carries
/// timings and is not expected to be deterministic.
const MIX: &[&str] = &[
    "/healthz",
    "/alerts?limit=50",
    "/alerts?fields=time,host,category&limit=20",
    "/alerts?host=sn*,dn*",
    "/alerts?system=liberty&filtered=true",
    "/alerts?system=bgl&class=hardware",
    "/alerts?severity=-",
    "/alerts?filtered=false&fields=host,filtered",
    "/categories",
    "/interarrival",
    "/hotspots?k=3",
    "/hotspots?k=100",
    "/stats",
];

fn http_get(addr: std::net::SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .ok();
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .expect("write");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read");
    let (head, body) = text.split_once("\r\n\r\n").expect("separator");
    let status: u16 = head[9..12].parse().expect("status");
    (status, body.to_owned())
}

#[test]
fn n_threads_match_the_serial_oracle() {
    let state = Arc::new(ServerState::new(frozen_store(), sclog_obs::Recorder::new()));
    let oracle_rec = state.recorder.thread("oracle");

    // Serial oracle: route each query directly, no sockets, before
    // any concurrency exists.
    let oracle: Vec<(u16, String)> = MIX
        .iter()
        .map(|target| {
            let (path, query) = target.split_once('?').unwrap_or((target, ""));
            let resp = handle(
                &state,
                &oracle_rec,
                &sclogd::http::Request {
                    method: "GET".to_owned(),
                    path: path.to_owned(),
                    query: query.to_owned(),
                },
            );
            assert_eq!(resp.status, 200, "oracle {target} must succeed");
            (resp.status, resp.body)
        })
        .collect();
    assert!(
        oracle.iter().any(|(_, body)| body.contains("\"total\":")),
        "mix must include alert listings"
    );

    let server = Server::start(
        Arc::clone(&state),
        &ServerConfig {
            workers: 4,
            accept_queue: 16,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr();

    const THREADS: usize = 4;
    const ROUNDS: usize = 3;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let oracle = &oracle;
            s.spawn(move || {
                for round in 0..ROUNDS {
                    // Different starting offsets per thread/round so
                    // the interleaving varies.
                    for i in 0..MIX.len() {
                        let idx = (i + t + round) % MIX.len();
                        let (status, body) = http_get(addr, MIX[idx]);
                        let (want_status, want_body) = &oracle[idx];
                        assert_eq!(
                            (status, &body),
                            (*want_status, want_body),
                            "thread {t} round {round}: {} diverged from oracle",
                            MIX[idx]
                        );
                    }
                }
            });
        }
    });

    server.shutdown();
}
