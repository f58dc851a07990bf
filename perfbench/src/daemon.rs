//! Hosting `sclogd` in-process exactly as its `main` does, and talking
//! to it over a real loopback socket.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use sclog_core::{IngestConfig, ObsConfig};
use sclog_filter::SpatioTemporalFilter;
use sclog_obs::{Recorder, ThreadRecorder};
use sclog_rules::RuleSet;
use sclog_types::{CategoryRegistry, Severity};
use sclogd::server::{Server, ServerConfig, ServerState};
use sclogd::store::AlertStore;

use crate::inputs::SystemLog;
use crate::probe::Probe;

/// The daemon's default tagging thread count (`sclogd --threads`).
pub const INGEST_THREADS: usize = 2;

/// A store directory under the benchmark's scratch root, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// A fresh, empty directory named `name` under `root`.
    pub fn new(root: &Path, name: &str) -> io::Result<ScratchDir> {
        let dir = root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// What one ingest run did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ingested {
    pub lines: u64,
    pub tagged: u64,
    pub filtered: u64,
}

impl Ingested {
    /// Adds another run's accounting.
    pub fn add(&mut self, other: Ingested) {
        self.lines += other.lines;
        self.tagged += other.tagged;
        self.filtered += other.filtered;
    }
}

/// The daemon's per-system ingest: rules, `ingest_stream` with
/// [`INGEST_THREADS`], then `ingest_with`, joining severities when the
/// parse is 1:1 with the generated messages.
pub fn ingest_one(
    store: &AlertStore,
    log: &SystemLog,
    rec: &ThreadRecorder,
) -> io::Result<Ingested> {
    let mut registry = CategoryRegistry::new();
    let rules = RuleSet::builtin(log.system, &mut registry);
    let filter = SpatioTemporalFilter::paper();
    let config = IngestConfig {
        threads: INGEST_THREADS,
        obs: ObsConfig::on(),
        ..IngestConfig::default()
    };
    let result = sclog_core::pipeline::ingest_stream(
        log.system,
        log.text.as_bytes(),
        &rules,
        &filter,
        config,
    )?;
    let severities: &[Severity] = if result.parse.parsed as usize == log.severities.len() {
        &log.severities
    } else {
        &[]
    };
    store.ingest_with(log.system, &result, &registry, severities, rec)?;
    Ok(Ingested {
        lines: result.parse.total(),
        tagged: result.tagged.len() as u64,
        filtered: result.filtered.len() as u64,
    })
}

/// A booted daemon: state plus its running server.
pub struct Daemon {
    pub state: Arc<ServerState>,
    pub server: Server,
    pub rec: ThreadRecorder,
    /// Summed ingest accounting of the boot.
    pub ingested: Ingested,
    _dir: ScratchDir,
}

impl Daemon {
    /// The socket the daemon listens on.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stops the server and joins its threads; the store is removed.
    pub fn stop(self) {
        self.server.shutdown();
    }
}

/// One boot's steps, `(raw, adjusted)` seconds each, in order: open +
/// state, one ingest per system, `finalize`, `Server::start`.
pub type BootSteps = Vec<(f64, f64)>;

/// Boots the daemon the way `sclogd` does — `AlertStore::open`,
/// `ServerState::new`, per-system ingest, `finalize`, `Server::start`
/// — timing each step as its own block.
pub fn boot(
    dir: ScratchDir,
    base: &[SystemLog],
    probe: &mut Probe,
) -> io::Result<(Daemon, BootSteps)> {
    let mut steps = Vec::new();
    let (opened, t) = probe.time(|| -> io::Result<_> {
        let store = AlertStore::open(&dir.0)?;
        let state = Arc::new(ServerState::new(store, Recorder::new()));
        let rec = state.recorder.thread("ingest");
        Ok((state, rec))
    });
    let (state, rec) = opened?;
    steps.push(t);

    let mut ingested = Ingested::default();
    for log in base {
        let (one, t) = probe.time(|| ingest_one(&state.store, log, &rec));
        ingested.add(one?);
        steps.push(t);
    }
    let (done, t) = probe.time(|| state.store.finalize(&rec));
    done?;
    steps.push(t);

    let (server, t) = probe.time(|| Server::start(Arc::clone(&state), &ServerConfig::default()));
    steps.push(t);
    let daemon = Daemon {
        state,
        server: server?,
        rec,
        ingested,
        _dir: dir,
    };
    Ok((daemon, steps))
}

/// One HTTP reply: status and body.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// `GET target` over a fresh loopback connection (the server closes
/// every connection after one response).
pub fn get(addr: SocketAddr, target: &str) -> Result<Reply, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("timeout: {e}"))?;
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: perfbench\r\n\r\n").as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "non-UTF-8 response".to_owned())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "no header/body separator".to_owned())?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    Ok(Reply {
        status,
        body: body.to_owned(),
    })
}

/// Every unsigned value of `"key":N` in a JSON body, in order.
pub fn json_uints(body: &str, key: &str) -> Vec<u64> {
    let pat = format!("\"{key}\":");
    body.match_indices(&pat)
        .filter_map(|(at, _)| {
            let rest = &body[at + pat.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .collect()
}
