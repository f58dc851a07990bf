#!/usr/bin/env sh
# Source hygiene for the workspace — pure grep/shell, no extra tools.
#
# Enforced invariants:
#   1. Every crate root (src/lib.rs and crates/*/src/lib.rs) carries
#      both `#![forbid(unsafe_code)]` and `#![warn(missing_docs)]`.
#   2. No `dbg!(`, `todo!()`, or `unimplemented!()` in non-test source
#      (test modules and tests/ trees may use whatever they like).
#   3. No registry dependencies anywhere: every [dependencies]-section
#      entry in every Cargo.toml must be a `sclog-*` workspace path
#      crate, keeping the build hermetic and `--offline`-safe.
#   4. No raw `Instant::now()` in the pipeline/rules hot paths
#      (crates/core/src, crates/rules/src): all timing there goes
#      through sclog-obs spans, which are zero-cost when observability
#      is off. Test modules are exempt, as are sclog-obs itself and
#      the bench harness, which own the clock.
#   5. The lazy DFA's state cache stays bounded: every state-interning
#      site in crates/rules/src/dfa.rs must sit behind the max_states
#      guard, so per-pattern memory cannot grow with input.
#   6. The on-disk segment schema has exactly one version pin:
#      SEGMENT_FORMAT_VERSION is defined once, in
#      crates/types/src/segment.rs, and every other use imports it —
#      a second definition is how two crates silently write
#      incompatible files.
#   7. The model-checked sync protocols stay on the sclog-sync facade:
#      channel.rs, pool.rs, recorder.rs, server.rs, sampler.rs,
#      trace.rs and the streaming pipeline (pipeline/mod.rs, ingest.rs)
#      must not name std::sync::{Mutex, Condvar, RwLock}, nor spawn
#      threads through std::thread::{scope, spawn} or a scope's
#      .spawn( method, outside their test modules. A direct std lock or
#      thread there is invisible to the model checker — the schedule
#      exploration silently stops covering it. (std atomics are allowed
#      where documented: single-writer hot-path data, not sync
#      protocol.)
#   8. Every `model::mutation(...)` call site sits directly under a
#      `#[cfg(sclog_model)]` gate, so the seeded bugs cannot compile
#      into a release binary. (The function itself is only *defined*
#      under the cfg, so an ungated call would fail the normal build —
#      this check catches it at tidy time, with a better message.)
#   9. The trace/timeline wire schema has exactly one version pin:
#      TRACE_FORMAT_VERSION is defined once, in
#      crates/types/src/trace.rs, and every other use imports it —
#      mirroring check 6 for the sclog.trace.v1 reports.
#  10. The server's read path streams: non-test code in
#      crates/sclogd/src/{format,aggregate,server}.rs must not call the
#      materialising `.scan(` — `/alerts` and the aggregates read
#      through `scan_with`, so a request's memory is bounded by what it
#      returns, not by how many alerts match. StoreInner::scan (defined
#      in store.rs) stays as the test oracle and benchmark API, and
#      test modules may call it. Likewise non-test code in
#      crates/store/src/store.rs and crates/sclogd/src/{format,
#      aggregate}.rs must not call the row oracle
#      `ScanFilter::matches(record, registry)`: scans select a column
#      at a time through the compiled filter, and a row-at-a-time
#      fallback is what this catches.
#
# Runs standalone or as part of scripts/verify.sh --lint.
set -eu

cd "$(dirname "$0")/.."

fail=0
complain() {
    echo "tidy: $*" >&2
    fail=1
}

# -- 1. lint headers on every crate root ------------------------------
for root in src/lib.rs crates/*/src/lib.rs; do
    grep -q '^#!\[forbid(unsafe_code)\]' "$root" ||
        complain "$root: missing #![forbid(unsafe_code)]"
    grep -q '^#!\[warn(missing_docs)\]' "$root" ||
        complain "$root: missing #![warn(missing_docs)]"
done

# -- 2. no debug/stub macros in non-test code -------------------------
# Scan src/ trees only (tests/ and benches/ are exempt), then drop
# lines inside #[cfg(test)] modules by the cheap-but-effective rule
# that in this codebase test modules live at the end of the file after
# a `mod tests` marker.
for srcdir in src crates/*/src; do
    [ -d "$srcdir" ] || continue
    for f in $(find "$srcdir" -name '*.rs'); do
        # Cut the file at the first `mod tests` so in-file unit tests
        # are not scanned.
        awk '/^ *(#\[cfg\(test\)\]|mod tests)/ { exit } { print }' "$f" |
            grep -n -e 'dbg!(' -e 'todo!()' -e 'unimplemented!()' /dev/stdin |
            while IFS=: read -r line text; do
                echo "tidy: $f:$line: banned macro in non-test code: $text" >&2
            done
        if awk '/^ *(#\[cfg\(test\)\]|mod tests)/ { exit } { print }' "$f" |
            grep -q -e 'dbg!(' -e 'todo!()' -e 'unimplemented!()'; then
            fail=1
        fi
    done
done

# -- 3. hermetic dependency policy ------------------------------------
# In every Cargo.toml, each dependency line must reference an sclog-*
# path crate (either `x.workspace = true` or an inline `{ path = … }`).
for manifest in Cargo.toml crates/*/Cargo.toml; do
    deps=$(awk '
        /^\[/ { in_deps = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies\]/) ; next }
        in_deps && NF && $0 !~ /^#/ { print }
    ' "$manifest")
    if [ -n "$deps" ]; then
        bad=$(printf '%s\n' "$deps" | grep -v '^sclog-' || true)
        if [ -n "$bad" ]; then
            complain "$manifest: non-workspace dependency: $(printf '%s' "$bad" | head -1)"
        fi
        nonpath=$(printf '%s\n' "$deps" |
            grep -v -e '\.workspace *= *true' -e 'path *=' || true)
        if [ -n "$nonpath" ]; then
            complain "$manifest: registry dependency (no path): $(printf '%s' "$nonpath" | head -1)"
        fi
    fi
done

# -- 4. no raw clocks in instrumented hot paths -----------------------
# Pipeline and rules code must time itself through sclog-obs spans so
# a disabled recorder costs nothing; a bare Instant::now() there is a
# timing path the run report cannot see. (Same mod-tests cut as #2;
# sclog-obs itself and the bench harness own the clock and are not
# scanned.)
for srcdir in crates/core/src crates/rules/src; do
    for f in $(find "$srcdir" -name '*.rs'); do
        if awk '/^ *(#\[cfg\(test\)\]|mod tests)/ { exit } { print }' "$f" |
            grep -q 'Instant::now()'; then
            complain "$f: raw Instant::now() in pipeline/rules hot path (use sclog-obs spans)"
        fi
    done
done

# -- 5. DFA state cache is provably bounded ---------------------------
# The lazy determinizer interns subset states on demand; the one thing
# standing between that and unbounded memory on adversarial input is
# the max_states check in make_state. Make sure the guard (and the
# clear-on-overflow eviction next to it) are still present, and that
# states are only ever interned through make_state.
dfa=crates/rules/src/dfa.rs
if [ -f "$dfa" ]; then
    grep -q 'self\.states\.len() >= self\.max_states' "$dfa" ||
        complain "$dfa: max_states overflow guard missing from the state-interning path"
    grep -q 'self\.evictions += 1' "$dfa" ||
        complain "$dfa: cache overflow no longer counts an eviction"
    pushes=$(awk '/^ *(#\[cfg\(test\)\]|mod tests)/ { exit } /self\.states\.push/ { n += 1 } END { print n + 0 }' "$dfa")
    if [ "$pushes" -ne 1 ]; then
        complain "$dfa: expected exactly 1 state-interning site (found $pushes); new sites must respect max_states"
    fi
else
    complain "$dfa: missing (the DFA tier is load-bearing for the tag hot path)"
fi

# -- 6. one segment-format version pin --------------------------------
# Every writer and reader of the on-disk store must share the one
# SEGMENT_FORMAT_VERSION constant in crates/types/src/segment.rs. A
# const defined anywhere else can drift from it and corrupt stores
# that mix the two writers.
seg=crates/types/src/segment.rs
if [ -f "$seg" ]; then
    grep -q '^pub const SEGMENT_FORMAT_VERSION' "$seg" ||
        complain "$seg: SEGMENT_FORMAT_VERSION definition missing"
    extra=$(grep -rn 'const SEGMENT_FORMAT_VERSION' src crates --include='*.rs' |
        grep -v '^crates/types/src/segment\.rs:' || true)
    if [ -n "$extra" ]; then
        complain "duplicate SEGMENT_FORMAT_VERSION definition: $(printf '%s' "$extra" | head -1)"
    fi
else
    complain "$seg: missing (the segment schema is load-bearing for the on-disk store)"
fi

# -- 7. sync protocols ride the facade --------------------------------
# The model-checked protocol files must take their locks and threads
# from sclog-sync, never std directly — a std lock or thread is a
# blind spot the checker cannot schedule around. Same mod-tests cut as
# #2 (tests run natively and may use std).
for f in crates/core/src/pipeline/channel.rs crates/rules/src/pool.rs \
    crates/obs/src/recorder.rs crates/sclogd/src/server.rs \
    crates/sclogd/src/sampler.rs crates/sclogd/src/trace.rs \
    crates/core/src/pipeline/mod.rs crates/core/src/pipeline/ingest.rs; do
    [ -f "$f" ] || { complain "$f: missing (model-checked protocol file)"; continue; }
    body=$(awk '/^ *(#\[cfg\(test\)\]|mod tests)/ { exit } { print NR ":" $0 }' "$f")
    hit=$(printf '%s\n' "$body" | grep -E 'std::sync.*\b(Mutex|Condvar|RwLock)\b' || true)
    if [ -n "$hit" ]; then
        complain "$f: direct std::sync lock in a model-checked protocol (use sclog_sync): $(printf '%s' "$hit" | head -1)"
    fi
    hit=$(printf '%s\n' "$body" | grep -E 'std::thread::(scope|spawn)|\.spawn\(' |
        grep -vE '^[0-9]+: *//' || true)
    if [ -n "$hit" ]; then
        complain "$f: std thread spawn in a model-checked protocol (use sclog_sync::thread): $(printf '%s' "$hit" | head -1)"
    fi
done

# -- 8. every seeded-mutant call site is cfg-gated ---------------------
# model::mutation() only exists under --cfg sclog_model; each call must
# carry the cfg within the three preceding lines (idiomatically, the
# attribute sits directly on the `if` statement), so no mutation flag
# can survive into a release build.
for f in $(find src crates/*/src -name '*.rs' 2>/dev/null); do
    bad=$(awk '
        {
            buf[NR % 4] = $0
            if ($0 ~ /model::mutation\(/ && $0 !~ /^ *\/\//) {
                ok = 0
                for (i = 0; i < 4; i++) if (buf[i] ~ /cfg\(sclog_model\)/) ok = 1
                if (!ok) { printf "%d:%s\n", NR, $0 }
            }
        }' "$f")
    if [ -n "$bad" ]; then
        complain "$f: model::mutation() call without #[cfg(sclog_model)] nearby: $(printf '%s' "$bad" | head -1)"
    fi
done

# -- 9. one trace-format version pin ----------------------------------
# Every producer of sclog.trace.v1 reports must share the one
# TRACE_FORMAT_VERSION constant in crates/types/src/trace.rs, exactly
# as check 6 pins the segment schema.
tracev=crates/types/src/trace.rs
if [ -f "$tracev" ]; then
    grep -q '^pub const TRACE_FORMAT_VERSION' "$tracev" ||
        complain "$tracev: TRACE_FORMAT_VERSION definition missing"
    extra=$(grep -rn 'const TRACE_FORMAT_VERSION' src crates --include='*.rs' |
        grep -v '^crates/types/src/trace\.rs:' || true)
    if [ -n "$extra" ]; then
        complain "duplicate TRACE_FORMAT_VERSION definition: $(printf '%s' "$extra" | head -1)"
    fi
else
    complain "$tracev: missing (the trace schema is load-bearing for /obs/queries and /obs/timeline)"
fi

# -- 10. no materialising scans on the server's read path -------------
# `.scan(` collects and sorts every hit; the request handlers must
# stream through `.scan_with(` instead. Same mod-tests cut as #2, and
# comment lines are ignored.
for f in crates/sclogd/src/format.rs crates/sclogd/src/aggregate.rs \
    crates/sclogd/src/server.rs; do
    [ -f "$f" ] || { complain "$f: missing (sclogd read path)"; continue; }
    hit=$(awk '/^ *(#\[cfg\(test\)\]|mod tests)/ { exit } { print NR ":" $0 }' "$f" |
        grep -E '\.scan\(' | grep -vE '^[0-9]+: *//' || true)
    if [ -n "$hit" ]; then
        complain "$f: materialising .scan( on the server read path (stream with scan_with): $(printf '%s' "$hit" | head -1)"
    fi
done

# The row oracle is the only two-argument `.matches(` in these files
# (host globs take one), so a call with a comma inside the parentheses,
# or the path form, is the oracle.
for f in crates/store/src/store.rs crates/sclogd/src/format.rs \
    crates/sclogd/src/aggregate.rs; do
    [ -f "$f" ] || { complain "$f: missing (column scan path)"; continue; }
    hit=$(awk '/^ *(#\[cfg\(test\)\]|mod tests)/ { exit } { print NR ":" $0 }' "$f" |
        grep -E '\.matches\([^)]*,|ScanFilter::matches' | grep -vE '^[0-9]+: *//' || true)
    if [ -n "$hit" ]; then
        complain "$f: row oracle ScanFilter::matches on the scan path (select through the compiled filter): $(printf '%s' "$hit" | head -1)"
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "tidy: FAILED" >&2
    exit 1
fi
echo "tidy: OK"
