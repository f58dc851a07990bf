#!/usr/bin/env sh
# Tier-1 verification, runnable with no network and no registry cache:
# the workspace is hermetic (path-only dependencies, std-only code), so
# --offline must always succeed. Formatting is checked too, so CI and
# local runs agree on the tree's canonical form.
#
# Modes:
#   scripts/verify.sh                the full tier-1 run (includes the
#                                    lint gate and the bench and obs
#                                    smokes)
#   scripts/verify.sh --lint         only the lint gate: source hygiene
#                                    (scripts/tidy.sh), the static
#                                    rule-catalog audit checked against
#                                    the committed AUDIT.json snapshot,
#                                    clippy over every target, and a
#                                    build of perfbench
#   scripts/verify.sh --bench-smoke  only the bench smoke: run the
#                                    tagger and pipeline benches at
#                                    minimal sample counts to prove the
#                                    harness, the prefiltered/brute
#                                    equivalence assertion, and the
#                                    pipeline's in-flight bound still
#                                    hold
#   scripts/verify.sh --obs-smoke    only the observability smoke: run
#                                    a small instrumented study
#                                    (obs_report --check) and validate
#                                    the emitted sclog.obs.v1 JSON —
#                                    well-formed, required stage/
#                                    counter/gauge keys present, span
#                                    coverage >= 95%, gauge peaks
#                                    within their bounds
#   scripts/verify.sh --serve-smoke  only the server smoke: boot sclogd
#                                    against a five-system simulated
#                                    ingest on an ephemeral port, query
#                                    every endpoint (filters,
#                                    aggregations, /obs), check failure
#                                    classification (400/404/405),
#                                    drive it into overload to observe
#                                    503 + Retry-After, and shut down
#                                    cleanly
#   scripts/verify.sh --store-smoke  only the store smoke: sclogd
#                                    --store-smoke drives the on-disk
#                                    segment store end to end — ingest
#                                    through the WAL, survive a torn
#                                    tail and a truncated frame, seal,
#                                    cold-boot from the segments, and
#                                    serve the recovered alerts over a
#                                    real socket
#   scripts/verify.sh --trace-smoke  only the tracing smoke: boot
#                                    sclogd, issue one full-scan query
#                                    and one tightly-filtered query,
#                                    and assert /obs/queries ranks and
#                                    explains them via per-request
#                                    ScanStats while /obs/timeline
#                                    accumulates sampler deltas
#   scripts/verify.sh --model-check  only the model check: rebuild the
#                                    workspace with --cfg sclog_model
#                                    (into its own target dir, so the
#                                    normal build's fingerprints are
#                                    untouched) and exhaustively
#                                    explore every sync protocol's
#                                    schedules via sclog-check,
#                                    including the seeded-mutant
#                                    detection tests; explored-schedule
#                                    counts are printed per harness
set -eu

cd "$(dirname "$0")/.."

# Deny warnings everywhere, and export once so every cargo invocation
# in every mode shares one fingerprint (no rebuild churn between the
# build, the lint gate's `cargo run`, tests, and the bench smoke).
RUSTFLAGS="${RUSTFLAGS:-} -Dwarnings"
export RUSTFLAGS

lint() {
    echo "== tidy (source hygiene)"
    sh scripts/tidy.sh
    echo "== sclog-audit --check AUDIT.json (rule-catalog static analysis)"
    cargo run -q --offline --release -p sclog-audit -- --check AUDIT.json
    echo "== clippy (every target, warnings denied by the exported -Dwarnings)"
    cargo clippy -q --offline --workspace --all-targets
    # perfbench is a workspace of its own, so no step above compiles
    # it; building it here makes an API change that breaks it fail the
    # lint gate instead of the next benchmark run.
    echo "== cargo build perfbench (the end-to-end benchmark, its own workspace)"
    cargo build -q --offline --manifest-path perfbench/Cargo.toml
}

bench_smoke() {
    echo "== bench smoke: tagger_bench (SCLOG_BENCH_SAMPLES=3, SCLOG_BENCH_WARMUP=1)"
    tagger_out=$(SCLOG_BENCH_SAMPLES=3 SCLOG_BENCH_WARMUP=1 \
        cargo bench --offline -p sclog-bench --bench tagger_bench)
    # Throughput floor: the prefiltered serial engine must stay within
    # an order of magnitude of its captured speed (hundreds of
    # ns/element; see BENCH_tagger.json). The generous 25000 ns/elem
    # ceiling only trips on a catastrophic regression — e.g. the
    # prescan or DFA tier silently disabled — not on host jitter. All
    # three groups must report, the alert-heavy Spirit live group with
    # its prescan arm and prescan/confirmation split too.
    echo "$tagger_out" | awk '
        /"name":"tagger_[a-z_]+\/serial_prefiltered"/ {
            if (match($0, /"median_ns_per_element":[0-9.]+/)) {
                v = substr($0, RSTART + 24, RLENGTH - 24) + 0
                seen += 1
                if (v > 25000) {
                    printf "bench-smoke FAILED: %s ns/elem exceeds the 25000 floor\n", v
                    exit 1
                }
            }
        }
        /"name":"tagger_spirit_live\/serial_prefiltered"/ { live = 1 }
        /"name":"tagger_spirit_live\/prescan"/ { prescan = 1 }
        /"record":"prescan_split"/ { psplit = 1 }
        END {
            if (seen < 3) {
                printf "bench-smoke FAILED: expected 3 serial_prefiltered records, saw %d\n", seen
                exit 1
            }
            if (!live || !prescan || !psplit) {
                print "bench-smoke FAILED: tagger_spirit_live records (serial_prefiltered, prescan, prescan_split) missing"
                exit 1
            }
        }'
    echo "   tagger throughput floor OK"
    echo "== bench smoke: pipeline_bench (SCLOG_BENCH_SAMPLES=3, SCLOG_BENCH_WARMUP=1)"
    SCLOG_BENCH_SAMPLES=3 SCLOG_BENCH_WARMUP=1 \
        cargo bench --offline -p sclog-bench --bench pipeline_bench >/dev/null
    echo "== bench smoke: store_bench (SCLOG_BENCH_SAMPLES=3, SCLOG_BENCH_WARMUP=1)"
    store_out=$(SCLOG_BENCH_SAMPLES=3 SCLOG_BENCH_WARMUP=1 \
        cargo bench --offline -p sclog-bench --bench store_bench)
    # Zone-map floor: a one-day one-system window over the 16-day
    # five-system store must prune to at least a 5x speedup over the
    # full scan. Typical ratios are an order of magnitude above the
    # floor, so a trip means pruning stopped working, not host jitter.
    echo "$store_out" | awk '
        /"record":"prune_speedup"/ {
            if (match($0, /"speedup":[0-9.]+/)) {
                v = substr($0, RSTART + 10, RLENGTH - 10) + 0
                seen = 1
                if (v < 5) {
                    printf "bench-smoke FAILED: prune speedup %sx below the 5x floor\n", v
                    exit 1
                }
            }
        }
        END {
            if (!seen) {
                print "bench-smoke FAILED: no prune_speedup record emitted"
                exit 1
            }
        }'
    echo "   store prune-speedup floor OK"
    # Column-kernel floor: count + top-100 on a survivors-only and a
    # one-category filter over warm blocks must run at least 5x faster
    # through the column kernel than through a row-at-a-time
    # ScanFilter::matches loop over the same segments. Typical ratios
    # are well above the floor, so a trip means the kernel fell back to
    # row work (e.g. the selection words or the per-run early stop
    # stopped working), not host jitter.
    echo "$store_out" | awk '
        /"record":"scan_count"/ {
            if (match($0, /"speedup":[0-9.]+/)) {
                v = substr($0, RSTART + 10, RLENGTH - 10) + 0
                seen = 1
                if (v < 5) {
                    printf "bench-smoke FAILED: column-kernel speedup %sx below the 5x floor\n", v
                    exit 1
                }
            }
        }
        END {
            if (!seen) {
                print "bench-smoke FAILED: no scan_count record emitted"
                exit 1
            }
        }'
    echo "   store column-kernel floor OK"
    # Word-summary floor: over segments whose hosts and categories come
    # in runs, a host-set count + top-100 and the per-category count
    # fold must run at least 20x faster through the column kernel than
    # through the row loops. With the summaries it reads ~54x; with
    # every word treated as mixed it read ~7x, so a trip means the
    # kernel stopped answering one-host and one-category words from
    # their summaries, not host jitter.
    echo "$store_out" | awk '
        /"record":"scan_burst"/ {
            if (match($0, /"speedup":[0-9.]+/)) {
                v = substr($0, RSTART + 10, RLENGTH - 10) + 0
                seen = 1
                if (v < 20) {
                    printf "bench-smoke FAILED: word-summary speedup %sx below the 20x floor\n", v
                    exit 1
                }
            }
        }
        END {
            if (!seen) {
                print "bench-smoke FAILED: no scan_burst record emitted"
                exit 1
            }
        }'
    echo "   store word-summary floor OK"
}

obs_smoke() {
    echo "== obs smoke: obs_report --check (instrumented study, report validation)"
    cargo run -q --offline --release -p sclog-bench --bin obs_report -- --check \
        >/dev/null
}

serve_smoke() {
    echo "== serve smoke: sclogd --smoke (endpoints, overload 503, shutdown)"
    cargo run -q --offline --release -p sclogd -- --smoke >/dev/null
}

store_smoke() {
    echo "== store smoke: sclogd --store-smoke (WAL crash recovery, cold boot, queries)"
    cargo run -q --offline --release -p sclogd -- --store-smoke >/dev/null
}

trace_smoke() {
    echo "== trace smoke: sclogd --trace-smoke (slow-query log, scan stats, timeline)"
    cargo run -q --offline --release -p sclogd -- --trace-smoke >/dev/null
}

model_check() {
    echo "== model check: sclog-check under --cfg sclog_model (exhaustive schedule exploration)"
    # Separate target dir: the cfg changes every crate's fingerprint,
    # and sharing target/ would force a full rebuild of the normal
    # configuration on the next plain cargo command.
    RUSTFLAGS="$RUSTFLAGS --cfg sclog_model" CARGO_TARGET_DIR=target/model \
        cargo test -q --offline -p sclog-sync -p sclog-check -- --nocapture
}

if [ "${1-}" = "--bench-smoke" ]; then
    bench_smoke
    echo "verify: OK (bench smoke)"
    exit 0
fi

if [ "${1-}" = "--obs-smoke" ]; then
    obs_smoke
    echo "verify: OK (obs smoke)"
    exit 0
fi

if [ "${1-}" = "--serve-smoke" ]; then
    serve_smoke
    echo "verify: OK (serve smoke)"
    exit 0
fi

if [ "${1-}" = "--store-smoke" ]; then
    store_smoke
    echo "verify: OK (store smoke)"
    exit 0
fi

if [ "${1-}" = "--trace-smoke" ]; then
    trace_smoke
    echo "verify: OK (trace smoke)"
    exit 0
fi

if [ "${1-}" = "--model-check" ]; then
    model_check
    echo "verify: OK (model check)"
    exit 0
fi

if [ "${1-}" = "--lint" ]; then
    lint
    echo "verify: OK (lint)"
    exit 0
fi

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo build --workspace --release --offline (RUSTFLAGS=-Dwarnings)"
cargo build --workspace --release --offline

lint

echo "== cargo test -q --workspace --offline"
cargo test -q --workspace --offline

bench_smoke

obs_smoke

serve_smoke

store_smoke

trace_smoke

model_check

echo "verify: OK"
