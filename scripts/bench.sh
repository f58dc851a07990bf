#!/usr/bin/env sh
# Regenerates every BENCH_*.json at the repo root from a release bench
# run. Each bench writes one JSON record per line on stdout (the
# captured file) and human-readable summaries on stderr (passed
# through).
#
# Knobs: SCLOG_BENCH_SAMPLES / SCLOG_BENCH_WARMUP rescale every
# benchmark; the defaults below favor stable medians over speed.
# Comparison pairs (serial vs parallel, batch vs streaming) interleave
# their samples inside the harness, but numbers from a loaded host
# still wander — rerun and compare before trusting a small delta.
#
# BENCH_tagger.json carries three non-timing record types alongside
# the per-arm timings:
#   {"record":"tiers"}            one per group (spirit, liberty,
#                                 spirit_live), from a counted serial
#                                 pass: lines, prefilter_gated,
#                                 rule_checks, vm_eligible,
#                                 dfa_resolved, vm_fallback,
#                                 dfa_cache_evictions, matches — the
#                                 three-tier engine's work breakdown
#                                 (vm_eligible == dfa_resolved +
#                                 vm_fallback always)
#   {"record":"parallel_speedup"} serial/parallel median ratio for the
#                                 prefiltered engine: serial_prefiltered
#                                 (tag_messages) against
#                                 parallel4_prefiltered (4 TagPool
#                                 workers through the pipeline entry,
#                                 tag_filter_stream, no ground truth);
#                                 emitted only when the host has more
#                                 than one CPU, so a single-core ratio
#                                 is never mistaken for a parallelism
#                                 measurement
#   {"record":"prescan_split"}    the Spirit live group's split: the
#                                 tag_line_with pass (serial_prefiltered)
#                                 and the prescan-only pass (prescan:
#                                 AhoCorasick::scan over the catalog's
#                                 required factors) on the same lines,
#                                 each in ns/byte, and prescan_share,
#                                 their ratio; the rest is confirmation
# The brute-force all-rules path is timed serially only
# (serial_brute).
#
# BENCH_pipeline.json's two meta records: meta_ingest pairs the serial
# ingest_batch oracle with ingest_stream (batch/stream medians, their
# ratio, the stream's in-flight peaks and bound, and the whole-log
# message count); meta_study carries study_stream's median and its
# in-flight peak and bound.
#
# BENCH_pipeline.json also carries one observability snapshot: a
# {"record":"obs"} line from an instrumented (untimed) study run, with
#   threads    worker count the run used
#   coverage   fraction of recorded thread time attributed to spans
#   report     the full sclog.obs.v1 document — wall_ns,
#              attributed_ns, coverage, stages[] (name/wall_ns/busy_ns/
#              wait_ns/items/bytes/spans), workers[] (label/wall_ns/
#              busy_ns/wait_ns/items/jobs/utilization), counters[]
#              (name/value), gauges[] (name/current/peak/bound),
#              histograms[] (name/count/sum/buckets[le,count])
# so a timing regression in the timed arms can be read against the
# stage waterfall captured on the same host. Timed arms always run
# with obs off; the snapshot run is separate and never timed.
#
# BENCH_store.json carries six derived records alongside the per-arm
# timings (append throughput, pruned vs full scan, streaming
# consumers, column kernel, bursty blocks, cold boot):
#   {"record":"prune_speedup"}    full-scan / pruned-scan median ratio
#                                 for a one-day one-system window over
#                                 a 16-day five-system store — the
#                                 zone-map payoff (expected well above
#                                 the 5x floor verify.sh enforces)
#   {"record":"cold_boot"}        resimulate / cold-boot median ratio:
#                                 opening sealed segments and scanning
#                                 them versus re-running simulation +
#                                 parse + tag + filter, the boot path
#                                 sclogd --data replaces
#   {"record":"scan_agg"}         materialise+sort+fold / scan_runs fold
#                                 median ratio for a per-category count
#                                 over every record (the aggregate
#                                 recompute's shape)
#   {"record":"scan_limit"}       materialise+sort+take / streaming
#                                 count + top-100 heap on a wide filter
#                                 (a truncated /alerts answer's shape)
#   {"record":"scan_count"}       row-at-a-time ScanFilter::matches loop
#                                 / column kernel median ratio for
#                                 count + top-100 on a survivors-only
#                                 and a one-category filter over warm
#                                 blocks (expected well above the 5x
#                                 floor verify.sh enforces)
#   {"record":"scan_burst"}       row loops / column kernel median
#                                 ratio for a host-set count + top-100
#                                 and the per-category count fold over
#                                 segments whose hosts and categories
#                                 come in runs, plus how many of the
#                                 drill-down's words were answered from
#                                 word summaries (expected well above
#                                 the 20x floor verify.sh enforces)
set -eu

cd "$(dirname "$0")/.."

: "${SCLOG_BENCH_SAMPLES:=20}"
: "${SCLOG_BENCH_WARMUP:=2}"
export SCLOG_BENCH_SAMPLES SCLOG_BENCH_WARMUP

# First line of every BENCH file is a host record, so numbers are never
# compared across machines by accident. thread_cap is the worker count
# the bench actually uses: tagger_bench pins 4 workers, pipeline_bench
# takes min(available cores, 8).
cpus=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
host_record() {
    printf '{"record":"host","cpus":%s,"thread_cap":%s,"samples":%s,"warmup":%s}\n' \
        "$cpus" "$1" "$SCLOG_BENCH_SAMPLES" "$SCLOG_BENCH_WARMUP"
}
pipeline_cap=$cpus
[ "$pipeline_cap" -gt 8 ] && pipeline_cap=8

echo "== tagger_bench -> BENCH_tagger.json (samples=$SCLOG_BENCH_SAMPLES)"
{
    host_record 4
    cargo bench --offline -p sclog-bench --bench tagger_bench
} > BENCH_tagger.json

echo "== pipeline_bench -> BENCH_pipeline.json (samples=$SCLOG_BENCH_SAMPLES)"
{
    host_record "$pipeline_cap"
    cargo bench --offline -p sclog-bench --bench pipeline_bench
} > BENCH_pipeline.json

echo "== store_bench -> BENCH_store.json (samples=$SCLOG_BENCH_SAMPLES)"
{
    host_record 1
    cargo bench --offline -p sclog-bench --bench store_bench
} > BENCH_store.json

echo "bench: wrote BENCH_tagger.json BENCH_pipeline.json BENCH_store.json (host: $cpus cpus)"
