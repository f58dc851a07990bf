//! The benchmark's counts repeat exactly for one seed and change with
//! the seed. Runs the built benchmark binary on the churn workload
//! (short runs), which exercises every layer: boot ingest, appends,
//! scans and aggregates.

use std::collections::BTreeMap;
use std::process::Command;

/// Runs the benchmark and returns the result line's metric values.
fn metrics(seed: u64, trace: u8) -> BTreeMap<String, f64> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "churn", "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "benchmark failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let body = last
        .split_once("\"metrics\":{")
        .expect("result has metrics")
        .1;
    // Entries look like "name":{"value":V,"unit":"U"}.
    body.split("},")
        .filter_map(|entry| {
            let (name, rest) = entry.trim_start_matches('"').split_once("\":{\"value\":")?;
            let value = rest.split(',').next()?.parse().ok()?;
            Some((name.to_owned(), value))
        })
        .collect()
}

#[test]
fn counts_repeat_for_a_seed_and_change_with_it() {
    let exact_traced = [
        "store.segments",
        "rules.gated_ratio",
        "filter.kept_ratio",
        "store.rows_decoded_per_hit.narrow",
        "store.rows_decoded_per_hit.wide",
        "store.rows_decoded_per_hit.scan",
        "parse.lines",
        "rules.vm_execs",
        "store.bytes_written",
    ];
    let (t1, t2) = (metrics(7, 1), metrics(7, 1));
    for name in exact_traced {
        assert!(t1.contains_key(name), "traced run lacks {name}");
        assert_eq!(
            t1[name], t2[name],
            "{name} differs between runs of one seed"
        );
    }

    let (e1, e2) = (metrics(7, 0), metrics(7, 0));
    assert_eq!(e1["bytes_per_alert"], e2["bytes_per_alert"]);
    let (h1, h2) = (e1["peak_heap_mb"], e2["peak_heap_mb"]);
    assert!(
        (h1 - h2).abs() <= 0.001 * h1.max(h2),
        "peak_heap_mb {h1} vs {h2} differs by more than 0.1%"
    );

    let other = metrics(8, 1);
    assert!(
        [
            "rules.vm_execs",
            "store.bytes_written",
            "store.rows_decoded_per_hit.narrow"
        ]
        .iter()
        .any(|name| t1[*name] != other[*name]),
        "another seed must change the inputs"
    );
}
