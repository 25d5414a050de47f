//! End-to-end tests of the `zng-cli` binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_zng-cli"))
}

#[test]
fn list_shows_platforms_and_workloads() {
    let out = cli().arg("list").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "hetero",
        "hybridgpu",
        "optane",
        "zng",
        "ideal",
        "betw",
        "gram",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
}

#[test]
fn run_prints_metrics_table() {
    let out = cli()
        .args([
            "run",
            "-p",
            "ideal",
            "-w",
            "betw",
            "--warps",
            "8",
            "--ops",
            "40",
            "--footprint",
            "128",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ipc"));
    assert!(text.contains("Ideal"));
}

#[test]
fn run_json_is_parseable() {
    let out = cli()
        .args([
            "run",
            "-p",
            "zng",
            "-w",
            "betw",
            "--warps",
            "8",
            "--ops",
            "40",
            "--footprint",
            "128",
            "--json",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let v = zng_json::Value::parse(&text).expect("valid JSON RunResult");
    assert!(v["ipc"].as_f64().unwrap() > 0.0);
    assert_eq!(v["platform"], "Zng");
}

#[test]
fn traces_roundtrip_through_disk() {
    let path = std::env::temp_dir().join("zng_cli_traces_test.json");
    let out = cli()
        .args([
            "traces",
            "-w",
            "bfs1",
            "--out",
            path.to_str().unwrap(),
            "--warps",
            "4",
            "--ops",
            "20",
            "--footprint",
            "64",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bundle = zng_workloads::TraceBundle::load(&path).expect("load");
    assert_eq!(bundle.workload, "bfs1");
    assert_eq!(bundle.traces.len(), 4);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn qos_flags_add_overload_metrics() {
    let out = cli()
        .args([
            "run",
            "-p",
            "zng",
            "-w",
            "betw,back",
            "--warps",
            "8",
            "--ops",
            "40",
            "--footprint",
            "128",
            "--qos",
            "--queue-depth",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("qos_rejected"), "{text}");
    assert!(text.contains("qos_read_p99"), "{text}");
    assert!(text.contains("per_app_read_latency"), "{text}");
}

#[test]
fn default_run_has_no_qos_rows() {
    let out = cli()
        .args([
            "run",
            "-p",
            "ideal",
            "-w",
            "betw",
            "--warps",
            "4",
            "--ops",
            "20",
            "--footprint",
            "64",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("qos"), "default output must be QoS-free");
}

#[test]
fn unknown_flags_name_the_flag_and_list_valid_ones() {
    let out = cli()
        .args(["run", "-p", "zng", "-w", "betw", "--bogus"])
        .output()
        .expect("spawn");
    assert!(!out.status.success(), "unknown flag must exit nonzero");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("`--bogus`"), "names the flag: {err}");
    assert!(err.contains("for `run`"), "names the subcommand: {err}");
    assert!(err.contains("--queue-depth"), "lists valid flags: {err}");

    // `--platform` is a run flag, not a sweep flag.
    let out = cli()
        .args(["sweep", "-w", "betw", "--platform", "zng"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("`--platform`") && err.contains("for `sweep`"),
        "{err}"
    );
}

#[test]
fn bad_arguments_fail_with_usage() {
    for args in [
        vec!["run"], // missing everything
        vec!["run", "-p", "bogus", "-w", "betw"],
        vec!["run", "-p", "zng", "-w", "nope"],
        vec!["frobnicate"],
        // Integer values that do not fit their field are rejected, not
        // truncated.
        vec!["run", "-p", "zng", "-w", "betw", "--die-fail", "65536:0"],
        vec!["run", "-p", "zng", "-w", "betw", "--link-fail", "65536"],
        vec![
            "run",
            "-p",
            "zng",
            "-w",
            "betw",
            "--degrading-die",
            "65536:0:1:2",
        ],
        vec![
            "run",
            "-p",
            "zng",
            "-w",
            "betw",
            "--degrading-die",
            "0:65536:1:2",
        ],
        vec![
            "run",
            "-p",
            "zng",
            "-w",
            "betw",
            "--scrub-threshold",
            "4294967297",
        ],
        vec![
            "run",
            "-p",
            "zng",
            "-w",
            "betw",
            "--retry-budget",
            "4294967296",
        ],
        vec!["run", "-p", "zng", "-w", "betw", "--warps", "-1"],
    ] {
        let out = cli().args(&args).output().expect("spawn");
        assert!(!out.status.success(), "args {args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "no usage in stderr: {err}");
        assert_eq!(
            out.status.code(),
            Some(2),
            "usage errors exit 2: {args:?}\n{err}"
        );
    }
}

#[test]
fn simulation_errors_exit_one_without_usage() {
    // A 1-cycle watchdog budget trips immediately: a simulation error,
    // not a usage error, so exit 1 and no usage dump.
    let out = cli()
        .args([
            "run",
            "-p",
            "zng",
            "-w",
            "betw",
            "--warps",
            "8",
            "--ops",
            "40",
            "--footprint",
            "128",
            "--watchdog",
            "1",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "simulation errors exit 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("stalled"), "names the stall: {err}");
    assert!(
        !err.contains("usage:"),
        "no usage text for sim errors: {err}"
    );
}

#[test]
fn integrity_violation_exits_one() {
    // A silent-corruption shot with no redundancy to reconstruct from is
    // unrecoverable: the read fails loudly and the process exits 1.
    let out = cli()
        .args([
            "run",
            "-p",
            "zng-base",
            "-w",
            "betw",
            "--warps",
            "8",
            "--ops",
            "40",
            "--footprint",
            "128",
            "--integrity",
            "--sdc-at",
            "5",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "integrity violations exit 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("integrity"), "names the violation: {err}");
}

#[test]
fn integrity_flags_add_counters_and_heal_with_redundancy() {
    let out = cli()
        .args([
            "run",
            "-p",
            "zng-base",
            "-w",
            "betw",
            "--warps",
            "8",
            "--ops",
            "40",
            "--footprint",
            "128",
            "--integrity",
            "--sdc-at",
            "5",
            "--redundancy",
            "--json",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let v = zng_json::Value::parse(&text).expect("valid JSON RunResult");
    assert!(v["integrity_detected"].as_f64().unwrap() >= 1.0);
    assert!(v["integrity_reconstructed"].as_f64().unwrap() >= 1.0);
    assert_eq!(v["integrity_poisoned_lines"].as_f64().unwrap(), 0.0);
}

#[test]
fn health_flags_add_monitor_metrics() {
    let out = cli()
        .args([
            "run",
            "-p",
            "zng-base",
            "-w",
            "back",
            "--warps",
            "8",
            "--ops",
            "200",
            "--footprint",
            "128",
            "--health",
            "3",
            "--health-window",
            "16",
            "--suspect-threshold",
            "0.02",
            "--evacuate",
            "--degrading-die",
            "0:0:200000:14000000",
            "--json",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let v = zng_json::Value::parse(&text).expect("valid JSON RunResult");
    assert!(v["health_ticks"].as_f64().unwrap() > 0.0);
    assert!(v["health_suspects_flagged"].as_f64().unwrap() >= 1.0);
    assert!(v["health_pages_evacuated"].as_f64().unwrap() >= 1.0);
    assert!(
        text.contains("per_die_health"),
        "per-die rollups present:\n{text}"
    );
}

#[test]
fn health_usage_errors_exit_two_and_name_the_flag() {
    // Each health flag that wants a value must say so, name itself, and
    // exit with the usage code.
    for flag in ["--health", "--health-window", "--suspect-threshold"] {
        let out = cli()
            .args(["run", "-p", "zng", "-w", "betw", flag])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{flag} without a value");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "names `{flag}`: {err}");
        assert!(err.contains("requires a value"), "{err}");
    }
    // A malformed die spec is a usage error too.
    let out = cli()
        .args(["run", "-p", "zng", "-w", "betw", "--degrading-die", "0:0"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--degrading-die") && err.contains("ch:die:onset:death"),
        "{err}"
    );
    // And so is a non-numeric threshold.
    let out = cli()
        .args([
            "run",
            "-p",
            "zng",
            "-w",
            "betw",
            "--suspect-threshold",
            "hot",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("`hot` is not a number"), "{err}");
}

#[test]
fn default_run_has_no_health_rows() {
    let out = cli()
        .args([
            "run",
            "-p",
            "zng",
            "-w",
            "betw",
            "--warps",
            "4",
            "--ops",
            "20",
            "--footprint",
            "64",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        !text.contains("health") && !text.contains("quarantine") && !text.contains("evacuat"),
        "default output must be health-free:\n{text}"
    );
}

#[test]
fn default_run_has_no_integrity_rows() {
    let out = cli()
        .args([
            "run",
            "-p",
            "zng",
            "-w",
            "betw",
            "--warps",
            "4",
            "--ops",
            "20",
            "--footprint",
            "64",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        !text.contains("integrity") && !text.contains("poisoned"),
        "default output must be integrity-free:\n{text}"
    );
}

#[test]
fn invalid_configurations_exit_one_without_panicking() {
    let small = [
        "-w",
        "betw",
        "--warps",
        "8",
        "--ops",
        "40",
        "--footprint",
        "128",
    ];
    let out_path = std::env::temp_dir().join("zng_cli_invalid_traces.json");
    let out_file = out_path.to_str().unwrap();
    let mut cases: Vec<Vec<&str>> = Vec::new();
    for zero in ["--warps", "--ops", "--footprint"] {
        cases.push([&["run", "-p", "zng"][..], &small, &[zero, "0"]].concat());
        cases.push([&["sweep"][..], &small, &[zero, "0"]].concat());
        cases.push([&["traces", "--out", out_file][..], &small, &[zero, "0"]].concat());
    }
    cases.push([&["run", "-p", "zng"][..], &small, &["--queue-depth", "0"]].concat());
    for args in cases {
        let out = cli().args(&args).output().expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "config errors exit 1: {args:?}\n{err}"
        );
        assert!(err.contains("invalid configuration"), "{args:?}: {err}");
        assert!(!err.contains("usage:"), "no usage text: {err}");
    }
    assert!(!out_path.exists(), "no trace file from invalid parameters");
}

/// The JSON document's keys, flattened the way the run table labels its
/// rows: object members become `key.member`, everything else is a leaf.
fn flat_keys(prefix: &str, v: &zng_json::Value, keys: &mut Vec<String>) {
    match v.as_object() {
        Some(members) => {
            for (k, m) in members {
                let label = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flat_keys(&label, m, keys);
            }
        }
        None => keys.push(prefix.to_string()),
    }
}

#[test]
fn table_rows_are_the_flattened_json_keys() {
    let args = [
        "run",
        "-p",
        "zng",
        "-w",
        "betw,back",
        "--warps",
        "8",
        "--ops",
        "40",
        "--footprint",
        "128",
        "--qos",
        "--scrub-every",
        "25",
        "--integrity",
        "--refresh-every",
        "25",
        "--checkpoint-every",
        "25",
        "--health",
        "25",
        "--crash-at",
        "100",
        "--perf",
    ];
    let table = cli().args(args).output().expect("spawn");
    assert!(
        table.status.success(),
        "{}",
        String::from_utf8_lossy(&table.stderr)
    );
    let json = cli().args(args).arg("--json").output().expect("spawn");
    assert!(
        json.status.success(),
        "{}",
        String::from_utf8_lossy(&json.stderr)
    );
    let v = zng_json::Value::parse(&String::from_utf8_lossy(&json.stdout)).expect("JSON");
    let mut keys = Vec::new();
    flat_keys("", &v, &mut keys);
    let text = String::from_utf8_lossy(&table.stdout);
    let labels: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.starts_with("---"))
        .skip(1)
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(labels, keys);
    for key in [
        "qos_rejected",
        "scrub_ticks",
        "integrity_detected",
        "checkpoint_ticks",
    ] {
        assert!(labels.contains(&key), "{key} missing from the table");
    }
    assert!(labels.iter().any(|l| l.starts_with("per_die_health.")));
}
