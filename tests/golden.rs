//! Golden-determinism gate: the default run's JSON output is pinned
//! byte-for-byte against checked-in golden files.
//!
//! Two guarantees ride on this:
//!
//! 1. **Determinism** — the same command run twice produces identical
//!    bytes (no hidden clock, RNG or hash-order dependence).
//! 2. **Integrity-off is inert** — the opt-in data-integrity subsystem
//!    (and every other opt-in feature) leaves the default output
//!    untouched. A change that perturbs these bytes is either a real
//!    behaviour change (regenerate the goldens deliberately, in the
//!    same commit, with an explanation) or an accidental leak of an
//!    opt-in feature into the default path (fix the leak).
//!
//! Regenerate with:
//!
//! ```text
//! cargo build --release
//! ./target/release/zng-cli run -p zng -w betw --warps 8 --ops 40 \
//!     --footprint 128 --json > tests/golden/run_default.json
//! ./target/release/zng-cli run -p zng -w betw --warps 8 --ops 40 \
//!     --footprint 128 --json --faults end-of-life > tests/golden/run_eol.json
//! ./target/release/zng-cli run -p zng -w betw --warps 8 --ops 40 \
//!     --footprint 128 --json --checkpoint --checkpoint-every 25 \
//!     --crash-at 100 > tests/golden/run_checkpoint.json
//! ./target/release/zng-cli run -p zng -w betw --warps 8 --ops 40 \
//!     --footprint 128 --json --scrub-every 25 --integrity \
//!     --refresh-every 25 --checkpoint-every 25 --health 25 \
//!     --crash-at 100 > tests/golden/run_reliable.json
//! for p in zng hybridgpu hetero; do
//!   ./target/release/zng-cli run -p $p -w betw --warps 8 --ops 40 \
//!       --footprint 128 --json --faults nominal --scrub-every 25 \
//!       --scrub-threshold 1 --integrity --refresh-every 25 \
//!       --checkpoint-every 25 --health 25 \
//!       --degrading-die 1:0:0:10000000 --crash-at 100 \
//!       > tests/golden/run_degraded_$p.json
//!   ./target/release/zng-cli run -p $p -w betw --warps 8 --ops 40 \
//!       --footprint 128 --json --redundancy --sdc-rate 0.2 \
//!       > tests/golden/run_sdc_$p.json
//! done
//! ```

use std::path::Path;
use std::process::Command;

const RUN_ARGS: &[&str] = &[
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
];

fn run_cli(extra: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_zng-cli"))
        .args(RUN_ARGS)
        .args(extra)
        .output()
        .expect("spawn zng-cli");
    assert!(
        out.status.success(),
        "golden run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn golden(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn assert_bytes_match(got: &[u8], want: &[u8], what: &str) {
    if got != want {
        panic!(
            "{what} drifted from its golden file.\n\
             If the change is intentional, regenerate the goldens (see \
             tests/golden.rs header) in the same commit.\n\
             --- golden ---\n{}\n--- got ---\n{}",
            String::from_utf8_lossy(want),
            String::from_utf8_lossy(got),
        );
    }
}

#[test]
fn default_run_matches_golden_and_is_deterministic() {
    let first = run_cli(&[]);
    let second = run_cli(&[]);
    assert_eq!(
        first, second,
        "two identical invocations produced different bytes"
    );
    assert_bytes_match(&first, &golden("run_default.json"), "default run");
}

/// `--perf` telemetry must be additive: the run's simulated results are
/// byte-identical to the default golden, with only the (inherently
/// nondeterministic, therefore never-golden) `perf_*` keys appended.
#[test]
fn perf_flag_adds_only_perf_keys() {
    let text = String::from_utf8(run_cli(&["--perf"])).expect("utf8 json");
    assert!(
        text.contains("\"perf_events\"") && text.contains("\"perf_events_per_sec\""),
        "--perf attaches throughput telemetry"
    );
    let mut kept: Vec<String> = text
        .lines()
        .filter(|l| !l.trim_start().starts_with("\"perf_"))
        .map(str::to_string)
        .collect();
    // The perf keys are the object's last fields, so dropping them
    // leaves a dangling comma on the previous field's line.
    let last_field = kept.len().saturating_sub(2);
    if let Some(line) = kept.get_mut(last_field) {
        if let Some(stripped) = line.strip_suffix(',') {
            *line = stripped.to_string();
        }
    }
    let mut rebuilt = kept.join("\n");
    rebuilt.push('\n');
    assert_bytes_match(
        rebuilt.as_bytes(),
        &golden("run_default.json"),
        "--perf run minus perf keys",
    );
}

#[test]
fn end_of_life_run_matches_golden() {
    let got = run_cli(&["--faults", "end-of-life"]);
    assert_bytes_match(&got, &golden("run_eol.json"), "end-of-life run");
}

/// Pins the checkpointed crash-recovery output: the writer's counters,
/// the crash report's fast-path fields (the golden has
/// `crash_fast_path: true` — a fast path that silently stops engaging
/// here is a regression, not noise) and the recovered run's results.
#[test]
fn checkpointed_crash_run_matches_golden() {
    let got = run_cli(&[
        "--checkpoint",
        "--checkpoint-every",
        "25",
        "--crash-at",
        "100",
    ]);
    assert_bytes_match(
        &got,
        &golden("run_checkpoint.json"),
        "checkpointed crash run",
    );
}

/// Pins the maintenance paths together: scrub, refresh and static
/// levelling, health monitoring and checkpointing all run on their
/// cadence, then a power cut recovers through the fast path from the
/// checkpoint's epoch images. The golden has 15 checkpoints, 13
/// levelling migrations and `crash_fast_path: true`.
#[test]
fn reliable_maintenance_run_matches_golden() {
    let got = run_cli(&[
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
    ]);
    assert_bytes_match(
        &got,
        &golden("run_reliable.json"),
        "reliable maintenance run",
    );
}

/// Runs the degraded-media maintenance mix on `platform`: nominal
/// faults, an aggressive scrub, integrity, refresh/levelling,
/// checkpoints, health monitoring with a die that degrades to death,
/// then a power cut. The trailing `-p` overrides `RUN_ARGS`'s (the CLI
/// keeps the last one).
fn degraded_run(platform: &str) -> Vec<u8> {
    run_cli(&[
        "-p",
        platform,
        "--faults",
        "nominal",
        "--scrub-every",
        "25",
        "--scrub-threshold",
        "1",
        "--integrity",
        "--refresh-every",
        "25",
        "--checkpoint-every",
        "25",
        "--health",
        "25",
        "--degrading-die",
        "1:0:0:10000000",
        "--crash-at",
        "100",
    ])
}

/// Pins the ZnG FTL's scrub rewrites, die fencing and rebuild,
/// levelling, checkpoints and fast-path recovery on degrading media.
#[test]
fn degraded_zng_run_matches_golden() {
    let got = degraded_run("zng");
    assert_bytes_match(&got, &golden("run_degraded_zng.json"), "degraded zng run");
}

/// Pins the same maintenance paths through the page-map FTL behind the
/// SSD module (hybridgpu).
#[test]
fn degraded_hybridgpu_run_matches_golden() {
    let got = degraded_run("hybridgpu");
    assert_bytes_match(
        &got,
        &golden("run_degraded_hybridgpu.json"),
        "degraded hybridgpu run",
    );
}

/// Pins the same maintenance paths through the page-map FTL behind the
/// NVMe SSD (hetero).
#[test]
fn degraded_hetero_run_matches_golden() {
    let got = degraded_run("hetero");
    assert_bytes_match(
        &got,
        &golden("run_degraded_hetero.json"),
        "degraded hetero run",
    );
}

/// Pins verified reads that reconstruct and heal silently corrupted
/// pages on every FTL platform: the healed read's completion time, the
/// heal's rewrite and the integrity counters.
#[test]
fn healed_corruption_runs_match_goldens() {
    for platform in ["zng", "hybridgpu", "hetero"] {
        let got = run_cli(&["-p", platform, "--redundancy", "--sdc-rate", "0.2"]);
        assert_bytes_match(
            &got,
            &golden(&format!("run_sdc_{platform}.json")),
            &format!("healed-corruption {platform} run"),
        );
    }
}
