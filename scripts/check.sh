#!/usr/bin/env bash
# Repo quality gate: formatting, lints (warnings are errors), docs
# (warnings are errors), full tests.
set -euo pipefail
cd "$(dirname "$0")/.."

# Fail fast with a clear message when the toolchain components the gate
# needs are missing, instead of dying mid-run on a cryptic cargo error.
if ! cargo fmt --version >/dev/null 2>&1; then
  echo "error: 'cargo fmt' is unavailable — install it with: rustup component add rustfmt" >&2
  exit 1
fi
if ! cargo clippy --version >/dev/null 2>&1; then
  echo "error: 'cargo clippy' is unavailable — install it with: rustup component add clippy" >&2
  exit 1
fi

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo test -q --workspace

# The benchmark harness is its own Cargo workspace, so the commands
# above never build it: compile it here so a change to the library API
# it drives (Backend, the runner) cannot break the benchmark unnoticed.
cargo check --offline -q --manifest-path perfbench/Cargo.toml

# Golden-determinism gate: the default-config JSON output is pinned
# byte-for-byte against tests/golden/ (determinism + opt-in features
# stay inert when off). Run by name so drift fails loudly even when the
# main test run is filtered.
cargo test -q --test golden

# Self-healing end-to-end smoke: a die failure plus a severed mesh link
# mid-run must still complete and rebuild (exercises the RAIN paths the
# unit tests cover piecewise).
cargo run -q --example redundancy_rebuild >/dev/null

# Data-integrity end-to-end smoke: a silent bit flip must fail loudly
# (poisoned L2 line, IntegrityViolation) without redundancy and heal in
# place with RAIN on (exercises the verified-read paths end to end).
cargo run -q --example integrity_poison >/dev/null

# Endurance end-to-end smoke: the refresh scheduler must ride along on
# healthy media, and an end-of-life run must complete with a graceful
# capacity step instead of the DeviceWornOut cliff.
cargo run -q --example lifetime_refresh >/dev/null

# Crash-recovery end-to-end smoke: a checkpointed power cut must restore
# through the fast path and beat the full OOB scan (exercises the
# checkpoint writer, delta journal and verified restore end to end).
cargo run -q --release --example fast_recovery >/dev/null

# Predictive-health end-to-end smoke: the monitor must flag a degrading
# die, evacuate its live data and fence it at death with zero dead-die
# reads, while the unmonitored twin pays the reconstruction fan-out.
cargo run -q --release --example health_evacuation >/dev/null
