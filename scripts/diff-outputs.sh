#!/usr/bin/env bash
# Compares `zng-cli run --json` between a git revision and the working
# tree over a fixed matrix: every platform × six subsystem flag sets, at
# small trace parameters. Exit code, stderr and stdout must match byte
# for byte; only the wall-clock keys (`perf_wall_seconds`,
# `perf_events_per_sec`, `perf_maint_*_s`) are stripped first.
#
#   scripts/diff-outputs.sh <rev>
#
# <rev> is checked out into a temporary git worktree; both sides are
# built offline in release mode. Exits 1 on any difference and names
# the differing cases.
set -euo pipefail

rev=${1:?usage: scripts/diff-outputs.sh <rev>}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
cleanup() {
  git -C "$root" worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
  rm -rf "$tmp"
}
trap cleanup EXIT

git -C "$root" worktree add --detach -q "$tmp/base" "$rev"
build() { # <checkout> <target dir>
  CARGO_TARGET_DIR="$2" cargo build --release --offline -q \
    --manifest-path "$1/Cargo.toml" --bin zng-cli
}
build "$tmp/base" "$tmp/base-target"
build "$root" "$tmp/head-target"

platforms=(hetero hybridgpu optane zng-base zng-rdopt zng-wropt zng ideal)
flag_sets=(
  ""
  "--scrub-every 25 --integrity --refresh-every 25 --checkpoint-every 25 --health 25 --crash-at 100"
  "--redundancy --die-fail-at 50 --link-fail 1"
  "--qos --queue-depth 2"
  "--faults nominal --sdc-rate 0.2 --redundancy"
  "--perf"
)
small=(-w betw,back --warps 8 --ops 40 --footprint 128 --json)
wall_clock='"(perf_wall_seconds|perf_events_per_sec|perf_maint_[a-z]+_s)":'

run_side() { # <side> <case> <platform> <flags...>
  local side=$1 case=$2 platform=$3
  shift 3
  local out="$tmp/$side.$case"
  local code=0
  "$tmp/$side-target/release/zng-cli" run -p "$platform" "${small[@]}" "$@" \
    >"$out.raw" 2>"$out.err" || code=$?
  grep -Ev "$wall_clock" "$out.raw" >"$out.out" || true
  echo "$code" >"$out.code"
}

cases=0
differ=0
for platform in "${platforms[@]}"; do
  for i in "${!flag_sets[@]}"; do
    read -r -a flags <<<"${flag_sets[$i]}"
    case="$platform.$i"
    run_side base "$case" "$platform" "${flags[@]}"
    run_side head "$case" "$platform" "${flags[@]}"
    cases=$((cases + 1))
    for part in code err out; do
      if ! cmp -s "$tmp/base.$case.$part" "$tmp/head.$case.$part"; then
        echo "DIFF $platform ${flag_sets[$i]:-(default)}: $part"
        diff "$tmp/base.$case.$part" "$tmp/head.$case.$part" | head -20 || true
        differ=$((differ + 1))
        break
      fi
    done
  done
done

echo "$cases cases against $rev, $differ differ"
[ "$differ" -eq 0 ]
