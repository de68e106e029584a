#!/bin/bash
# Hermetic CI gate: formatting, offline release build, offline test suite.
# Must pass with no network and no registry access — the workspace has no
# external dependencies by policy (see DESIGN.md, "Hermetic builds").
set -e
cd "$(dirname "$0")"

echo "=== cargo fmt --check ==="
cargo fmt --check

echo "=== cargo clippy --offline -D warnings ==="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "=== cargo doc --offline -D warnings ==="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

echo "=== cargo build --release --offline ==="
cargo build --release --offline

echo "=== cargo test -q --offline ==="
cargo test -q --offline

echo "=== release: differential + parallel + fast-forward + fault + selection equivalence ==="
cargo test -q --release --offline -p fqms-memctrl \
  --test differential --test parallel_equivalence \
  --test fast_forward_equivalence --test fault_differential \
  --test checkpoint_differential --test retry_policy \
  --test select_differential --test hierarchy_conservation \
  --test blacklist_properties --test freerun_differential \
  --test rt_wcet --test overload_differential --test mode_product
cargo test -q --release --offline -p fqms-sim --test freerun_properties

echo "=== release: prewarm equivalence over every profile ==="
cargo test -q --release --offline -p fqms-integration --test prewarm_equivalence

echo "=== release: event-driven System::run == per-cycle loop, every configuration ==="
cargo test -q --release --offline -p fqms-integration --test system_fast_forward

echo "=== release: benchmark replicas == System::run and the engine ==="
# The benchmark's paper replica steps System::run's loop cycle by cycle
# through the public Core and MultiChannelController calls, so it is the
# per-cycle oracle the event-driven System::run must equal; the engine
# replica likewise replays the engine's loop. A library change that
# breaks either equality fails here.
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

# Runs one figure binary as a CI gate under FQMS_RUNLEN=quick. Each named
# FQMS_BENCH_* variable points the binary's JSON record into a temp dir,
# so the committed BENCH_*.json files are left alone. A binary that exits
# nonzero fails CI after printing the tail of its log.
#   gate <bin> <what it checks> [FQMS_BENCH_* variable]...
gate() {
  local bin="$1" what="$2" tmp
  shift 2
  echo "=== $bin gate: $what ==="
  tmp="$(mktemp -d)"
  local env=(FQMS_RUNLEN=quick)
  for var in "$@"; do env+=("$var=$tmp/$var.json"); done
  if ! env "${env[@]}" cargo run --release -q --offline -p fqms-bench --bin "$bin" \
      > "$tmp/$bin.tsv" 2> "$tmp/$bin.log"; then
    echo "$bin gate FAILED:"; tail -n 12 "$tmp/$bin.log"
    rm -rf "$tmp"; exit 1
  fi
  rm -rf "$tmp"
  echo "$bin gate OK"
}

# Exits nonzero when the free-running parallel engine is slower than
# serial beyond tolerance at any >=4-channel / >=2-thread sweep point,
# when the 64-channel QoS-mix speedup over cycle-by-cycle falls below 5x,
# or when event-driven is ever slower than cycle-by-cycle (see
# crates/bench/src/bin/speedup.rs; tolerances recorded in the JSON).
gate speedup "free-run parallel never slower + >=5x over cycle-by-cycle" \
  FQMS_BENCH_PR3 FQMS_BENCH_PR8

# Exits nonzero when FQ-VFTF, SD-VFTF or BLISS shows a higher max-slowdown
# than FR-FCFS on the adversarial mix, or when any scheduler violates
# conservation (see crates/bench/src/bin/frontier.rs).
gate frontier "fairness ordering + conservation" FQMS_BENCH_PR7

# Exits nonzero when the FQ-VFTF or BLISS per-request scheduler cost grows
# more than 2x from 64 to 4096 threads on the tiered selection index, or
# when FQ-VFTF's per-tenant service error exceeds 5% at any scale (see
# crates/bench/src/bin/scaling.rs).
gate scaling "per-request cost growth + FQ-VFTF fairness" FQMS_BENCH_PR6

# Exits nonzero when any regulated real-time completion exceeds its
# analytic WCET bound (or the controller's own violation counter is
# nonzero), or when any mode violates conservation (see
# crates/bench/src/bin/latency_cdf.rs and DESIGN.md §18).
gate latency_cdf "no WCET violation + conservation" FQMS_BENCH_PR9

# Exits nonzero when the QoS thread's p99 under the streaming flood
# exceeds the tail factor over its unloaded p99 (or is worse than the
# uncontrolled flood) with control on, when any cell violates `completed
# + dropped + rejected + shed + unsubmitted == submitted`, or when a
# control-on cell never throttled/shed (see crates/bench/src/bin/overload.rs
# and DESIGN.md §19).
gate overload "flood tail bounded + conservation + control effective" FQMS_BENCH_PR10

# The paper gate: exits nonzero (printing `GATE FAILED: …`) when a claim of
# the paper's headline table flips: two-core QoS on at least 18 of 19
# subjects, a positive two-core average gain over FR-FCFS, no four-core
# QoS miss, a >= 10x collapse of normalized-utilization variance, or the
# Fig. 8 WL1 ordering inversion (see crates/bench/src/bin/headline.rs).
gate headline "the paper's headline claims still hold"

echo "=== doc consistency: every scheduler + figure bin appears in README ==="
# The README's scheduler family table and figure index drift silently when
# a variant or binary is added; fail the build instead. Variants come from
# the enum itself, bins from run_figures.sh's DEFAULT_BINS.
DOC_FAIL=0
SCHEDULERS="$(sed -n '/^pub enum SchedulerKind/,/^}/p' \
  crates/memctrl/src/policy.rs | grep -oE '^    [A-Z][A-Za-z]+,' | tr -d ' ,')"
[ -n "$SCHEDULERS" ] || { echo "doc check FAILED: no SchedulerKind variants parsed"; exit 1; }
for v in $SCHEDULERS; do
  grep -qw "$v" README.md || {
    echo "doc check FAILED: SchedulerKind::$v missing from README.md"; DOC_FAIL=1; }
done
DOC_BINS="$(sed -n '/^DEFAULT_BINS=/,/"$/p' run_figures.sh \
  | sed -e 's/^DEFAULT_BINS="//' -e 's/\\$//' -e 's/"$//')"
[ -n "$DOC_BINS" ] || { echo "doc check FAILED: no DEFAULT_BINS parsed"; exit 1; }
for b in $DOC_BINS; do
  grep -qw "$b" README.md || {
    echo "doc check FAILED: figure bin '$b' missing from README.md"; DOC_FAIL=1; }
done
# The back-pressure taxonomy is API surface: every Nack variant must be
# documented in the README's overload-control section.
NACKS="$(sed -n '/^pub enum Nack/,/^}/p' crates/memctrl/src/buffers.rs \
  | grep -oE '^    [A-Z][A-Za-z]+' | tr -d ' ')"
[ -n "$NACKS" ] || { echo "doc check FAILED: no Nack variants parsed"; exit 1; }
for n in $NACKS; do
  grep -qw "$n" README.md || {
    echo "doc check FAILED: Nack::$n missing from README.md"; DOC_FAIL=1; }
done
[ "$DOC_FAIL" = "0" ] || exit 1
echo "doc consistency OK"

echo "=== run_figures.sh --resume: interrupted sweeps resume bit-identically ==="
# Emulate an interrupted sweep deterministically: run a prefix of the
# binary list, then resume with the full list, and compare every output
# against an uninterrupted reference run. Logs are excluded (they carry
# wall-clock timings); the figure TSVs and metrics sidecars must match
# bit for bit.
RESUME_A="$(mktemp -d)"
RESUME_B="$(mktemp -d)"
KILLDIR="$(mktemp -d)"
trap 'rm -rf "$RESUME_A" "$RESUME_B" "$KILLDIR"' EXIT
FQMS_SKIP_CI=1 FQMS_RUNLEN=quick FQMS_RESULTS_DIR="$RESUME_A" \
  FQMS_BINS="tables fig1" ./run_figures.sh > /dev/null
FQMS_SKIP_CI=1 FQMS_RUNLEN=quick FQMS_RESULTS_DIR="$RESUME_A" \
  FQMS_BINS="tables fig1 faults" ./run_figures.sh --resume > "$RESUME_A/resume.out"
grep -q "tables (checkpointed, skipped)" "$RESUME_A/resume.out" || {
  echo "resume check FAILED: completed binary was re-run"; exit 1; }
FQMS_SKIP_CI=1 FQMS_RUNLEN=quick FQMS_RESULTS_DIR="$RESUME_B" \
  FQMS_BINS="tables fig1 faults" ./run_figures.sh > /dev/null
for f in tables fig1 faults; do
  cmp "$RESUME_A/$f.tsv" "$RESUME_B/$f.tsv"
  cmp "$RESUME_A/$f.metrics.tsv" "$RESUME_B/$f.metrics.tsv"
done
echo "resume check OK"

echo "=== SIGKILL mid-run + checkpoint resume: bit-identical figures ==="
# Kill a figure binary with SIGKILL once its first checkpoint lands, then
# rerun the identical command: the rerun auto-resumes from the snapshot
# and its outputs (figure TSV and metrics sidecar) must match an
# uninterrupted reference run bit for bit. The binary is invoked directly
# (not via `cargo run`) so the SIGKILL hits the simulator itself.
KR_BIN=./target/release/fig4
KR_ENV="FQMS_RUNLEN=quick FQMS_SEED=42"
env $KR_ENV FQMS_SIDECAR="$KILLDIR/ref.metrics.tsv" \
  "$KR_BIN" > "$KILLDIR/ref.tsv" 2> "$KILLDIR/ref.log"
mkdir -p "$KILLDIR/ckpt"
env $KR_ENV FQMS_SIDECAR="$KILLDIR/int.metrics.tsv" \
  FQMS_CHECKPOINT_DIR="$KILLDIR/ckpt" FQMS_CHECKPOINT_EVERY=5000 \
  "$KR_BIN" > "$KILLDIR/int.tsv" 2> "$KILLDIR/int.log" &
KR_PID=$!
for _ in $(seq 1 500); do
  [ -n "$(ls -A "$KILLDIR/ckpt" 2>/dev/null)" ] && break
  kill -0 "$KR_PID" 2>/dev/null || break
  sleep 0.02
done
if kill -9 "$KR_PID" 2>/dev/null; then
  :
else
  echo "warning: $KR_BIN finished before SIGKILL; resume path not exercised"
fi
wait "$KR_PID" 2>/dev/null || true
env $KR_ENV FQMS_SIDECAR="$KILLDIR/int.metrics.tsv" \
  FQMS_CHECKPOINT_DIR="$KILLDIR/ckpt" FQMS_CHECKPOINT_EVERY=5000 \
  "$KR_BIN" > "$KILLDIR/int.tsv" 2> "$KILLDIR/int.log"
grep -q "resumed from checkpoint" "$KILLDIR/int.log" \
  || echo "warning: rerun found no checkpoint to resume (run too short?)"
cmp "$KILLDIR/ref.tsv" "$KILLDIR/int.tsv" || {
  echo "kill-and-resume check FAILED: figure output diverged"; exit 1; }
cmp "$KILLDIR/ref.metrics.tsv" "$KILLDIR/int.metrics.tsv" || {
  echo "kill-and-resume check FAILED: metrics sidecar diverged"; exit 1; }
echo "kill-and-resume check OK"

echo "CI OK"
