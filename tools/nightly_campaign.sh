#!/usr/bin/env bash
# Nightly end-to-end check of the sharded campaign engine (DESIGN.md §7).
#
# Runs a real 2000-trial ConvNet campaign four ways and requires them to
# agree bit-for-bit (stats files serialize doubles as hex floats, so `diff`
# is an exact comparison):
#
#   1. shard [0,1000) killed at 50% via --stop-after, then resumed;
#   2. shard [1000,2000) run straight through;
#   3. the merge of both checkpoints vs. one uninterrupted [0,2000) run;
#   4. the same monolithic run with --no-incremental (full replay, no
#      masked-fault early exit) — identical except the masked_exits line,
#      which is the one field that records how trials were *executed*
#      rather than what they produced. The same cross-check then runs on
#      AlexNet-S at --site datapath and --site global-buffer, whose stride-2
#      padded conv, LRN and 3x3/2 pool exercise every dirty-region rule;
#   5. on an AVX512-FP16 CPU, the same AlexNet-S campaigns on the native
#      FP16 kernels (auto) and on the F16C path (DNNFI_KERNELS=avx512).
#
# Usage: tools/nightly_campaign.sh [build-dir]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
CAMPAIGN="$REPO_ROOT/$BUILD_DIR/tools/dnnfi_campaign"
[ -x "$CAMPAIGN" ] || { echo "error: $CAMPAIGN not built" >&2; exit 1; }

# The model cache lives in the repo; without this, the CLI would retrain
# ConvNet from scratch on every nightly run.
export DNNFI_MODEL_DIR="${DNNFI_MODEL_DIR:-$REPO_ROOT/models}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

COMMON=(--network convnet --dtype FLOAT16 --trials 2000 --seed 20170101
        --inputs 8 --distances --no-progress)

echo "== shard A [0,1000): run to 50%, expect exit 3 (stopped) =="
rc=0
"$CAMPAIGN" run "${COMMON[@]}" --shard 0:1000 --batch 100 --stop-after 500 \
    --checkpoint "$WORK/a.ckpt" || rc=$?
[ "$rc" -eq 3 ] || { echo "error: expected exit 3 after --stop-after, got $rc" >&2; exit 1; }

echo "== shard A: resume from checkpoint to completion =="
"$CAMPAIGN" resume "${COMMON[@]}" --shard 0:1000 --batch 100 \
    --checkpoint "$WORK/a.ckpt"

echo "== shard B [1000,2000): uninterrupted =="
"$CAMPAIGN" run "${COMMON[@]}" --shard 1000:2000 --batch 100 \
    --checkpoint "$WORK/b.ckpt"

echo "== merge shards =="
"$CAMPAIGN" merge "$WORK/a.ckpt" "$WORK/b.ckpt" --out "$WORK/merged.stats"

echo "== monolithic [0,2000) reference =="
"$CAMPAIGN" run "${COMMON[@]}" --out "$WORK/full.stats"

echo "== compare =="
if diff -u "$WORK/full.stats" "$WORK/merged.stats"; then
  echo "PASS: resumed+merged shards are bit-identical to the monolithic run"
else
  echo "FAIL: sharded/resumed campaign diverged from the monolithic run" >&2
  exit 1
fi

echo "== full-replay cross-check: --no-incremental [0,2000) =="
"$CAMPAIGN" run "${COMMON[@]}" --no-incremental --out "$WORK/noinc.stats"

# masked_exits counts how trials were executed (early exits), not what they
# produced; it is the only line allowed to differ between modes.
if diff -u <(grep -v '^masked_exits ' "$WORK/full.stats") \
           <(grep -v '^masked_exits ' "$WORK/noinc.stats"); then
  echo "PASS: incremental replay is bit-identical to full replay"
else
  echo "FAIL: incremental replay diverged from full replay" >&2
  exit 1
fi
grep -q '^masked_exits 0$' "$WORK/noinc.stats" || {
  echo "FAIL: full replay reported nonzero masked_exits" >&2; exit 1; }

# ConvNet has no LRN and no stride-2 conv: repeat the full-replay
# cross-check on AlexNet-S, where incremental replay computes dirty regions
# through both (DESIGN.md §8), for datapath and global-buffer strikes.
for SITE in datapath global-buffer; do
  echo "== full-replay cross-check: AlexNet-S --site $SITE =="
  ALEX=(--network alexnet --dtype FLOAT16 --site "$SITE" --trials 2000
        --seed 20170101 --inputs 8 --distances --no-progress)
  "$CAMPAIGN" run "${ALEX[@]}" --out "$WORK/alex-$SITE.stats"
  "$CAMPAIGN" run "${ALEX[@]}" --no-incremental \
      --out "$WORK/alex-$SITE-noinc.stats"
  if diff -u <(grep -v '^masked_exits ' "$WORK/alex-$SITE.stats") \
             <(grep -v '^masked_exits ' "$WORK/alex-$SITE-noinc.stats"); then
    echo "PASS: AlexNet-S $SITE incremental replay is bit-identical to full replay"
  else
    echo "FAIL: AlexNet-S $SITE incremental replay diverged from full replay" >&2
    exit 1
  fi
done

# The avx512fp16 set (what auto picks for FLOAT16 on an AVX512-FP16 CPU)
# computes Half taps natively instead of through F16C float round trips; a
# whole campaign on each must produce the same stats file byte for byte.
INFO="$(DNNFI_KERNELS=auto "$CAMPAIGN" info --network alexnet)"
if grep -q '^kernels: .*FLOAT16 avx512fp16$' <<<"$INFO"; then
  for SITE in datapath global-buffer; do
    echo "== native FP16 vs F16C kernels: AlexNet-S --site $SITE =="
    ALEX=(--network alexnet --dtype FLOAT16 --site "$SITE" --trials 2000
          --seed 20170101 --inputs 8 --distances --no-progress)
    DNNFI_KERNELS=avx512 "$CAMPAIGN" run "${ALEX[@]}" \
        --out "$WORK/alex-$SITE-f16c.stats"
    DNNFI_KERNELS=auto "$CAMPAIGN" run "${ALEX[@]}" \
        --out "$WORK/alex-$SITE-fp16.stats"
    if diff -u "$WORK/alex-$SITE-f16c.stats" "$WORK/alex-$SITE-fp16.stats"; then
      echo "PASS: AlexNet-S $SITE native FP16 is bit-identical to F16C"
    else
      echo "FAIL: AlexNet-S $SITE native FP16 diverged from F16C" >&2
      exit 1
    fi
  done
else
  echo "SKIP (no avx512fp16): native FP16 vs F16C byte-identity leg"
fi

echo "== supervised campaign with a worker killed -9 mid-flight =="
# The supervisor (DESIGN.md §9) shards the same campaign across worker
# subprocesses on the one-node fleet localhost:2. We SIGKILL a live worker
# mid-campaign — simulating an OOM kill or node reaper — and require the
# supervisor to relaunch the shard, resume it from its last shipped
# checkpoint, and still merge bit-identical to the monolithic reference.
"$CAMPAIGN" supervise "${COMMON[@]}" --batch 100 --workers 2 \
    --ckpt-dir "$WORK/sup-ckpt" --backoff 0.1 \
    --out "$WORK/sup.stats" 2>"$WORK/sup.log" &
SUP_PID=$!

# Wait for a worker to appear, then kill it the hard way.
VICTIM=""
for _ in $(seq 1 100); do
  VICTIM="$(pgrep -P "$SUP_PID" -f ' worker ' | head -n1 || true)"
  [ -n "$VICTIM" ] && break
  sleep 0.1
done
if [ -n "$VICTIM" ]; then
  kill -9 "$VICTIM" && echo "killed worker pid $VICTIM"
else
  echo "warn: no live worker found to kill (campaign too fast?)" >&2
fi

rc=0; wait "$SUP_PID" || rc=$?
[ "$rc" -eq 0 ] || {
  echo "FAIL: supervise exited $rc" >&2; cat "$WORK/sup.log" >&2; exit 1; }

# --workers runs the framed transport: checkpoints were shipped home.
grep -q 'checkpoint(s) shipped' "$WORK/sup.log" || {
  echo "FAIL: supervise log has no 'checkpoint(s) shipped' line" >&2
  cat "$WORK/sup.log" >&2; exit 1; }

if diff -u "$WORK/full.stats" "$WORK/sup.stats"; then
  echo "PASS: supervised campaign survived kill -9 bit-identically"
else
  echo "FAIL: supervised campaign diverged after worker kill" >&2
  cat "$WORK/sup.log" >&2
  exit 1
fi

echo "== fleet: two-node supervised campaign, node0 SIGKILLed repeatedly =="
# Fleet mode (DESIGN.md §13): the same 2000-trial campaign spread over two
# localhost fleet nodes (framed stdio transport, per-batch checkpoint
# shipping). One entire "machine" — every worker whose checkpoint lives in
# node0's scratch — is SIGKILLed over and over while node1 stays healthy.
# Stranded shards must be retried elsewhere from their shipped checkpoints
# and the merge must still be bit-identical to the monolithic reference.
"$CAMPAIGN" supervise "${COMMON[@]}" --batch 100 \
    --hosts localhost:2,localhost:2 --max-attempts 100 --host-quarantine 0.5 \
    --ckpt-dir "$WORK/fleet-ckpt" --backoff 0.1 \
    --out "$WORK/fleet.stats" 2>"$WORK/fleet.log" &
SUP_PID=$!
KILLS=0
for _ in $(seq 1 1800); do
  kill -0 "$SUP_PID" 2>/dev/null || break
  if pkill -9 -f "$WORK/fleet-ckpt/node[0]/" 2>/dev/null; then
    KILLS=$((KILLS+1))
  fi
  sleep 0.3
done
rc=0; wait "$SUP_PID" || rc=$?
[ "$rc" -eq 0 ] || {
  echo "FAIL: fleet supervise exited $rc" >&2
  cat "$WORK/fleet.log" >&2; exit 1; }
echo "node0 workers SIGKILLed $KILLS time(s)"
[ "$KILLS" -gt 0 ] || echo "warn: killer never caught a node0 worker" >&2

if diff -u "$WORK/full.stats" "$WORK/fleet.stats"; then
  echo "PASS: two-node fleet survived whole-node kill -9 bit-identically"
else
  echo "FAIL: fleet campaign diverged after node0 kills" >&2
  cat "$WORK/fleet.log" >&2
  exit 1
fi

echo "== systolic geometry: supervised 2k-trial campaign, kill/resume merge =="
# Same contract on the non-default fault-model axes (DESIGN.md §11): a
# weight-stationary systolic array with stuck-at-1 faults. The supervised
# (sharded, killed, resumed, merged) run must be bit-identical to a
# monolithic run of the same campaign, and both must carry the v4 axis
# identity lines in their stats.
SYS=(--network convnet --dtype FLOAT16 --trials 2000 --seed 20170101
     --inputs 8 --distances --no-progress
     --accel systolic:8x8 --fault-op set1)

"$CAMPAIGN" run "${SYS[@]}" --out "$WORK/sys_full.stats"

"$CAMPAIGN" supervise "${SYS[@]}" --batch 100 --workers 2 \
    --ckpt-dir "$WORK/sys-ckpt" --backoff 0.1 \
    --out "$WORK/sys_sup.stats" 2>"$WORK/sys_sup.log" &
SUP_PID=$!
VICTIM=""
for _ in $(seq 1 100); do
  VICTIM="$(pgrep -P "$SUP_PID" -f ' worker ' | head -n1 || true)"
  [ -n "$VICTIM" ] && break
  sleep 0.1
done
if [ -n "$VICTIM" ]; then
  kill -9 "$VICTIM" && echo "killed worker pid $VICTIM"
else
  echo "warn: no live worker found to kill (campaign too fast?)" >&2
fi
rc=0; wait "$SUP_PID" || rc=$?
[ "$rc" -eq 0 ] || {
  echo "FAIL: systolic supervise exited $rc" >&2
  cat "$WORK/sys_sup.log" >&2; exit 1; }

grep -q '^accel systolic:8x8$' "$WORK/sys_sup.stats" || {
  echo "FAIL: systolic stats missing the accel identity line" >&2; exit 1; }
grep -q '^fault_op set1$' "$WORK/sys_sup.stats" || {
  echo "FAIL: systolic stats missing the fault_op identity line" >&2; exit 1; }

if diff -u "$WORK/sys_full.stats" "$WORK/sys_sup.stats"; then
  echo "PASS: systolic supervised campaign merged bit-identically"
else
  echo "FAIL: systolic supervised campaign diverged" >&2
  cat "$WORK/sys_sup.log" >&2
  exit 1
fi

echo "== stratified sampler: kill/resume/merge byte-identity =="
# The adaptive stratified campaign (DESIGN.md §12) makes the same
# determinism promise as the uniform sharded engine: a run stopped by
# --stop-after and resumed from its v5 checkpoint, and a `merge` of that
# finished checkpoint, must both reproduce the uninterrupted run's stats
# file byte-for-byte — per-stratum counts, HT estimate, allocator cursor
# and all. --ci-target 0 disables the convergence stop so the 2000-trial
# budget pins the trial count.
STRAT=(--network convnet --dtype FLOAT16 --trials 2000 --seed 20170101
       --inputs 8 --distances --no-progress
       --sampler stratified --ci-target 0)

"$CAMPAIGN" run "${STRAT[@]}" --out "$WORK/strat_full.stats"

rc=0
"$CAMPAIGN" run "${STRAT[@]}" --batch 100 --stop-after 700 \
    --checkpoint "$WORK/strat.ckpt" || rc=$?
[ "$rc" -eq 3 ] || { echo "error: expected exit 3 after stratified --stop-after, got $rc" >&2; exit 1; }

"$CAMPAIGN" resume "${STRAT[@]}" --batch 100 \
    --checkpoint "$WORK/strat.ckpt" --out "$WORK/strat_resumed.stats"

"$CAMPAIGN" merge "$WORK/strat.ckpt" --out "$WORK/strat_merged.stats"

grep -q '^sampler stratified(' "$WORK/strat_full.stats" || {
  echo "FAIL: stratified stats missing the sampler identity line" >&2; exit 1; }
grep -q '^stratum ' "$WORK/strat_full.stats" || {
  echo "FAIL: stratified stats missing the per-stratum section" >&2; exit 1; }

if diff -u "$WORK/strat_full.stats" "$WORK/strat_resumed.stats" &&
   diff -u "$WORK/strat_full.stats" "$WORK/strat_merged.stats"; then
  echo "PASS: stratified kill/resume and merge are bit-identical"
else
  echo "FAIL: stratified resume or merge diverged from the uninterrupted run" >&2
  exit 1
fi
