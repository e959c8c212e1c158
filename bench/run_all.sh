#!/usr/bin/env bash
# Runs every harness that records a bench trajectory and collects their
# BENCH_*.json records (common schema: bench/bench_json.h) in one directory.
#
#   bench/run_all.sh [BUILD_DIR] [OUT_DIR]
#
# Defaults: BUILD_DIR=build, OUT_DIR=. (the repo root, where the committed
# baselines live). WIDEN_BENCH_FULL=1 switches every harness to its full
# profile; the default fast profile finishes in a few minutes on one core.
# Compare two runs with:
#
#   ./build/tools/bench_diff baseline/BENCH_kernels.json BENCH_kernels.json
#
# Exits non-zero if any harness fails (obs_bench only fails under
# WIDEN_OBS_ENFORCE=1 when the <2% observability budget is exceeded).

set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-.}"

if [ ! -x "$BUILD_DIR/bench/micro_kernels" ]; then
  echo "error: $BUILD_DIR/bench/micro_kernels not built;" \
       "run: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 2
fi
mkdir -p "$OUT_DIR"

# A trimmed filter keeps the fast profile fast: the full micro_kernels sweep
# (every shape x thread-count) is minutes of pure benchmark repetition. The
# filtered set still covers the dense kernels, both sampling paths, and the
# serving-attention path that the roofline profiler prices.
KERNEL_FILTER='BM_(MatMul|MatMulScalar|MatMulGrad|MatMulEncoder|MatMulEncoderGrad|SegmentAttention|SoftmaxRowsGrad|AttentionSingleQuery|WideSampling|DeepWalkSampling)'
if [ "${WIDEN_BENCH_FULL:-0}" = "1" ]; then
  KERNEL_FILTER='.'
fi

echo "== micro_kernels =="
"$BUILD_DIR/bench/micro_kernels" \
  --widen_out "$OUT_DIR/BENCH_kernels.json" \
  --benchmark_filter="$KERNEL_FILTER" \
  --benchmark_min_time=0.05

echo "== serving_bench =="
"$BUILD_DIR/bench/serving_bench" "$OUT_DIR/BENCH_serving.json"

echo "== obs_bench =="
"$BUILD_DIR/bench/obs_bench" "$OUT_DIR/BENCH_obs.json"

# Spawns an in-process socket server and drives it with mixed Embed/Predict/
# Ingest traffic (closed + open loop, hot reload, drain under load). Exits
# non-zero if any admitted request goes unanswered.
echo "== load_bench =="
"$BUILD_DIR/bench/load_bench" --out "$OUT_DIR/BENCH_load.json"

# Streams a synthetic heterogeneous graph into a sharded store, sweeps it
# shard-by-shard through the halo-cached sampler, and checks that training
# through the mmap'd store is bitwise identical to the in-RAM sampler
# (--enforce makes a parity break fail the run; it is deterministic, not a
# timing judgment). RSS is recorded but only enforced in the full profile —
# sanitizer and debug builds inflate it.
echo "== scale_bench =="
"$BUILD_DIR/bench/scale_bench" --train --enforce \
  --json "$OUT_DIR/BENCH_scale.json"

echo "bench records in $OUT_DIR: BENCH_kernels.json BENCH_serving.json" \
     "BENCH_obs.json BENCH_load.json BENCH_scale.json"
