#!/usr/bin/env bash
# CI entry point: invariant linter first (fails in seconds), then build + test
# the default configuration, again under ASan+UBSan, the data-plane suites in
# a Debug build, then the cheap end-to-end checks (CLI determinism, golden
# decisions, microbenchmark speedup bars).
set -euo pipefail
cd "$(dirname "$0")"

jobs=$(nproc 2>/dev/null || echo 2)

echo "=== invariant linter (self-test, then all six checks) ==="
python3 tools/lint_invariants.py --self-test
python3 tools/lint_invariants.py --check=all --max-waivers=2

echo "=== default build (RelWithDebInfo) ==="
cmake -B build -S . >/dev/null
cmake --build build -j "${jobs}"
(cd build && ctest --output-on-failure -j "${jobs}")

echo "=== sanitized build (ASan + UBSan) ==="
cmake -B build-asan -S . -DMAYFLOWER_SANITIZE=ON >/dev/null
cmake --build build-asan -j "${jobs}"
(cd build-asan && ctest --output-on-failure -j "${jobs}")

echo "=== debug build (data-plane and view tests, debug cross-checks live) ==="
# The lanes above build RelWithDebInfo, which defines NDEBUG, so FlowSim's
# check of every incremental recompute against a full solve, and the flow
# table's check of every change-log sync of the decision view against a
# fresh copy of the whole table, never run there. This lane builds only the
# suites that drive the data plane and the view's refresh.
debug_tests="test_flow_sim test_fault test_sdn test_harness test_fs_cluster test_write_path test_network_view test_flow_state test_view_refresh"
cmake -B build-debug -S . -DCMAKE_BUILD_TYPE=Debug >/dev/null
# shellcheck disable=SC2086
cmake --build build-debug -j "${jobs}" --target ${debug_tests}
for t in ${debug_tests}; do
  ./build-debug/tests/"${t}" --gtest_brief=1
done

echo "=== mayflower_sim determinism (same seed => identical report) ==="
./build/tools/mayflower_sim --jobs=220 --warmup=20 --files=60 --seeds=7 >/tmp/mayflower_sim_run1.txt
./build/tools/mayflower_sim --jobs=220 --warmup=20 --files=60 --seeds=7 >/tmp/mayflower_sim_run2.txt
diff /tmp/mayflower_sim_run1.txt /tmp/mayflower_sim_run2.txt
echo "identical"

echo "=== metrics export determinism + schema (same seed => identical JSON) ==="
./build/tools/mayflower_sim --jobs=220 --warmup=20 --files=60 --seeds=7 \
    --metrics-out=/tmp/mayflower_metrics_run1.json >/dev/null
./build/tools/mayflower_sim --jobs=220 --warmup=20 --files=60 --seeds=7 \
    --metrics-out=/tmp/mayflower_metrics_run2.json >/dev/null
diff /tmp/mayflower_metrics_run1.json /tmp/mayflower_metrics_run2.json
python3 tools/check_metrics.py /tmp/mayflower_metrics_run1.json
echo "identical"

echo "=== golden decisions (fig4/fig6 reports + fig4 metrics hash) ==="
# The other identity gates diff a binary against itself or a flag variant
# of itself, so a change that moves every decision the same way on every
# run passes them; this one diffs against committed references. The metrics
# JSON's per-flow traces carry planned bandwidths and start/end times to the
# nanosecond. References come from the default RelWithDebInfo build (GCC,
# x86-64); a change meant to move decisions re-captures all three with the
# commands used here and says why.
diff tests/golden/fig4_report.txt /tmp/mayflower_sim_run1.txt
./build/tools/mayflower_sim --jobs=160 --warmup=20 --files=60 --seeds=11 \
    --lambda=4.0 >/tmp/mayflower_sim_fig6_golden.txt
diff tests/golden/fig6_report.txt /tmp/mayflower_sim_fig6_golden.txt
echo "$(cat tests/golden/fig4_metrics.sha256)  /tmp/mayflower_metrics_run1.json" |
    sha256sum -c -
echo "identical"

echo "=== FlowSim incremental-vs-full solve microbenchmark (>= 5x bar) ==="
./build/bench/micro_link_index

echo "=== fault bench determinism (same seeds => identical table) ==="
./build/bench/fault_degradation >/tmp/mayflower_fault_run1.txt
./build/bench/fault_degradation >/tmp/mayflower_fault_run2.txt
diff /tmp/mayflower_fault_run1.txt /tmp/mayflower_fault_run2.txt
echo "identical"

echo "=== batched admission bench (>= 2x bar, golden + deterministic decisions) ==="
# The batch-16 read decisions are pinned by hash in tests/golden/: batched
# drains are the one path that exercises the batch pipeline's pre-drawn
# cookies, per-slot rollback and in-order replay at paper scale.
./build/bench/micro_selector --batch >/tmp/mayflower_batch_run1.txt
echo "$(cat tests/golden/micro_selector_batch.sha256)  /tmp/mayflower_batch_run1.txt" |
    sha256sum -c -
./build/bench/micro_selector --batch >/tmp/mayflower_batch_run2.txt
diff /tmp/mayflower_batch_run1.txt /tmp/mayflower_batch_run2.txt
echo "deterministic"

echo "=== unconstrained poll budget is a byte-identical no-op ==="
# A budget large enough to admit every sample (with mouse-period 1) applies
# exactly what legacy full-rate polling applies, so it must not move a
# single decision, sample, or metric — only the "telemetry" report lines
# and the classifier's four flowserver.poll.* keys may differ (DESIGN.md
# §14).
./build/tools/mayflower_sim --jobs=220 --warmup=20 --files=60 --seeds=7 \
    --poll-budget=1000000000 --mouse-period=1 >/tmp/mayflower_sim_budget_inf.txt
diff /tmp/mayflower_sim_run1.txt \
     <(grep -v "^telemetry" /tmp/mayflower_sim_budget_inf.txt)
./build/tools/mayflower_sim --jobs=220 --warmup=20 --files=60 --seeds=7 \
    --poll-budget=1000000000 --mouse-period=1 \
    --metrics-out=/tmp/mayflower_metrics_budget_inf.json >/dev/null
python3 tools/check_metrics.py \
    --same-obs /tmp/mayflower_metrics_run1.json \
               /tmp/mayflower_metrics_budget_inf.json \
    --ignore flowserver.poll.promotions --ignore flowserver.poll.demotions \
    --ignore flowserver.poll.elephants --ignore flowserver.poll.mice
echo "identical"

echo "=== constrained poll budget: deterministic + coherent metrics ==="
# Both runs write to the same --metrics-out path (first JSON is copied
# aside) so the "wrote metrics to ..." report line is identical too.
./build/tools/mayflower_sim --jobs=160 --warmup=20 --files=60 --seeds=11 \
    --lambda=4.0 --poll-budget=8 --mouse-period=4 \
    --metrics-out=/tmp/mayflower_metrics_budget8.json \
    >/tmp/mayflower_sim_budget8_run1.txt
cp /tmp/mayflower_metrics_budget8.json /tmp/mayflower_metrics_budget8_run1.json
./build/tools/mayflower_sim --jobs=160 --warmup=20 --files=60 --seeds=11 \
    --lambda=4.0 --poll-budget=8 --mouse-period=4 \
    --metrics-out=/tmp/mayflower_metrics_budget8.json \
    >/tmp/mayflower_sim_budget8_run2.txt
diff /tmp/mayflower_sim_budget8_run1.txt /tmp/mayflower_sim_budget8_run2.txt
diff /tmp/mayflower_metrics_budget8_run1.json \
     /tmp/mayflower_metrics_budget8.json
python3 tools/check_metrics.py /tmp/mayflower_metrics_budget8_run1.json
echo "deterministic"

echo "=== adaptive telemetry bench (>= 5x samples cut within 2x belief error) ==="
./build/bench/micro_telemetry >/tmp/mayflower_telemetry_run1.txt
./build/bench/micro_telemetry >/tmp/mayflower_telemetry_run2.txt
diff /tmp/mayflower_telemetry_run1.txt /tmp/mayflower_telemetry_run2.txt
echo "deterministic"

echo "=== metrics export on a fat-tree (schema + coherence) ==="
./build/tools/mayflower_sim --jobs=60 --warmup=10 --files=30 --seeds=7 \
    --topology=fat_tree --fat-k=8 \
    --metrics-out=/tmp/mayflower_metrics_fat_tree.json >/dev/null
python3 tools/check_metrics.py /tmp/mayflower_metrics_fat_tree.json

echo "=== metadata flags alone change nothing (byte identity, meta-ops=0) ==="
# With no metadata ops requested the meta plane is never built, so the
# seeded fig4-style report and metrics must match the default run exactly.
./build/tools/mayflower_sim --jobs=220 --warmup=20 --files=60 --seeds=7 \
    --meta-shards=1 --meta-partition=hash >/tmp/mayflower_sim_meta0.txt
diff /tmp/mayflower_sim_run1.txt /tmp/mayflower_sim_meta0.txt
./build/tools/mayflower_sim --jobs=220 --warmup=20 --files=60 --seeds=7 \
    --meta-shards=1 --meta-partition=hash \
    --metrics-out=/tmp/mayflower_metrics_meta0.json >/dev/null
diff /tmp/mayflower_metrics_run1.json /tmp/mayflower_metrics_meta0.json
echo "identical"

echo "=== metadata plane leaves the data path untouched (shards 0, 1, 4) ==="
# Running a metadata workload alongside the main experiment must not move a
# single flow or decision: only the "meta " report lines and the per-run
# meta_obs export may differ between shard counts. Shards 0 is the single
# classic nameserver, which exports fs.nameserver.* and no shard map.
for shards in 0 1 4; do
  ./build/tools/mayflower_sim --jobs=220 --warmup=20 --files=60 --seeds=7 \
      --meta-shards="${shards}" --meta-ops=2000 --meta-async \
      --metrics-out=/tmp/mayflower_metrics_meta_s"${shards}".json \
      >/tmp/mayflower_sim_meta_s"${shards}".txt
  python3 tools/check_metrics.py /tmp/mayflower_metrics_meta_s"${shards}".json
done
for shards in 0 4; do
  diff <(grep -v "^meta \|^wrote metrics" /tmp/mayflower_sim_meta_s1.txt) \
       <(grep -v "^meta \|^wrote metrics" /tmp/mayflower_sim_meta_s"${shards}".txt)
  python3 tools/check_metrics.py --same-obs /tmp/mayflower_metrics_meta_s1.json \
      /tmp/mayflower_metrics_meta_s"${shards}".json
done
# The classic nameserver with synchronous creates exports no meta.* name.
./build/tools/mayflower_sim --jobs=220 --warmup=20 --files=60 --seeds=7 \
    --meta-shards=0 --meta-ops=300 \
    --metrics-out=/tmp/mayflower_metrics_meta_classic.json >/dev/null
python3 tools/check_metrics.py /tmp/mayflower_metrics_meta_classic.json
echo "identical"

echo "=== write flags alone change nothing (byte identity, write-jobs=0) ==="
# With no write jobs requested the write phase never runs, and the legacy
# placement/transport selection (--write-placement=static --write-pipeline=off)
# is the code default, so the seeded fig4- and fig6-style reports and metrics
# must match the default runs exactly.
./build/tools/mayflower_sim --jobs=220 --warmup=20 --files=60 --seeds=7 \
    --write-placement=static --write-pipeline=off >/tmp/mayflower_sim_write0.txt
diff /tmp/mayflower_sim_run1.txt /tmp/mayflower_sim_write0.txt
./build/tools/mayflower_sim --jobs=220 --warmup=20 --files=60 --seeds=7 \
    --write-placement=static --write-pipeline=off \
    --metrics-out=/tmp/mayflower_metrics_write0.json >/dev/null
diff /tmp/mayflower_metrics_run1.json /tmp/mayflower_metrics_write0.json
./build/tools/mayflower_sim --jobs=160 --warmup=20 --files=60 --seeds=11 \
    --lambda=4.0 --write-placement=static --write-pipeline=off \
    >/tmp/mayflower_sim_fig6_write0.txt
diff tests/golden/fig6_report.txt /tmp/mayflower_sim_fig6_write0.txt
echo "identical"

echo "=== write phase leaves the main run untouched (schema + identity) ==="
# Running the write-heavy tenant alongside the main experiment must not move
# a single flow or decision of the main run: only the "write " report lines
# and the per-run write_obs export may appear.
./build/tools/mayflower_sim --jobs=220 --warmup=20 --files=60 --seeds=7 \
    --write-jobs=40 --write-placement=measured --write-pipeline=on \
    >/tmp/mayflower_sim_writephase.txt
diff /tmp/mayflower_sim_run1.txt \
     <(grep -v "^write \|^write path" /tmp/mayflower_sim_writephase.txt)
./build/tools/mayflower_sim --jobs=220 --warmup=20 --files=60 --seeds=7 \
    --write-jobs=40 --write-placement=measured --write-pipeline=on \
    --metrics-out=/tmp/mayflower_metrics_writephase.json >/dev/null
python3 tools/check_metrics.py /tmp/mayflower_metrics_writephase.json
python3 tools/check_metrics.py --same-obs /tmp/mayflower_metrics_run1.json \
    /tmp/mayflower_metrics_writephase.json
python3 - <<'EOF'
import json
for run in json.load(open("/tmp/mayflower_metrics_writephase.json"))["runs"]:
    chains = run["write_obs"]["counters"].get("flowserver.write.chains", 0)
    assert chains > 0, f"seed {run['seed']}: write phase planned no chains"
print("write_obs carries flowserver.write.*")
EOF
echo "identical"

echo "=== write-path bench (>= 2x bar + golden) ==="
# The bench exits non-zero unless pipelined+measured beats static fan-out by
# >= 2x mean append completion. The fig4/fig6 goldens run static placement,
# so the first run is diffed against tests/golden/ to pin the model and
# measured placements; the second diff pins rerun determinism.
./build/bench/write_path >/tmp/mayflower_write_run1.txt
diff tests/golden/write_path.txt /tmp/mayflower_write_run1.txt
./build/bench/write_path >/tmp/mayflower_write_run2.txt
diff /tmp/mayflower_write_run1.txt /tmp/mayflower_write_run2.txt
echo "identical"

echo "=== placement ablation (golden + same seeds => identical table) ==="
./build/bench/ablation_placement >/tmp/mayflower_ablation_run1.txt
diff tests/golden/ablation_placement.txt /tmp/mayflower_ablation_run1.txt
./build/bench/ablation_placement >/tmp/mayflower_ablation_run2.txt
diff /tmp/mayflower_ablation_run1.txt /tmp/mayflower_ablation_run2.txt
echo "identical"

echo "=== metadata scaling bench (>= 3x bar at 4 shards, async < sync) ==="
./build/bench/meta_scale >/tmp/mayflower_meta_run1.txt
./build/bench/meta_scale >/tmp/mayflower_meta_run2.txt
diff /tmp/mayflower_meta_run1.txt /tmp/mayflower_meta_run2.txt
echo "deterministic"

echo "=== background-flow sweep (golden + deterministic decisions) ==="
# The two fat-tree decision corpora below are pinned by hash in
# tests/golden/: the rerun diff alone would pass a change that moves every
# fat-tree decision the same way on every run.
./build/bench/micro_selector --flows >/tmp/mayflower_flows_run1.txt
echo "$(cat tests/golden/micro_selector_flows.sha256)  /tmp/mayflower_flows_run1.txt" |
    sha256sum -c -
./build/bench/micro_selector --flows >/tmp/mayflower_flows_run2.txt
diff /tmp/mayflower_flows_run1.txt /tmp/mayflower_flows_run2.txt
echo "deterministic"

echo "=== macro-scale fat-tree sweep (golden + deterministic decisions) ==="
./build/bench/macro_scale >/tmp/mayflower_macro_run1.txt
echo "$(cat tests/golden/macro_scale.sha256)  /tmp/mayflower_macro_run1.txt" |
    sha256sum -c -
./build/bench/macro_scale >/tmp/mayflower_macro_run2.txt
diff /tmp/mayflower_macro_run1.txt /tmp/mayflower_macro_run2.txt
echo "deterministic"

echo "=== benchmark's own tests (perfbench: harness identity, smoke runs) ==="
# perfbench/driver mirrors harness::run_experiment and fs::Cluster; its
# smoke runs of every workload, traced and untraced, fail on any divergence.
python3 perfbench/tests/test_perfbench.py

echo "=== formatting (clang-format, skipped when unavailable) ==="
if command -v clang-format >/dev/null 2>&1; then
  find src bench tests -name '*.cpp' -o -name '*.hpp' | sort | \
      xargs clang-format --dry-run -Werror
  clang-format --dry-run -Werror tools/*.cpp
  echo "formatted"
else
  echo "clang-format not installed; skipping"
fi

echo "=== static analysis (clang-tidy, skipped when unavailable) ==="
if command -v run-clang-tidy >/dev/null 2>&1; then
  run-clang-tidy -p build -quiet -j "${jobs}" \
      "$(pwd)/(src|bench|tools|tests)/.*\.cpp$"
  echo "tidy"
else
  echo "run-clang-tidy not installed; skipping"
fi

echo "CI OK"
