#!/usr/bin/env bash
# CI entry point: tier-1 verify (full build + test suite), then the §6
# experiments E8/E9 (each exits 1 when its GDN-maintained view differs from
# recomputation) and E12 (exits 1 when an inline or deferred-drain view is
# inconsistent with its source), then the paper's §5 shapes E3/E4/E7 (all
# inline: every event a drain of one; each exits 1 on an inconsistent view),
# then a smoke run of the six examples, then a quick
# perf smoke of the label-index speedup experiment (catches silent index
# regressions that correctness tests cannot see), then a short run of each
# perfbench workload (exits non-zero on a gate mismatch), then a release-build
# stress stage that repeats the paged writeback hammer, the engine twins,
# the replication suite, the kill-mid-batch crash test, the sharded
# warehouse, sharded twin and fault-convergence suites and the GDN twins (a
# §6 network runs on its host shard in parallel with the peer shards) 20
# times (rare interleavings), then an Address+UB-Sanitizer build of the
# robustness and fault-injection tests
# (the quarantine/resync error paths are where lifetime bugs hide — and the
# durability suite's randomized kill-mid-batch crash test and the
# replication suite's kill-mid-ship twin test with them), then a
# ThreadSanitizer build of the batch-engine, index-concurrency,
# paged-writeback and OID-interner tests to prove the parallel drain, the
# lock-free snapshot publication, the background writeback thread and the
# interner's growth under readers are race-free. The
# discrimination-network (gdn) suite rides along in BOTH sanitizer stages.
# Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"

echo "=== tier-1: configure + build + ctest ==="
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

echo
echo "=== §6 experiments on the GDN: E8 path expressions + E9 DAG bases (exit 1 on a wrong view) ==="
./build/bench/exp8_path_expressions
./build/bench/exp9_dag

echo
echo "=== E12: inline vs coalescing deferred drains (exit 1 on an inconsistent view) ==="
./build/bench/exp12_deferred_compaction

echo
echo "=== paper §5 shapes, inline: E3 reporting levels, E4 caching, E7 path knowledge (exit 1 on an inconsistent view) ==="
./build/bench/exp3_reporting_levels
./build/bench/exp4_aux_caching
./build/bench/exp7_path_knowledge

echo
echo "=== examples smoke: every example runs to exit 0 (prints the cost sheets) ==="
# From a throwaway directory, so files an example writes stay out of the tree.
EXAMPLES_BIN="$(pwd)/build/examples"
EXAMPLES_DIR="$(mktemp -d)"
for example in quickstart paper_walkthrough web_cache access_control \
    warehouse_demo extensions_tour; do
  if ! (cd "${EXAMPLES_DIR}" && "${EXAMPLES_BIN}/${example}" >/dev/null); then
    echo "example ${example} exited non-zero"
    exit 1
  fi
done
rm -rf "${EXAMPLES_DIR}"

echo
echo "=== perf-smoke: index speedup floor (E15 --smoke, 1.5x bar) ==="
./build/bench/exp15_index_speedup --smoke

echo
echo "=== recovery-smoke: checkpoint+WAL restart floor (E16 --smoke, 1.5x bar) ==="
./build/bench/exp16_recovery --smoke

echo
echo "=== perf-smoke: shard scaling floor (E17 --smoke, 1.5x bar) ==="
./build/bench/exp17_shard_scaling --smoke

echo
echo "=== replication-smoke: follower catch-up floor (E18 --smoke, 1.5x bar) ==="
./build/bench/exp18_replication --smoke

echo
echo "=== perf-smoke: beyond-RAM paged store floors (E19 --smoke, 4x footprint) ==="
./build/bench/exp19_paged_store --smoke

echo
echo "=== perf-smoke: paged hot-path floors (E20 --smoke: writeback/swizzle/codec) ==="
./build/bench/exp20_paged_hotpath --smoke

echo
echo "=== perf-smoke: discrimination-network floor (E21 --smoke, 1.5x bar) ==="
./build/bench/exp21_gdn --smoke

echo
echo "=== pipeline smoke: every perfbench workload, 6 s each (exit non-zero on a gate mismatch) ==="
# The only check that drives the whole pipeline (ingest, drains, WAL,
# checkpoints, restarts, a polled follower) on the memory engine at K=1 and
# K=4; each run checks its views against the recompute, the follower
# against the primary, and every restart.
for workload in tree-alg1 dag-gdn-paged serve-k4-replica; do
  python3 perfbench/run.py --workload "${workload}" --seed 1 --seconds 6 \
    --trace 0 >/dev/null
done

echo
echo "=== paged: recovery + replication + engine suites on the PagedEngine ==="
# The same durability and replication properties, with every warehouse
# delegate store and follower re-pointed at the on-disk paged engine
# (tiny pool, so eviction runs constantly) through the env seam.
GSV_STORAGE_ENGINE=paged:8:4096 \
  ctest --test-dir build --output-on-failure -j "${JOBS}" -L paged

echo
echo "=== paged-compressed: the same suites with the gsvz codec on every page ==="
# Second pass through the env seam with compression in the writeback
# path: encode/decode now sit on every eviction and fault, so the twin
# byte-identity and crash-recovery properties vet the codec end to end.
GSV_STORAGE_ENGINE=paged:8:4096:compressed \
  ctest --test-dir build --output-on-failure -j "${JOBS}" -L paged

echo
echo "=== stress: paged writeback, replication, kill-mid-batch, sharded twins and resync, hosted GDN networks: 20 repetitions (release build) ==="
# The writeback thread races the mutator on every eviction, steal and
# flush; an interleaving that rolls a page back shows up only now and
# then, so the hammer and the engine twins run many times over.
./build/tests/gsv_paged_concurrency_test --gtest_repeat=20 --gtest_brief=1
./build/tests/gsv_storage_engine_test --gtest_filter='EngineTwinTest.*' \
  --gtest_repeat=20 --gtest_brief=1
# The shared redo path (frame decoder, view-record redo, segment retention)
# under recovery and the follower: the replication suite and the randomized
# kill-mid-batch crash test, 20 repetitions each.
./build/tests/gsv_replication_test --gtest_repeat=20 --gtest_brief=1
./build/tests/gsv_recovery_test \
  --gtest_filter='WarehouseDurabilityTest.RandomizedKillMidBatchConvergesByteIdentical' \
  --gtest_repeat=20 --gtest_brief=1
# Quarantine and resync at K=1 and K=4: the resync recompute is the only
# heal, and at K=4 its refresh exports carry peers' missed updates. The
# fault-free K=4 twins must match K=1 and the recompute at every drain,
# whichever order the pool lands the cross-shard ops in.
./build/tests/gsv_warehouse_test --gtest_filter='ShardedWarehouseTest.*' \
  --gtest_repeat=20 --gtest_brief=1
./build/tests/gsv_batch_test --gtest_filter='ShardedTwinTest.*' \
  --gtest_repeat=20 --gtest_brief=1
./build/tests/gsv_fault_tolerance_test \
  --gtest_filter='FaultConvergenceTest.*' --gtest_repeat=20 --gtest_brief=1
# A §6 view's network runs on its host shard during phase A, in parallel
# with the peer shards' drains: the K=4 GDN twins and the sharded restart.
./build/tests/gsv_ivm_test \
  --gtest_filter='*GdnPropertyTest.*:GdnDurabilityTest.Sharded*' \
  --gtest_repeat=20 --gtest_brief=1

echo
echo "=== asan: robustness + fault-injection + durability + replication tests under address;undefined ==="
cmake -B build-asan -S . -DGSV_SANITIZE="address;undefined" >/dev/null
cmake --build build-asan -j "${JOBS}" --target gsv_robustness_test \
  --target gsv_fault_tolerance_test --target gsv_recovery_test \
  --target gsv_replication_test --target gsv_storage_engine_test \
  --target gsv_ivm_test
# The gdn suite runs under ASan too: recovery rebuilds every network over
# a freshly restored base, and poisoned networks rebuild in place.
ctest --test-dir build-asan --output-on-failure -j "${JOBS}" -L 'asan|gdn'

echo
echo "=== tsan: batch-engine + index-concurrency + paged-writeback + OID-interner tests under -fsanitize=thread ==="
cmake -B build-tsan -S . -DGSV_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "${JOBS}" --target gsv_batch_test \
  --target gsv_index_concurrency_test --target gsv_paged_concurrency_test \
  --target gsv_oid_table_test --target gsv_ivm_test
# The gdn suite runs under TSan too: a parallel drain propagates many
# networks concurrently against one frozen source.
ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" -L 'tsan|gdn'

echo
echo "ci.sh: all checks passed"
