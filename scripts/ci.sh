#!/usr/bin/env sh
# CI matrix: builds the tree three times — Release (invariants compiled
# out), RelWithDebInfo under ASan+UBSan (invariants live), and TSan over
# the concurrency-heavy suites (frame pool caches, async step engine, RPC
# signaling, MPlugin long poll/wake) — with warnings as errors throughout, runs the full test
# suite in the first two, then gates on protocol conformance: a fresh
# 150-step hybrid MOST trace must pass nees_lint, a 200-seed sharded fuzz
# campaign (two forked workers, campaign template mix, all oracles, ASan +
# live invariants) must come back clean — on failure nees_fuzz prints the
# failing seed, the shrunk fault schedule, and the replay command — and
# the committed regression corpus (pinned seeds + shrunk masks,
# docs/RECOVERY.md) replays under the same sanitizers. The end-to-end
# benchmark (perfbench/) builds from this checkout and runs each of its
# four workloads for one second, each of which must come back correct with
# no failed operation. Finally a docs
# check fails if README/EXPERIMENTS reference a bench JSON key that no
# longer exists in the committed BENCH_*.json files, or if a doc's quoted
# headline number (bench-cite comments) drifts from the committed JSON,
# and two perf gates re-measure the step engine and the fuzz campaign
# against their committed trajectories.
#
#   scripts/ci.sh [build-dir-prefix]     # default: <repo>/build-ci
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
prefix="${1:-$repo/build-ci}"
jobs="$(nproc 2>/dev/null || echo 4)"

run_config() {
  build="$1"
  shift
  echo
  echo "######## configure $build ########"
  cmake -B "$build" -S "$repo" -DNEES_WERROR=ON "$@"
  cmake --build "$build" -j "$jobs"
  (cd "$build" && ctest --output-on-failure -j "$jobs")
}

# Release compiles the lockdep runtime out (NEES_LOCKDEP=AUTO): the bench
# binaries under $prefix-release/bench ship without instrumentation, which
# the check after the matrix asserts. The asan tree pins NEES_LOCKDEP=ON so
# the lock-order checker runs composed with ASan/UBSan across the whole
# suite and the fuzz legs below.
run_config "$prefix-release" -DCMAKE_BUILD_TYPE=Release
run_config "$prefix-asan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
           "-DNEES_SANITIZE=address;undefined" -DNEES_LOCKDEP=ON

echo
echo "######## configure $prefix-tsan (concurrency suites) ########"
cmake -B "$prefix-tsan" -S "$repo" -DNEES_WERROR=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DNEES_SANITIZE=thread
cmake --build "$prefix-tsan" -j "$jobs" \
      --target util_test net_test ntcp_test psd_test plugins_test most_test \
               farm_test nees_farm_cli
# The suites that exercise real threads: the frame pool's per-thread
# caches trading with its depot across threads, the completion-driven step
# engine vs thread-per-site, per-call RPC signaling, the MPlugin
# long-poll/wake handshake, the full MOST assembly over the kScheduled
# network, and the multi-tenant farm's worker pool + swarm shards over one
# shared fabric.
for suite in util_test net_test ntcp_test psd_test plugins_test most_test \
             farm_test; do
  echo "-- tsan: $suite"
  "$prefix-tsan/tests/$suite" --gtest_brief=1
done

echo
echo "######## nees_farm smoke wave (TSan) ########"
# A mixed tenant wave plus a sharded CHEF swarm on the TSan build: many
# namespaced experiments racing over one container/registry/NSDS/CHEF
# host is the farm's whole concurrency story, so it runs instrumented.
"$prefix-tsan/tools/nees_farm" --tenants 12 --mix mixed --workers 4 \
                               --swarm 200 --swarm-shards 4

echo
echo "######## lockdep lock-order report (nees_locks) ########"
# Clean pass on the standard workload (threaded MOST run + virtual-time
# fuzz block), then prove the detector end to end: a deliberately injected
# inversion must come back nonzero.
"$prefix-asan/tools/nees_locks" --steps 60 --seeds 3
if "$prefix-asan/tools/nees_locks" --inject-inversion > /dev/null 2>&1; then
  echo "lockdep check FAILED: injected inversion was not detected" >&2
  exit 1
fi
echo "injected inversion detected (nonzero exit) -- detector is live"

echo
echo "######## clang -Wthread-safety leg (build-only, needs clang) ########"
if command -v clang++ > /dev/null 2>&1; then
  cmake -B "$prefix-tsa" -S "$repo" -DCMAKE_CXX_COMPILER=clang++ \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DNEES_THREAD_SAFETY=ON \
        -DNEES_WERROR=ON
  cmake --build "$prefix-tsa" -j "$jobs"
  echo "thread-safety leg OK (zero -Wthread-safety findings)"
else
  echo "clang++ not on PATH: skipping the -Wthread-safety leg"
fi

echo
echo "######## clang-tidy leg (.clang-tidy profile, needs clang-tidy) ########"
if command -v clang-tidy > /dev/null 2>&1; then
  # The release tree's compile_commands.json carries no sanitizer flags.
  find "$repo/src" "$repo/tools" -name '*.cpp' -print0 |
    xargs -0 -P "$jobs" -n 8 clang-tidy -p "$prefix-release" --quiet
  echo "clang-tidy leg OK"
else
  echo "clang-tidy not on PATH: skipping the clang-tidy leg"
fi

echo
echo "######## perfbench correctness checks (checks_test) ########"
# The end-to-end benchmark (perfbench/, BENCHMARK.json) is its own CMake
# project; configure it into its own tree and prove each workload's
# correctness check rejects a perturbed result.
cmake -S "$repo/perfbench" -B "$prefix-perfbench" -DCMAKE_BUILD_TYPE=Release
cmake --build "$prefix-perfbench" -j "$jobs" --target checks_test
"$prefix-perfbench/checks_test"

echo
echo "######## perfbench smoke (each workload, 1 s, untraced) ########"
# The benchmark builds against src/ from this checkout; a src/ change that
# breaks its build (a renamed call the benchmark makes) or its results (a
# workload that now fails its correctness check or an operation) fails
# here rather than in the next benchmark comparison. The last line of a
# run is its JSON result.
cmake --build "$prefix-perfbench" -j "$jobs" --target nees_perfbench
for workload in most-paper wide-32 farm-100 fuzz-campaign; do
  result="$("$prefix-perfbench/nees_perfbench" --workload "$workload" \
    --seed 1 --seconds 1 --trace 0 --workdir "$prefix-perfbench/smoke" |
    tail -n 1)"
  case "$result" in
    '{"correct": true, "attempted": '*', "failed": 0, "metrics": '*)
      echo "perfbench $workload: correct, 0 failed" ;;
    *)
      echo "perfbench $workload smoke failed: $result" >&2
      exit 1 ;;
  esac
done

echo
echo "######## nees_lint on a fresh most_experiment trace ########"
trace="$prefix-asan/most_trace.jsonl"
"$prefix-asan/examples/most_experiment" 150 "$trace" > /dev/null
"$prefix-asan/tools/nees_lint" "$trace"

echo
echo "######## nees_fuzz campaign smoke (200 seeds, 2 workers, ASan) ########"
# The sharded sweep driver end to end: fork two workers, each owning a
# deterministic shard of the seed range (campaign mix: mini-dominated,
# with standard / full-MOST / centrifuge shapes riding along), merge their
# JSON reports, fail if any worker dies or any seed fails an oracle. The
# asan tree runs with NEES_LOCKDEP=ON, so every seed also checks oracle 5:
# no lock-order inversion, wait-while-holding, or blocking RPC under a
# lock anywhere in the run.
"$prefix-asan/tools/nees_fuzz" --campaign --seeds 200 --workers 2

echo
echo "######## regression corpus replay (pinned seeds, ASan) ########"
# Every pinned (seed, mask, template) triple in the committed corpus runs
# the thorough path: full artifacts, all oracles, double-run determinism.
# Includes the WAL-recovery pins (25/187/49/44, docs/RECOVERY.md), the
# all-seven-fault-classes schedule (11), and the centrifuge retry-ladder
# regressions with their shrunk masks (3/120).
"$prefix-asan/tools/nees_fuzz" --corpus "$repo/tests/data/fuzz_corpus.txt"

echo
echo "######## docs vs bench JSON key check ########"
# Drift gate: every BENCH_*.json the docs cite must be committed, and
# every JSON key the README/EXPERIMENTS tables are derived from must
# still exist in it — renaming a key without refreshing the docs (and
# this list) fails here.
docs_fail=0
for ref in $(grep -ho 'BENCH_[a-z_]*\.json' "$repo/README.md" \
             "$repo/EXPERIMENTS.md" "$repo"/docs/*.md | sort -u); do
  if [ ! -f "$repo/$ref" ]; then
    echo "docs check: $ref is cited by the docs but not committed" >&2
    docs_fail=1
  fi
done
require_keys() {
  file="$1"
  shift
  for key in "$@"; do
    if ! grep -q "\"$key\":" "$repo/$file"; then
      echo "docs check: $file lost key '$key' still cited by the docs" >&2
      docs_fail=1
    fi
  done
}
require_keys BENCH_step_engine.json sites engine mode steps_per_sec \
             propose_phase_ms_mean execute_phase_ms_mean threads_spawned \
             frames_per_step wal wal_records completed
require_keys BENCH_fuzz.json seeds failures wall_seconds seeds_per_hour \
             virtual_events events_per_second site_crashes site_recoveries \
             transactions_recovered inflight_failed \
             campaign_seeds campaign_failures campaign_checked \
             campaign_wall_seconds campaign_seeds_per_hour \
             campaign_virtual_events campaign_events_per_second \
             campaign_mini campaign_standard campaign_full_most \
             campaign_centrifuge campaign_frames_corrupted \
             campaign_auth_refreshes
require_keys BENCH_farm.json tenants experiments_per_sec \
             experiments_per_sec_100 peak_services services_after_reap \
             experiments_per_sec_100_1w experiments_per_sec_100_2w \
             experiments_per_sec_100_4w \
             mixed_tenants mixed_experiments_per_sec swarm_participants \
             swarm_participants_per_sec swarm_failures

# Stale-number gate: headline figures quoted in prose carry a
# machine-readable citation next to them,
#   <!-- bench-cite: FILE KEY VALUE TOL% -->
# and this leg fails if the committed JSON's value for KEY has drifted
# outside VALUE +/- TOL% — i.e. someone regenerated the bench without
# refreshing the prose, or edited the prose without regenerating.
cites="$prefix-asan/bench_cites.txt"
grep -ho 'bench-cite: [^>]*' "$repo/README.md" "$repo/EXPERIMENTS.md" \
     "$repo"/docs/*.md > "$cites" || true
while read -r _ cite_file cite_key cite_value cite_tol; do
  # cite_tol may carry the comment closer ("35% -->"): keep the number.
  cite_tol="${cite_tol%\%*}"
  actual="$(grep -o "\"$cite_key\": [0-9.]*" "$repo/$cite_file" 2>/dev/null \
            | head -1 | awk '{print $2}')"
  if [ -z "$actual" ]; then
    echo "bench-cite: $cite_file has no key '$cite_key'" >&2
    docs_fail=1
    continue
  fi
  if ! awk -v a="$actual" -v c="$cite_value" -v t="$cite_tol" \
       'BEGIN { d = a - c; if (d < 0) d = -d; exit !(d <= t / 100.0 * c) }'
  then
    echo "bench-cite drift: $cite_file $cite_key is $actual, docs cite" \
         "$cite_value (tol $cite_tol%)" >&2
    docs_fail=1
  fi
done < "$cites"
[ "$docs_fail" -eq 0 ] || { echo "docs check FAILED" >&2; exit 1; }
echo "docs check OK"

# Release benches must exist and carry no lockdep instrumentation (exit 3
# is nees_locks' "compiled out" marker, proving NEES_LOCKDEP=AUTO resolved
# to off for the whole Release tree).
test -x "$prefix-release/bench/bench_step_engine"

echo
echo "######## step-engine perf regression gate ########"
# Quick gate: re-measures the 32-site async immediate point (best of two
# sub-second runs) and fails if it lands more than 20% below the committed
# BENCH_step_engine.json trajectory.
"$prefix-release/bench/bench_step_engine" --quick "$repo/BENCH_step_engine.json"

echo
echo "######## fuzz campaign throughput regression gate ########"
# Same pattern for the fuzzer: a short campaign-mix sample (best of two)
# must not land more than 20% below the committed campaign_seeds_per_hour
# in BENCH_fuzz.json.
"$prefix-release/bench/bench_fuzz" --quick "$repo/BENCH_fuzz.json"

echo
echo "######## farm tenancy throughput regression gate ########"
# And for the farm: a 100-tenant Mini-MOST wave (best of two) must not
# land more than 20% below the committed experiments_per_sec_100 in
# BENCH_farm.json.
"$prefix-release/bench/bench_farm" --quick "$repo/BENCH_farm.json"

if "$prefix-release/tools/nees_locks" > /dev/null 2>&1; then rc=0; else rc=$?; fi
if [ "$rc" -ne 3 ]; then
  echo "Release tree unexpectedly has lockdep compiled in (rc=$rc)" >&2
  exit 1
fi
echo "Release benches built with lockdep compiled out"

echo
echo "CI matrix green: Release + ASan/UBSan+lockdep + TSan (+ Clang legs"
echo "when available), tests + lock-order report + conformance lint +"
echo "200-seed fuzz smoke + crash-restart leg + docs check."
