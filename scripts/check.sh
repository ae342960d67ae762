#!/usr/bin/env bash
# Repository check gate: normal build + full test suite, then a
# ThreadSanitizer build running the concurrency-sensitive tests (the
# parallel search engine, the heuristic memo, the synthesis fuzzer, and
# the cancellation/fault suites), then an AddressSanitizer build running
# the memory-sensitive tests (the copy-on-write table substrate and every
# operator path over it), then a fault-injection build (ASan +
# FOOFAH_FAULT_INJECTION=ON) running the faultinject-labeled robustness
# suite — deadline overshoot bounds and cancel-at-every-failure-point
# sweeps. The TSan stage also compiles the fault points in, so the same
# sweeps run under both sanitizers.
#
# The release and ThreadSanitizer builds treat warnings as errors
# (-DCMAKE_CXX_FLAGS=-Werror). The flag lives here, not in CMakeLists.txt,
# because the repository benchmark compiles src/ through add_subdirectory
# and a compiler warning must not fail a benchmark run. The
# AddressSanitizer builds go without it: with -fsanitize=address, GCC 12
# reports -Wmaybe-uninitialized inside libstdc++'s <regex>
# (bits/std_function.h:247 and :405, instantiated from
# src/ops/operators.cc).
#
# Stage 5 reuses the TSan + fault-injection configuration to run the
# stress-labeled synthesis-service suite: concurrent soak over the corpus,
# fault-pinned overload shedding, and worker-count determinism.
#
# Stage 6 is a quick perf smoke: the contacts example at threads=8 (the
# t8_k1 configuration of bench/frontier_corpus) is timed after a fixed
# warm-up against the smoke_ms baseline checked into BENCH_search.json and
# a >25% regression fails the gate (FOOFAH_SKIP_PERF_SMOKE=1 skips it).
#
# Stage 7 gates the streaming executor's bounded-memory claim: it builds
# foofah_apply and the apply_corpus bench, runs the in-process memcheck
# (tracked peak + RSS must stay flat across a 16x input growth), runs the
# CLI on a generated ~54 MB input under a hard address-space cap
# (ulimit -v) with a --memory-budget the executor must respect, and
# checks the peak_tracked_ratio recorded in the checked-in
# BENCH_apply.json.
#
# Stage 8 gates the generative scenario fuzzer: the fuzz-labeled unit
# suite, a double-run byte-identical determinism check of the foofah_fuzz
# CLI (same seed -> identical bundle directories), a fixed-seed 60-second
# fuzz soak that fails on any oracle violation (printing the shrunk
# repro), and the service determinism matrix (1/2/8 workers) replayed
# over a freshly generated corpus.
#
# Stage 9 gates the learned-guidance layer: the learn-labeled unit suite
# (differential byte-identity, snapshot round-trip, solve-rate floor), a
# mine-twice byte-identity check of the foofah_learn CLI, a verify pass
# over the mined snapshot, and a tamper-a-byte check that verify rejects.
# It reuses the stage-8 generated corpus when stage 8 ran; otherwise it
# generates the same 60-scenario seed-2 corpus itself.
#
# Stage 10 gates spill-to-disk graceful degradation: the in-process
# spillcheck (budgeted blocking run byte-identical to the in-memory run),
# then the CLI pushing a ~54 MB input through a Transpose-suffixed
# program under a 256 MB address-space cap with a 16 MB memory budget —
# it must succeed by spilling, stay under the budget, and match the
# unbudgeted output byte-for-byte — then the CLI unfolding 50 KB into
# ~9 MB under the same cap and budget, which must match the unbudgeted
# output too — and finally a fault-injection run
# (exec/spill_write armed) that must fail typed while leaving no output
# file and no temp/spill directories behind.
#
# Stage 11 gates exact counts: scripts/check_counts.py reruns the
# synth_batch workload of the repository benchmark at seeds 1 and 1017
# (traced for the layer counts, untraced for solved_frac) and fails on any
# difference from BENCH_counts.json. Timing cannot resolve a small
# regression on a shared host; these counts repeat exactly.
#
# Usage: scripts/check.sh [--skip-tsan] [--skip-asan] [--skip-fault]
#                         [--skip-stress] [--skip-perf] [--skip-exec]
#                         [--skip-fuzz] [--skip-learn] [--skip-spill]
#                         [--skip-counts]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"

# Stages 7-10 allocate scratch directories; one trap cleans up whichever
# exist at exit.
EXEC_TMP=""
FUZZ_TMP=""
LEARN_TMP=""
SPILL_TMP=""
cleanup() {
  [[ -n "${EXEC_TMP}" ]] && rm -rf "${EXEC_TMP}"
  [[ -n "${FUZZ_TMP}" ]] && rm -rf "${FUZZ_TMP}"
  [[ -n "${LEARN_TMP}" ]] && rm -rf "${LEARN_TMP}"
  [[ -n "${SPILL_TMP}" ]] && rm -rf "${SPILL_TMP}"
  return 0
}
trap cleanup EXIT

echo "== Release build (-Werror) + full ctest =="
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

SKIP_TSAN=0
SKIP_ASAN=0
SKIP_FAULT=0
SKIP_STRESS=0
SKIP_PERF="${FOOFAH_SKIP_PERF_SMOKE:-0}"
SKIP_EXEC=0
SKIP_FUZZ=0
SKIP_LEARN=0
SKIP_SPILL=0
SKIP_COUNTS=0
for arg in "$@"; do
  case "${arg}" in
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-asan) SKIP_ASAN=1 ;;
    --skip-fault) SKIP_FAULT=1 ;;
    --skip-stress) SKIP_STRESS=1 ;;
    --skip-perf) SKIP_PERF=1 ;;
    --skip-exec) SKIP_EXEC=1 ;;
    --skip-fuzz) SKIP_FUZZ=1 ;;
    --skip-learn) SKIP_LEARN=1 ;;
    --skip-spill) SKIP_SPILL=1 ;;
    --skip-counts) SKIP_COUNTS=1 ;;
    *) echo "unknown option: ${arg}" >&2; exit 2 ;;
  esac
done

if [[ "${SKIP_TSAN}" == 1 ]]; then
  echo "== TSan stage skipped =="
else
  echo "== ThreadSanitizer build + tsan-labeled tests =="
  cmake -B build-tsan -S . -DFOOFAH_TSAN=ON -DFOOFAH_FAULT_INJECTION=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_CXX_FLAGS=-Werror >/dev/null
  cmake --build build-tsan -j "${JOBS}" \
    --target parallel_search_test frontier_parallel_test \
    heuristic_cache_test synthesis_fuzz_test \
    cancellation_test fault_injection_test wrangler_session_test \
    service_test exec_diff_test guidance_snapshot_test
  ctest --test-dir build-tsan --output-on-failure -L tsan -j "${JOBS}"
fi

if [[ "${SKIP_ASAN}" == 1 ]]; then
  echo "== ASan stage skipped =="
else
  echo "== AddressSanitizer build + asan-labeled tests =="
  cmake -B build-asan -S . -DFOOFAH_ASAN=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-asan -j "${JOBS}" \
    --target table_test table_diff_test operators_test operators_oracle_test \
    operators_edge_test extension_ops_test table_cow_diff_test \
    synthesis_fuzz_test \
    cancellation_test service_soak_test \
    arena_test csv_test csv_stream_test exec_test exec_diff_test \
    exec_spill_test fuzz_generator_test fuzz_oracle_test generated_corpus_test \
    guidance_snapshot_test ted_test ted_batch_test heuristic_test \
    property_test
  ctest --test-dir build-asan --output-on-failure -L asan -j "${JOBS}"
fi

if [[ "${SKIP_FAULT}" == 1 ]]; then
  echo "== Fault-injection stage skipped =="
else
  echo "== Fault-injection build (ASan) + faultinject-labeled tests =="
  cmake -B build-fault -S . -DFOOFAH_ASAN=ON -DFOOFAH_FAULT_INJECTION=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-fault -j "${JOBS}" \
    --target fault_injection_test cancellation_test service_test \
    wrangler_session_test exec_spill_test
  ctest --test-dir build-fault --output-on-failure -L faultinject -j "${JOBS}"
fi

if [[ "${SKIP_STRESS}" == 1 ]]; then
  echo "== Stress stage skipped =="
else
  echo "== Service stress suite (TSan + fault injection) =="
  cmake -B build-tsan -S . -DFOOFAH_TSAN=ON -DFOOFAH_FAULT_INJECTION=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_CXX_FLAGS=-Werror >/dev/null
  cmake --build build-tsan -j "${JOBS}" \
    --target service_test service_soak_test ladder_test wrangler_session_test
  ctest --test-dir build-tsan --output-on-failure -L stress -j "${JOBS}"
fi

# Stage 6: quick perf smoke against the checked-in baseline. Runs the
# contacts example at threads=8 (t8_k1) with bench/frontier_corpus —
# a fixed untimed warm-up, then best-of-3, the same procedure the sweep
# uses to write `smoke_ms` into BENCH_search.json — and fails on a >25%
# wall-clock regression vs. that baseline. A single regressed measurement
# gets one retry before failing — the smoke shares the machine with
# whatever else is running, and one noisy scheduler hiccup should not fail
# the gate. Skippable for machines with noisy clocks:
# FOOFAH_SKIP_PERF_SMOKE=1 or --skip-perf.
if [[ "${SKIP_PERF}" == 1 ]]; then
  echo "== Perf smoke skipped =="
else
  echo "== Perf smoke: contacts example at t8_k1 vs BENCH_search.json =="
  cmake --build build -j "${JOBS}" --target frontier_corpus
  baseline="$(sed -n 's/.*"smoke_ms": \([0-9.]*\).*/\1/p' BENCH_search.json)"
  smoke_measure() {
    ./build/bench/frontier_corpus --smoke --reps 3 \
      | sed -n 's/smoke_ms=\([0-9.]*\)/\1/p'
  }
  current="$(smoke_measure)"
  if [[ -z "${baseline}" || -z "${current}" ]]; then
    echo "perf smoke: missing baseline or measurement" >&2
    exit 1
  fi
  if ! awk -v c="${current}" -v b="${baseline}" \
      'BEGIN { exit !(c <= b * 1.25) }'; then
    echo "perf smoke: smoke_ms=${current} over budget, retrying once"
    current="$(smoke_measure)"
    if [[ -z "${current}" ]] || ! awk -v c="${current}" -v b="${baseline}" \
        'BEGIN { exit !(c <= b * 1.25) }'; then
      echo "perf smoke regression: smoke_ms=${current}" \
           "> baseline ${baseline} * 1.25" >&2
      exit 1
    fi
  fi
  echo "perf smoke ok: smoke_ms=${current} (baseline ${baseline})"
fi

# Stage 7: streaming-executor bounded-memory gate. A file-proportional
# executor fails all three legs; a chunk-bounded one passes them all.
if [[ "${SKIP_EXEC}" == 1 ]]; then
  echo "== Exec bounded-memory stage skipped =="
else
  echo "== Streaming executor: bounded-memory gate =="
  cmake --build build -j "${JOBS}" --target foofah_apply apply_corpus

  # Leg 1: in-process ratio check — tracked peak and process RSS across a
  # 16x input growth.
  ./build/bench/apply_corpus --memcheck

  # Leg 2: the CLI on a generated ~54 MB input under a hard 256 MB
  # address-space cap, with a 64 MB executor budget it must respect.
  EXEC_TMP="$(mktemp -d)"
  ./build/bench/apply_corpus --gen 1600000 "${EXEC_TMP}/in.csv"
  cat > "${EXEC_TMP}/prog.txt" <<'EOF'
t = split(t, 2, '-')
t = merge(t, 0, 1, ' ')
t = drop(t, 2)
t = fill(t, 1)
EOF
  (
    ulimit -v 262144
    ./build/examples/foofah_apply "${EXEC_TMP}/prog.txt" \
      "${EXEC_TMP}/in.csv" "${EXEC_TMP}/out.csv" \
      --memory-budget 64M --quiet
  )
  if [[ ! -s "${EXEC_TMP}/out.csv" ]]; then
    echo "exec gate: foofah_apply produced no output" >&2
    exit 1
  fi
  echo "exec gate: CLI processed 54 MB under a 256 MB address-space cap"

  # Leg 3: the checked-in benchmark evidence — regenerating
  # BENCH_apply.json with a memory regression fails the gate.
  ratio="$(sed -n 's/.*"peak_tracked_ratio": \([0-9.]*\).*/\1/p' BENCH_apply.json)"
  if [[ -z "${ratio}" ]]; then
    echo "exec gate: BENCH_apply.json missing peak_tracked_ratio" >&2
    exit 1
  fi
  if ! awk -v r="${ratio}" 'BEGIN { exit !(r <= 1.5) }'; then
    echo "exec gate: BENCH_apply.json peak_tracked_ratio=${ratio} > 1.5" >&2
    exit 1
  fi
  echo "exec gate ok: peak_tracked_ratio=${ratio}"
fi

# Stage 8: generative scenario fuzzer gate.
if [[ "${SKIP_FUZZ}" == 1 ]]; then
  echo "== Fuzz stage skipped =="
else
  echo "== Generative scenario fuzzer gate =="
  cmake --build build -j "${JOBS}" --target foofah_fuzz service_soak_test \
    fuzz_generator_test fuzz_oracle_test generated_corpus_test
  ctest --test-dir build --output-on-failure -L fuzz -j "${JOBS}"

  FUZZ_TMP="$(mktemp -d)"

  # Leg 1: determinism — the same seed must emit byte-identical bundle
  # directories on two independent runs (a plain --count run; --budget-ms
  # trades corpus-size determinism for bounded time, so it can't be used
  # here).
  ./build/examples/foofah_fuzz --seed 1 --count 200 --minimize \
    --out "${FUZZ_TMP}/corpus_a" >/dev/null
  ./build/examples/foofah_fuzz --seed 1 --count 200 --minimize \
    --out "${FUZZ_TMP}/corpus_b" >/dev/null
  if ! diff -r "${FUZZ_TMP}/corpus_a" "${FUZZ_TMP}/corpus_b" >/dev/null; then
    echo "fuzz gate: same seed produced different corpora" >&2
    exit 1
  fi
  bundles="$(ls "${FUZZ_TMP}/corpus_a" | wc -l)"
  if [[ "${bundles}" -ne 200 ]]; then
    echo "fuzz gate: expected 200 bundles, got ${bundles}" >&2
    exit 1
  fi
  echo "fuzz gate: 200-scenario corpus byte-identical across runs"

  # Leg 2: fixed-seed soak — generate under a 60-second wall-clock budget
  # and fail on any oracle violation (the CLI exits nonzero and prints the
  # shrunk repro program + input).
  ./build/examples/foofah_fuzz --seed 20260809 --count 1000000 \
    --budget-ms 60000 --minimize >/dev/null
  echo "fuzz gate: 60s soak clean"

  # Leg 3: the service determinism matrix (1/2/8 workers, node budgets
  # only) over a freshly generated corpus — the same contract the built-in
  # 50 are held to, now on fuzzer output.
  ./build/examples/foofah_fuzz --seed 2 --count 60 \
    --out "${FUZZ_TMP}/soak_corpus" >/dev/null
  FOOFAH_GENERATED_CORPUS="${FUZZ_TMP}/soak_corpus" \
    ./build/tests/service_soak_test --gtest_filter='*Generated*'
  echo "fuzz gate: generated corpus bit-identical across 1/2/8 workers"
fi

# Stage 9: learned-guidance gate. The unit suite carries the heavy
# contracts (guided == exact byte-identity, snapshot round-trip typed
# errors, the >= 91 solve-rate floor); the CLI legs pin the operational
# story: mining is deterministic, verify accepts what mine wrote, and
# verify rejects a single flipped byte.
if [[ "${SKIP_LEARN}" == 1 ]]; then
  echo "== Learn stage skipped =="
else
  echo "== Learned guidance gate =="
  cmake --build build -j "${JOBS}" --target foofah_learn foofah_fuzz \
    guidance_diff_test guidance_snapshot_test guidance_solverate_test
  ctest --test-dir build --output-on-failure -L learn -j "${JOBS}"

  LEARN_TMP="$(mktemp -d)"

  # Reuse the stage-8 seed-2 corpus when that stage ran; regenerate the
  # identical corpus otherwise.
  corpus="${FUZZ_TMP:+${FUZZ_TMP}/soak_corpus}"
  if [[ -z "${corpus}" || ! -d "${corpus}" ]]; then
    corpus="${LEARN_TMP}/corpus"
    ./build/examples/foofah_fuzz --seed 2 --count 60 \
      --out "${corpus}" >/dev/null
  fi

  # Leg 1: mining is deterministic — two runs over the same inputs must
  # write byte-identical snapshots.
  ./build/examples/foofah_learn mine --out "${LEARN_TMP}/a.snap" \
    --generated "${corpus}" --solve >/dev/null
  ./build/examples/foofah_learn mine --out "${LEARN_TMP}/b.snap" \
    --generated "${corpus}" --solve >/dev/null
  if ! cmp -s "${LEARN_TMP}/a.snap" "${LEARN_TMP}/b.snap"; then
    echo "learn gate: mine produced different snapshots on identical input" >&2
    exit 1
  fi
  echo "learn gate: mine is byte-deterministic"

  # Leg 2: verify accepts the freshly mined snapshot.
  ./build/examples/foofah_learn verify "${LEARN_TMP}/a.snap"

  # Leg 3: flip one payload byte — verify must reject with exit 1.
  size="$(wc -c < "${LEARN_TMP}/a.snap")"
  orig="$(dd if="${LEARN_TMP}/a.snap" bs=1 skip="$((size / 2))" count=1 \
    status=none)"
  repl='X'
  [[ "${orig}" == 'X' ]] && repl='Y'
  printf '%s' "${repl}" | dd of="${LEARN_TMP}/a.snap" bs=1 \
    seek="$((size / 2))" conv=notrunc status=none
  if ./build/examples/foofah_learn verify "${LEARN_TMP}/a.snap" \
      >/dev/null 2>&1; then
    echo "learn gate: verify accepted a tampered snapshot" >&2
    exit 1
  fi
  echo "learn gate: tampered snapshot rejected"
fi

# Stage 10: spill-to-disk graceful-degradation gate. A blocking suffix
# whose materialization cannot fit the memory budget must degrade to
# disk-backed execution (byte-identical output), and every injected
# spill/commit failure must surface as a typed error with no torn output
# and no leaked temp files. The ulimit leg uses the plain build: ASan
# reserves terabytes of shadow address space and cannot run under
# `ulimit -v`.
if [[ "${SKIP_SPILL}" == 1 ]]; then
  echo "== Spill stage skipped =="
else
  echo "== Spill-to-disk graceful-degradation gate =="
  cmake --build build -j "${JOBS}" --target foofah_apply apply_corpus

  # Leg 1: in-process check — budgeted blocking run spills, stays under
  # budget, and matches the in-memory run byte-for-byte.
  ./build/bench/apply_corpus --spillcheck

  # Leg 2: the CLI pushing a ~54 MB input through a Transpose-suffixed
  # program under a 256 MB address-space cap with a 16 MB budget. The
  # materialized table alone dwarfs the budget, so success requires the
  # spill path; the output must match the unbudgeted run byte-for-byte.
  SPILL_TMP="$(mktemp -d)"
  ./build/bench/apply_corpus --gen 1900000 "${SPILL_TMP}/in.csv"
  cat > "${SPILL_TMP}/prog.txt" <<'EOF'
t = drop(t, 3)
t = transpose(t)
EOF
  ./build/examples/foofah_apply "${SPILL_TMP}/prog.txt" \
    "${SPILL_TMP}/in.csv" "${SPILL_TMP}/ref.csv" --quiet
  stats="$(
    ulimit -v 262144
    ./build/examples/foofah_apply "${SPILL_TMP}/prog.txt" \
      "${SPILL_TMP}/in.csv" "${SPILL_TMP}/out.csv" \
      --memory-budget 16M --quiet --stats
  )"
  if ! cmp -s "${SPILL_TMP}/ref.csv" "${SPILL_TMP}/out.csv"; then
    echo "spill gate: spilled output differs from unbudgeted run" >&2
    exit 1
  fi
  peak="$(sed -n 's/^peak_tracked_bytes=\([0-9]*\).*/\1/p' <<<"${stats}")"
  spill_runs="$(sed -n 's/^spill_runs=\([0-9]*\).*/\1/p' <<<"${stats}")"
  if [[ -z "${peak}" || -z "${spill_runs}" ]]; then
    echo "spill gate: --stats output missing spill fields" >&2
    exit 1
  fi
  if (( spill_runs < 1 )); then
    echo "spill gate: budgeted run never spilled" >&2
    exit 1
  fi
  if (( peak > 16777216 )); then
    echo "spill gate: peak_tracked_bytes=${peak} > 16 MB budget" >&2
    exit 1
  fi
  echo "spill gate: 54 MB transposed under a 16 MB budget" \
       "(spill_runs=${spill_runs}, peak_tracked=${peak})"

  # Leg 3: a blocking step whose output dwarfs its input. Unfold over
  # 3,000 rows with a distinct key and header per row turns 50 KB into
  # ~9 MB (3,001 rows of 3,001 cells); a step that built its whole
  # output before the first budget check overshot the 16 MB budget
  # (~280 MB RSS) and then failed.
  awk 'BEGIN { for (i = 0; i < 3000; ++i) printf "k%d,h%d,v%d\n", i, i, i }' \
    > "${SPILL_TMP}/unfold.csv"
  printf 't = unfold(t, 1, 2)\n' > "${SPILL_TMP}/unfold.txt"
  ./build/examples/foofah_apply "${SPILL_TMP}/unfold.txt" \
    "${SPILL_TMP}/unfold.csv" "${SPILL_TMP}/unfold_ref.csv" --quiet
  (
    ulimit -v 262144
    ./build/examples/foofah_apply "${SPILL_TMP}/unfold.txt" \
      "${SPILL_TMP}/unfold.csv" "${SPILL_TMP}/unfold_out.csv" \
      --memory-budget 16M --quiet
  )
  if ! cmp -s "${SPILL_TMP}/unfold_ref.csv" "${SPILL_TMP}/unfold_out.csv"; then
    echo "spill gate: budgeted unfold output differs from unbudgeted run" >&2
    exit 1
  fi
  echo "spill gate: 3,000-row unfold (~9 MB out) under a 16 MB budget"

  # Leg 4: injected spill-write failure through the fault-injection
  # build — typed failure, no output file, no temp/spill dirs left.
  cmake -B build-fault -S . -DFOOFAH_ASAN=ON -DFOOFAH_FAULT_INJECTION=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-fault -j "${JOBS}" --target foofah_apply apply_corpus
  ./build-fault/bench/apply_corpus --gen 20000 "${SPILL_TMP}/small.csv"
  rm -f "${SPILL_TMP}/faulted.csv"
  if FOOFAH_FAULT_INJECT=exec/spill_write:1 \
      ./build-fault/examples/foofah_apply "${SPILL_TMP}/prog.txt" \
      "${SPILL_TMP}/small.csv" "${SPILL_TMP}/faulted.csv" \
      --spill-threshold 0 --quiet; then
    echo "spill gate: faulted run succeeded instead of failing typed" >&2
    exit 1
  fi
  if [[ -e "${SPILL_TMP}/faulted.csv" ]]; then
    echo "spill gate: faulted run left a (possibly torn) output file" >&2
    exit 1
  fi
  leftovers="$(find "${SPILL_TMP}" -maxdepth 1 -name '.foofah-tmp-*' | wc -l)"
  if (( leftovers > 0 )); then
    echo "spill gate: faulted run leaked ${leftovers} temp dir(s)" >&2
    exit 1
  fi
  echo "spill gate: injected spill failure was typed and left no debris"
fi

# Stage 11: exact-count gate over the repository benchmark.
if [[ "${SKIP_COUNTS}" == 1 ]]; then
  echo "== Count stage skipped =="
else
  echo "== Exact counts: synth_batch at seeds 1 and 1017 vs BENCH_counts.json =="
  python3 scripts/check_counts.py
fi

echo "All checks passed."
