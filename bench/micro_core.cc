// Microbenchmarks for the core primitives (google-benchmark): the TED
// heuristics, operator application, candidate enumeration, table hashing,
// and an end-to-end synthesis of the paper's motivating example. Not a
// paper figure — an engineering baseline for performance regressions.

#include <benchmark/benchmark.h>

#include "alloc_counter.h"
#include "core/synthesizer.h"
#include "heuristic/naive_heuristic.h"
#include "heuristic/ted.h"
#include "heuristic/ted_batch.h"
#include "ops/enumerate.h"
#include "ops/operators.h"
#include "table/table.h"

namespace foofah {
namespace {

Table MakeContactsInput(int records) {
  Table t;
  t.AppendRow({"Bureau of I.A."});
  t.AppendRow({"Regional Director Numbers"});
  for (int i = 0; i < records; ++i) {
    std::string id = std::to_string(100 + i);
    t.AppendRow({"Person " + id, "Tel:(800)645-" + id});
    t.AppendRow({"", "Fax:(907)586-" + id});
    t.AppendRow({""});
  }
  return t;
}

Table MakeContactsOutput(int records) {
  Table t;
  t.AppendRow({"", "Tel", "Fax"});
  for (int i = 0; i < records; ++i) {
    std::string id = std::to_string(100 + i);
    t.AppendRow({"Person " + id, "(800)645-" + id, "(907)586-" + id});
  }
  return t;
}

/// Attaches per-iteration heap-allocation counters (count and KiB) for the
/// work done since `before` — the regression signal for the copy-on-write
/// table substrate, whose whole point is fewer successor allocations.
void ReportAllocs(benchmark::State& state, const bench::AllocCounters& before) {
  bench::AllocCounters delta = bench::AllocSnapshot() - before;
  state.counters["allocs"] = benchmark::Counter(
      static_cast<double>(delta.allocations), benchmark::Counter::kAvgIterations);
  state.counters["allocKB"] = benchmark::Counter(
      static_cast<double>(delta.bytes) / 1024.0,
      benchmark::Counter::kAvgIterations);
}

void BM_GreedyTed(benchmark::State& state) {
  Table in = MakeContactsInput(static_cast<int>(state.range(0)));
  Table out = MakeContactsOutput(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyTed(in, out).cost);
  }
}
BENCHMARK(BM_GreedyTed)->Arg(1)->Arg(4)->Arg(16);

void BM_TedBatch(benchmark::State& state) {
  Table in = MakeContactsInput(static_cast<int>(state.range(0)));
  Table out = MakeContactsOutput(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TedBatchCost(in, out));
  }
}
BENCHMARK(BM_TedBatch)->Arg(1)->Arg(4)->Arg(16);

void BM_NaiveRuleHeuristic(benchmark::State& state) {
  Table in = MakeContactsInput(4);
  Table out = MakeContactsOutput(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(NaiveRuleHeuristic(in, out));
  }
}
BENCHMARK(BM_NaiveRuleHeuristic);

void BM_ApplySplit(benchmark::State& state) {
  Table in = MakeContactsInput(static_cast<int>(state.range(0)));
  Operation op = Split(1, ":");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApplyOperation(in, op));
  }
}
BENCHMARK(BM_ApplySplit)->Arg(4)->Arg(32);

void BM_ApplyUnfold(benchmark::State& state) {
  Table in;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    std::string key = "k";
    key += std::to_string(i);
    in.AppendRow({key, "a", std::to_string(i)});
    in.AppendRow({key, "b", std::to_string(i * 2)});
  }
  Operation op = Unfold(1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApplyOperation(in, op));
  }
}
BENCHMARK(BM_ApplyUnfold)->Arg(8)->Arg(64);

void BM_EnumerateCandidates(benchmark::State& state) {
  Table in = MakeContactsInput(4);
  Table out = MakeContactsOutput(4);
  OperatorRegistry registry = OperatorRegistry::Default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(EnumerateCandidates(in, out, registry));
  }
}
BENCHMARK(BM_EnumerateCandidates);

void BM_TableHash(benchmark::State& state) {
  Table in = MakeContactsInput(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(in.Hash());
  }
}
BENCHMARK(BM_TableHash)->Arg(4)->Arg(32);

// The successor-state pattern of the A* search: copy the parent table
// wholesale (arena/state snapshot). Under the copy-on-write substrate this
// is an O(1) handle copy instead of a deep clone of every cell.
void BM_TableSuccessorCopy(benchmark::State& state) {
  Table in = MakeContactsInput(static_cast<int>(state.range(0)));
  bench::AllocCounters before = bench::AllocSnapshot();
  for (auto _ : state) {
    Table copy = in;
    benchmark::DoNotOptimize(copy.num_cells());
  }
  ReportAllocs(state, before);
}
BENCHMARK(BM_TableSuccessorCopy)->Arg(4)->Arg(32)->Arg(256);

// A row-removing operator: under copy-on-write the surviving rows are
// shared handles, so the child allocates O(1) row storage instead of
// deep-copying every surviving cell.
void BM_ApplyDeleteRow(benchmark::State& state) {
  Table in = MakeContactsInput(static_cast<int>(state.range(0)));
  Operation op = DeleteRow(0);
  bench::AllocCounters before = bench::AllocSnapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApplyOperation(in, op));
  }
  ReportAllocs(state, before);
}
BENCHMARK(BM_ApplyDeleteRow)->Arg(4)->Arg(32);

void BM_SynthesizeMotivatingExample(benchmark::State& state) {
  Table in = MakeContactsInput(2);
  Table out = MakeContactsOutput(2);
  Foofah foofah;
  bench::AllocCounters before = bench::AllocSnapshot();
  for (auto _ : state) {
    SearchResult r = foofah.Synthesize(in, out);
    benchmark::DoNotOptimize(r.found);
  }
  ReportAllocs(state, before);
}
BENCHMARK(BM_SynthesizeMotivatingExample)->Unit(benchmark::kMillisecond);

// Thread-count scaling of the search's expansion body on the motivating
// example (cache on, the production configuration). threads:1 runs each
// candidate as its own block with no pool; threads:4 fans every
// expansion's evaluate and estimate steps out over a pool.
void BM_SynthesizeParallel(benchmark::State& state) {
  Table in = MakeContactsInput(2);
  Table out = MakeContactsOutput(2);
  SearchOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  Foofah foofah(options);
  bench::AllocCounters before = bench::AllocSnapshot();
  for (auto _ : state) {
    SearchResult r = foofah.Synthesize(in, out);
    benchmark::DoNotOptimize(r.found);
  }
  ReportAllocs(state, before);
}
BENCHMARK(BM_SynthesizeParallel)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Heuristic-memo ablation: cache:0 recomputes the TED dynamic program for
// every estimated child, cache:1 memoizes by (state hash, goal hash).
// With dedup:1 (graph search) the search estimates each unique state once
// at any thread count, so it keeps no private memo and cache:1 equals
// cache:0; dedup:0 (tree search) re-reaches states through many paths and
// is where the memo pays for itself.
void BM_SynthesizeCacheAblation(benchmark::State& state) {
  Table in = MakeContactsInput(2);
  Table out = MakeContactsOutput(2);
  SearchOptions options;
  options.num_threads = 1;
  options.cache_heuristic = state.range(0) != 0;
  options.deduplicate_states = state.range(1) != 0;
  options.max_expansions = 2'000;  // Bounds the dedup:0 blowup.
  Foofah foofah(options);
  for (auto _ : state) {
    SearchResult r = foofah.Synthesize(in, out);
    benchmark::DoNotOptimize(r.found);
  }
}
BENCHMARK(BM_SynthesizeCacheAblation)
    ->ArgNames({"cache", "dedup"})
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// Deadline-bounded synthesis on a workload the search cannot finish (a 5x5
// scrambled grid with a finite heuristic — the cancellation suite's hard
// example). Every iteration runs to the deadline, so the interesting
// numbers are the counters: the distribution of the overshoot past the
// deadline (max and mean, in ms), which the robustness suite bounds at
// 250 ms. Wall-clock per iteration ≈ deadline + overshoot.
void BM_SynthesizeWithDeadline(benchmark::State& state) {
  Table in({{"aa", "bb", "cc", "dd", "ee"},
            {"ff", "gg", "hh", "ii", "jj"},
            {"kk", "ll", "mm", "nn", "oo"},
            {"pp", "qq", "rr", "ss", "tt"},
            {"uu", "vv", "ww", "xx", "yy"}});
  Table out({{"gg", "uu", "nn", "cc", "qq"},
             {"yy", "aa", "ll", "tt", "hh"},
             {"dd", "rr", "jj", "vv", "kk"},
             {"oo", "ee", "ww", "bb", "ss"},
             {"mm", "xx", "ff", "ii", "pp"}});
  SearchOptions options;
  options.timeout_ms = state.range(0);
  options.max_expansions = 0;
  double overshoot_max = 0;
  double overshoot_sum = 0;
  int64_t timed_out_runs = 0;
  for (auto _ : state) {
    SearchResult r = SynthesizeProgram(in, out, options);
    benchmark::DoNotOptimize(r.found);
    if (r.stats.timed_out) {
      ++timed_out_runs;
      overshoot_sum += r.stats.overshoot_ms;
      if (r.stats.overshoot_ms > overshoot_max) {
        overshoot_max = r.stats.overshoot_ms;
      }
    }
  }
  state.counters["overshoot_max_ms"] = overshoot_max;
  state.counters["overshoot_mean_ms"] =
      timed_out_runs > 0 ? overshoot_sum / timed_out_runs : 0;
}
BENCHMARK(BM_SynthesizeWithDeadline)
    ->ArgName("deadline_ms")
    ->Arg(25)
    ->Arg(100)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace foofah

BENCHMARK_MAIN();
