// synth_batch: a closed loop with one caller. Every pass runs each task
// once through SynthesizeProgram; passes repeat until the run's time is
// used. A task's latency is its mean over passes, and the run's p50 and
// tail are taken over the 950 tasks, so a burst of host contention during
// one pass moves no figure noticeably.
//
// The mix is heavy-tailed on purpose. The corpus pairs include tasks that
// stop only at the generated-state budget (hundreds of ms: heuristic and
// allocation cost); most generated tasks finish in about a millisecond,
// which exposes per-call fixed costs.

#include <algorithm>
#include <functional>

#include "replay.h"
#include "tasks.h"
#include "trace.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kGeneratedTasks = 900;
// The corpus pairs get a §5.3-style budget; the generated tasks a small
// one, which keeps the seeded share of each pass cheap and homogeneous.
constexpr uint64_t kCorpusExpansions = 2000;
constexpr uint64_t kCorpusGenerated = 20000;
constexpr uint64_t kGeneratedExpansions = 200;
constexpr uint64_t kGeneratedGenerated = 300;
// limit_met_frac: tasks solved within this latency.
constexpr double kLimitMs = 50;
// Each set-up takes about a second, most of it a pass over the corpus.
constexpr int kSetupRuns = 5;

bool SameCounters(const foofah::SearchStats& a,
                  const foofah::SearchStats& b) {
  return a.nodes_expanded == b.nodes_expanded &&
         a.nodes_generated == b.nodes_generated &&
         a.candidates_tried == b.candidates_tried &&
         a.duplicates_skipped == b.duplicates_skipped &&
         a.oversize_skipped == b.oversize_skipped &&
         a.apply_failures == b.apply_failures &&
         a.pruned_by_reason == b.pruned_by_reason &&
         a.budget_exhausted == b.budget_exhausted;
}

// Per-pass sums of the replayed layers (traced passes only).
struct LayerPass {
  double search_ms = 0;
  double enumerate_ms = 0;
  double prune_ms = 0;
  double apply_ms = 0;
  double estimate_ms = 0;
  uint64_t tried = 0;
  uint64_t kept = 0;
  uint64_t apply_allocs = 0;
  uint64_t estimate_calls = 0;
  uint64_t estimate_allocs = 0;

  // SynthesizeProgram time the replayed layers do not account for.
  double frontier_ms() const {
    return search_ms - enumerate_ms - prune_ms - apply_ms - estimate_ms;
  }
};

}  // namespace

Report RunSynthBatch(const Args& args) {
  Report report;
  std::vector<SynthTask> tasks;
  std::vector<foofah::SearchOptions> options;
  const foofah::SearchOptions corpus_options =
      CountedSearchOptions(kCorpusExpansions, kCorpusGenerated);
  const foofah::SearchOptions generated_options =
      CountedSearchOptions(kGeneratedExpansions, kGeneratedGenerated);

  const double setup_s = MedianSetupSeconds(kSetupRuns, [&] {
    tasks = CorpusTasks();
    std::vector<SynthTask> generated =
        GeneratedTasks(args.seed, kGeneratedTasks);
    tasks.insert(tasks.end(), std::make_move_iterator(generated.begin()),
                 std::make_move_iterator(generated.end()));
    options.clear();
    for (const SynthTask& task : tasks) {
      options.push_back(task.generated ? generated_options : corpus_options);
    }
    // Warm-up: one untimed pass over the (seed-independent) corpus pairs.
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (!tasks[i].generated) {
        foofah::SynthesizeProgram(tasks[i].input, tasks[i].output,
                                  options[i]);
      }
    }
  });

  const size_t n = tasks.size();
  uint64_t rows_per_pass = 0;
  for (const SynthTask& task : tasks) rows_per_pass += task.input.num_rows();

  std::vector<std::vector<double>> latency(n);  // Untraced passes.
  std::vector<bool> found(n, false);
  std::vector<foofah::SearchStats> reference(n);
  std::vector<double> pass_ms;  // Untraced search time per pass.
  double untraced_cpu_ms = 0;
  uint64_t untraced_runs = 0;
  uint64_t untraced_allocs = 0;
  std::vector<LayerPass> layer_passes;
  std::vector<double> pool_start_us;
  uint64_t memo_hits = 0, memo_lookups = 0;
  uint64_t expanded_per_pass = 0, generated_per_pass = 0;
  SpanRecorder spans;
  size_t mismatch_reports = 0;

  auto fail_task = [&](size_t i, const std::string& what) {
    ++report.failed;
    if (++mismatch_reports <= 10) report.Fail(tasks[i].name + ": " + what);
  };

  const HostTicks ticks_before = ReadHostTicks();
  const Clock::time_point loop_start = Clock::now();
  double longest_pass_s = 0;
  for (int pass = 0;; ++pass) {
    // Traced runs alternate untraced and traced passes, which gives the
    // observer's overhead against interleaved untraced passes.
    const bool traced = args.trace && pass % 2 == 1;
    const int min_passes = args.trace ? 2 : 1;
    const double elapsed_s = MsBetween(loop_start, Clock::now()) / 1000.0;
    if (pass >= min_passes && elapsed_s + longest_pass_s > args.seconds) {
      break;
    }
    const Clock::time_point pass_start = Clock::now();
    const double cpu_before = ProcessCpuMs();
    double search_ms = 0;
    LayerPass layers;

    for (size_t i = 0; i < n; ++i) {
      const SynthTask& task = tasks[i];
      foofah::SearchOptions run_options = options[i];
      ExpansionRecorder recorder;
      if (traced) run_options.observer = &recorder;

      const uint64_t allocs_before = ThreadAllocs();
      const Clock::time_point start = Clock::now();
      const foofah::SearchResult result =
          foofah::SynthesizeProgram(task.input, task.output, run_options);
      const Clock::time_point end = Clock::now();
      const double ms = MsBetween(start, end);
      search_ms += ms;
      ++report.attempted;
      if (!traced) {
        latency[i].push_back(ms);
        untraced_allocs += ThreadAllocs() - allocs_before;
        ++untraced_runs;
      }

      if (pass == 0) {
        found[i] = result.found;
        reference[i] = result.stats;
        expanded_per_pass += result.stats.nodes_expanded;
        generated_per_pass += result.stats.nodes_generated;
        memo_hits += result.stats.heuristic_cache_hits;
        memo_lookups += result.stats.heuristic_cache_hits +
                        result.stats.heuristic_cache_misses;
      } else if (result.found != found[i] ||
                 !SameCounters(result.stats, reference[i])) {
        fail_task(i, Format("pass %d differs from pass 0", pass));
        continue;
      }
      if (result.found &&
          !ProgramReproduces(result.program, task.input, task.output)) {
        fail_task(i, "program does not reproduce the example output");
        continue;
      }
      if (!traced) continue;

      // Traced pass: replay the recorded expansions layer by layer.
      const Clock::time_point replay_start = Clock::now();
      const ReplayResult replay = ReplaySearch(
          task.input, task.output, options[i], recorder.expanded);
      const Clock::time_point replay_end = Clock::now();
      const std::vector<std::string> mismatches =
          Reconcile(replay, result.stats, recorder.estimates);
      if (!mismatches.empty()) fail_task(i, "replay: " + mismatches.front());
      layers.search_ms += ms;
      layers.enumerate_ms += replay.enumerate.ms;
      layers.prune_ms += replay.prune.ms;
      layers.apply_ms += replay.apply.ms;
      layers.estimate_ms += replay.estimate.ms;
      layers.tried += replay.tried;
      layers.kept += replay.kept;
      layers.apply_allocs += replay.apply.allocs;
      layers.estimate_calls += replay.estimate.calls;
      layers.estimate_allocs += replay.estimate.allocs;

      // The per-call pool cost a default-configured (num_threads = 0)
      // search would pay on this host.
      const Clock::time_point pool_start = Clock::now();
      { foofah::ThreadPool pool(foofah::ThreadPool::DefaultThreadCount()); }
      const Clock::time_point pool_end = Clock::now();
      pool_start_us.push_back(MsBetween(pool_start, pool_end) * 1000.0);

      const uint64_t task_span =
          spans.Add("synth.task", 0, i, start, pool_end);
      spans.Add("synth.search", task_span, i, start, end);
      const uint64_t replay_span =
          spans.Add("synth.replay", task_span, i, replay_start, replay_end);
      const std::pair<const char*, const LayerTotals*> layer_spans[] = {
          {"ops.enumerate", &replay.enumerate},
          {"search.prune", &replay.prune},
          {"ops.apply", &replay.apply},
          {"heuristic.estimate", &replay.estimate}};
      for (const auto& [name, totals] : layer_spans) {
        if (totals->calls == 0) continue;
        spans.AddAggregate(name, replay_span, i, totals->first, totals->last,
                           totals->ms, totals->calls, totals->allocs);
      }
      spans.Add("util.pool_start", task_span, i, pool_start, pool_end);
    }

    if (traced) {
      layer_passes.push_back(layers);
    } else {
      pass_ms.push_back(search_ms);
      untraced_cpu_ms += ProcessCpuMs() - cpu_before;
    }
    longest_pass_s = std::max(
        longest_pass_s, MsBetween(pass_start, Clock::now()) / 1000.0);
  }
  const double steal = StealFraction(ticks_before, ReadHostTicks());

  std::vector<double> task_ms(n);
  size_t solved = 0, within_limit = 0;
  for (size_t i = 0; i < n; ++i) {
    task_ms[i] = Mean(latency[i]);
    solved += found[i];
    within_limit += found[i] && task_ms[i] <= kLimitMs;
  }
  const Tail tail = TailLatency(task_ms);
  report.notes.push_back(Format(
      "tasks=%zu (corpus %zu, generated %d) passes=%zu+%zu traced "
      "tail=p%g of %zu samples (%zu beyond) limit=%gms",
      n, n - kGeneratedTasks, kGeneratedTasks, pass_ms.size(),
      layer_passes.size(), tail.percent, tail.samples, tail.beyond,
      kLimitMs));

  if (!args.trace) {
    const double pass_mean_ms = Mean(pass_ms);
    report.metrics["setup_s"] = setup_s;
    report.metrics["latency_p50_ms"] = Median(task_ms);
    report.metrics["latency_tail_ms"] = tail.value;
    report.metrics["tasks_per_s"] = n / pass_mean_ms * 1000.0;
    report.metrics["rows_per_s"] = rows_per_pass / pass_mean_ms * 1000.0;
    report.metrics["solved_frac"] = static_cast<double>(solved) / n;
    report.metrics["limit_met_frac"] = static_cast<double>(within_limit) / n;
    report.metrics["cpu_ms_per_task"] = untraced_cpu_ms / untraced_runs;
    report.metrics["peak_rss_mb"] = PeakRssMb();
    return report;
  }

  auto median_of = [&](auto field) {
    std::vector<double> values;
    for (const LayerPass& p : layer_passes) {
      values.push_back(std::invoke(field, p));
    }
    return Median(values);
  };
  const LayerPass& counts = layer_passes.front();  // Counters repeat exactly.
  report.metrics["ops.enumerate_ms"] = median_of(&LayerPass::enumerate_ms);
  report.metrics["ops.candidates"] = counts.tried;
  report.metrics["ops.apply_ms"] = median_of(&LayerPass::apply_ms);
  report.metrics["ops.apply_allocs"] = counts.apply_allocs;
  report.metrics["search.prune_ms"] = median_of(&LayerPass::prune_ms);
  report.metrics["search.kept_frac"] =
      counts.tried == 0 ? 0 : static_cast<double>(counts.kept) / counts.tried;
  report.metrics["search.frontier_ms"] = median_of(&LayerPass::frontier_ms);
  report.metrics["search.nodes_expanded"] = expanded_per_pass;
  report.metrics["search.nodes_generated"] = generated_per_pass;
  report.metrics["search.allocs_per_task"] =
      static_cast<double>(untraced_allocs) / untraced_runs;
  report.metrics["heuristic.estimate_ms"] = median_of(&LayerPass::estimate_ms);
  report.metrics["heuristic.estimate_calls"] = counts.estimate_calls;
  report.metrics["heuristic.estimate_allocs"] = counts.estimate_allocs;
  report.metrics["heuristic.memo_hit_frac"] =
      memo_lookups == 0 ? 0 : static_cast<double>(memo_hits) / memo_lookups;
  report.metrics["util.pool_start_us"] = Median(pool_start_us);
  report.Bypass(kServiceLayerMetrics);
  report.Bypass(kExecutorLayerMetrics);
  report.metrics["host.steal_frac"] = steal;
  report.metrics["trace.overhead_frac"] =
      median_of(&LayerPass::search_ms) / Mean(pass_ms) - 1.0;
  if (!spans.Write(args.trace_dir + "/synth_batch-seed" +
                   std::to_string(args.seed) + ".jsonl")) {
    report.Fail("cannot write the span file");
  }
  return report;
}

}  // namespace perfbench
