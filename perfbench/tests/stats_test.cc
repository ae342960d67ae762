// Tests of the benchmark's own statistics: the tail-percentile choice,
// open-loop lateness accounting, and the replay-versus-SearchStats
// reconciliation. Run with `ctest --test-dir .bench_build` after a build.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "replay.h"
#include "stats.h"
#include "tasks.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                    \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

std::vector<double> OneTo(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // Unsorted on purpose.
  return values;
}

void TestPercentiles() {
  EXPECT(Median(OneTo(5)) == 3);
  EXPECT(Median(OneTo(4)) == 2.5);
  EXPECT(Mean(OneTo(4)) == 2.5);
  EXPECT(Mean({}) == 0);
  EXPECT(Percentile(OneTo(10), 50) == 5);
  EXPECT(Percentile(OneTo(10), 90) == 9);
  EXPECT(Percentile(OneTo(10), 100) == 10);
  EXPECT(SamplesBeyond(10, 90) == 1);
  EXPECT(SamplesBeyond(1000, 99) == 10);
}

void TestTailChoice() {
  // Exactly ten samples beyond p99 of 1000.
  Tail tail = TailLatency(OneTo(1000));
  EXPECT(tail.percent == 99);
  EXPECT(tail.beyond == 10);
  EXPECT(tail.value == 990);
  EXPECT(tail.samples == 1000);
  // One sample fewer leaves only nine beyond p99: p98 is chosen.
  tail = TailLatency(OneTo(999));
  EXPECT(tail.percent == 98);
  EXPECT(tail.beyond >= 10);
  // The run sizes the workloads produce.
  EXPECT(TailLatency(OneTo(2400)).percent == 99.5);
  EXPECT(TailLatency(OneTo(950)).percent == 98);
  EXPECT(TailLatency(OneTo(80)).percent == 80);
  // Every choice keeps at least ten samples beyond it.
  for (int n = 20; n <= 5000; n += 7) {
    EXPECT(TailLatency(OneTo(n)).beyond >= 10);
  }
  // Too few samples for any percentile: the median, flagged by `beyond`.
  tail = TailLatency(OneTo(19));
  EXPECT(tail.percent == 50);
  EXPECT(tail.beyond == 9);
  EXPECT(TailLatency(OneTo(20)).beyond == 10);
}

void TestOpenLoopLateness() {
  // Due every 10 ms; the generator stalls until 35 ms, then catches up.
  const double due[] = {0, 10, 20, 30, 40};
  const double sent[] = {0.1, 35, 35.2, 35.4, 40.1};
  std::vector<double> latency;
  for (int i = 0; i < 5; ++i) {
    OpenLoopSample s{due[i], sent[i], /*queue_ms=*/1, /*run_ms=*/2};
    latency.push_back(OpenLoopLatencyMs(s));
  }
  // The stall counts against every request it delayed.
  EXPECT(latency[1] == 25 + 3);
  EXPECT(latency[2] > 15 + 3 - 1e-9 && latency[2] < 15.2 + 3 + 1e-9);
  EXPECT(latency[3] > 5 + 3 && latency[3] < 5.4 + 3 + 1e-9);
  // An on-time request costs only its queue wait and run time.
  EXPECT(latency[4] > 3 && latency[4] < 3.2);
  // A send the clock places before its due time is not negative lateness.
  EXPECT(SendLatenessMs({10, 9.99, 0, 0}) == 0);
}

foofah::SearchResult Search(const SynthTask& task,
                            const foofah::SearchOptions& options,
                            ExpansionRecorder* recorder) {
  foofah::SearchOptions observed = options;
  observed.observer = recorder;
  return foofah::SynthesizeProgram(task.input, task.output, observed);
}

void TestReplayReconciles() {
  const std::vector<SynthTask> corpus = CorpusTasks();
  EXPECT(!corpus.empty());
  int solved = 0, budget_stops = 0, oversize = 0;
  for (size_t i = 0; i < corpus.size(); i += 5) {
    // A generated-state budget of 7 stops mid-expansion; a cell cap at the
    // input's size makes every growing child oversize.
    const size_t no_cap = foofah::SearchOptions{}.max_state_cells;
    const std::pair<uint64_t, size_t> limits[] = {
        {20000, no_cap}, {7, no_cap}, {20000, corpus[i].input.num_cells()}};
    for (const auto& [max_generated, max_cells] : limits) {
      foofah::SearchOptions options = CountedSearchOptions(2000, max_generated);
      options.max_state_cells = max_cells;
      ExpansionRecorder recorder;
      const foofah::SearchResult result = Search(corpus[i], options, &recorder);
      solved += result.found;
      budget_stops += result.stats.budget_exhausted;
      oversize += result.stats.oversize_skipped > 0;
      const ReplayResult replay = ReplaySearch(
          corpus[i].input, corpus[i].output, options, recorder.expanded);
      const std::vector<std::string> mismatches =
          Reconcile(replay, result.stats, recorder.estimates);
      for (const std::string& m : mismatches) {
        std::printf("  %s: %s\n", corpus[i].name.c_str(), m.c_str());
      }
      EXPECT(mismatches.empty());
      // The replay times the layers it drove.
      EXPECT(replay.enumerate.calls == replay.expanded);
      EXPECT(replay.estimate.calls == replay.memo_misses);
    }
  }
  // Both stops the replay must reproduce mid-expansion occurred, and so
  // did oversize children.
  EXPECT(solved > 0);
  EXPECT(budget_stops > 0);
  EXPECT(oversize > 0);
}

void TestReplayDetectsDisagreement() {
  const std::vector<SynthTask> corpus = CorpusTasks();
  const SynthTask& task = corpus.front();
  const foofah::SearchOptions options = CountedSearchOptions(2000, 20000);
  ExpansionRecorder recorder;
  foofah::SearchResult result = Search(task, options, &recorder);
  const ReplayResult replay =
      ReplaySearch(task.input, task.output, options, recorder.expanded);

  // One more candidate tried is also one more kept (KeptCandidates).
  foofah::SearchStats tampered = result.stats;
  ++tampered.candidates_tried;
  std::vector<std::string> mismatches =
      Reconcile(replay, tampered, recorder.estimates);
  EXPECT(mismatches.size() == 2);
  EXPECT(mismatches.size() == 2 &&
         mismatches[0].find("candidates_tried") == 0 &&
         mismatches[1].find("kept") == 0);

  // A replay cut one expansion short disagrees on the expansion count.
  std::vector<foofah::Table> fewer = recorder.expanded;
  if (!fewer.empty()) fewer.pop_back();
  mismatches = Reconcile(
      ReplaySearch(task.input, task.output, options, fewer), result.stats,
      recorder.estimates);
  EXPECT(!mismatches.empty());

  // A search the replay cannot mirror is reported, never reconciled.
  foofah::SearchOptions parallel = options;
  parallel.num_threads = 2;
  mismatches = Reconcile(
      ReplaySearch(task.input, task.output, parallel, recorder.expanded),
      result.stats, recorder.estimates);
  EXPECT(mismatches.size() == 1);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentiles();
  perfbench::TestTailChoice();
  perfbench::TestOpenLoopLateness();
  perfbench::TestReplayReconciles();
  perfbench::TestReplayDetectsDisagreement();
  if (perfbench::failures > 0) {
    std::printf("%d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("all checks passed\n");
  return 0;
}
