#include "search/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "program/describe.h"
#include "scenarios/corpus.h"
#include "search/search.h"
#include "testing/search_outcome.h"

namespace foofah {
namespace {

SearchResult TracedSearch(const Table& in, const Table& out,
                          SearchTraceRecorder* recorder) {
  SearchOptions options;
  options.observer = recorder;
  return SynthesizeProgram(in, out, options);
}

TEST(TraceTest, RecordsExpansionAndGoal) {
  Table in = {{"a", "junk"}, {"b", "junk"}};
  Table out = {{"a"}, {"b"}};
  SearchTraceRecorder recorder;
  SearchResult r = TracedSearch(in, out, &recorder);
  ASSERT_TRUE(r.found);
  EXPECT_GE(recorder.recorded_nodes(), 2u);  // Root + at least the goal.
  std::string text = recorder.ToText();
  EXPECT_NE(text.find("[expanded]"), std::string::npos);
  EXPECT_NE(text.find("[goal]"), std::string::npos);
  EXPECT_NE(text.find("drop(t, 1)"), std::string::npos);
}

TEST(TraceTest, RecordsPrunesAndDuplicates) {
  // A two-step task: the root's expansion exercises pruning and the
  // second expansion rediscovers sibling states (duplicates).
  Table in = {{"k:v", "junk"}, {"k2:v2", "junk"}};
  Table out = {{"k", "v"}, {"k2", "v2"}};
  SearchTraceRecorder recorder;
  SearchResult r = TracedSearch(in, out, &recorder);
  ASSERT_TRUE(r.found);
  std::string text = recorder.ToText();
  EXPECT_NE(text.find("rejected:"), std::string::npos);
  EXPECT_GT(r.stats.total_pruned(), 0u);
}

TEST(TraceTest, DotOutputIsWellFormed) {
  Table in = {{"a", "junk"}};
  Table out = {{"a"}};
  SearchTraceRecorder recorder;
  SearchResult r = TracedSearch(in, out, &recorder);
  ASSERT_TRUE(r.found);
  std::string dot = recorder.ToDot();
  EXPECT_EQ(dot.find("digraph foofah_search {"), 0u);
  EXPECT_NE(dot.find("}\n"), std::string::npos);
  EXPECT_NE(dot.find("n0 ["), std::string::npos);      // Root node.
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);  // Goal marker.
  // Every '"' in labels is balanced: count is even.
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '"') % 2, 0);
}

TEST(TraceTest, DotEscapesQuotesInLabels) {
  SearchTraceRecorder recorder;
  recorder.OnExpand(0, Table(), 0);
  Operation odd = Split(0, "\"");
  recorder.OnGenerate(1, 0, odd, 1.0, false);
  std::string dot = recorder.ToDot();
  EXPECT_NE(dot.find("\\\""), std::string::npos);
}

TEST(TraceTest, CapBoundsRecordedNodes) {
  Table in = {{"Niles C.", "Tel:(800)645-8397"},
              {"", "Fax:(907)586-7252"},
              {"Jean H.", "Tel:(918)781-4600"},
              {"", "Fax:(918)781-4604"}};
  Table out = {{"", "Tel", "Fax"},
               {"Niles C.", "(800)645-8397", "(907)586-7252"},
               {"Jean H.", "(918)781-4600", "(918)781-4604"}};
  SearchTraceRecorder recorder(/*max_nodes=*/16);
  SearchResult r = TracedSearch(in, out, &recorder);
  ASSERT_TRUE(r.found);
  EXPECT_LE(recorder.recorded_nodes(), 16u);
  EXPECT_NE(recorder.ToDot().find("events beyond cap"), std::string::npos);
}

/// Stringifies every callback into one flat event log — order included.
/// Used to pin down the contract in SearchOptions::observer: callbacks
/// fire serially on the expansion thread in the single-threaded engine's
/// candidate order, no matter how many pool workers evaluate candidates.
class EventLogObserver : public SearchObserver {
 public:
  void OnExpand(int node, const Table& state, uint32_t depth) override {
    events_.push_back("expand n" + std::to_string(node) + " depth " +
                      std::to_string(depth) + " hash " +
                      std::to_string(state.Hash()));
  }
  void OnGenerate(int node, int parent, const Operation& operation,
                  double heuristic, bool is_goal) override {
    events_.push_back("generate n" + std::to_string(node) + " parent n" +
                      std::to_string(parent) + " " +
                      DescribeOperation(operation) + " h=" +
                      std::to_string(heuristic) +
                      (is_goal ? " GOAL" : ""));
  }
  void OnPrune(int parent, const Operation& operation,
               PruneReason reason) override {
    events_.push_back("prune parent n" + std::to_string(parent) + " " +
                      DescribeOperation(operation) + " reason " +
                      PruneReasonName(reason));
  }
  void OnDuplicate(int parent, const Operation& operation) override {
    events_.push_back("duplicate parent n" + std::to_string(parent) + " " +
                      DescribeOperation(operation));
  }

  const std::vector<std::string>& events() const { return events_; }

 private:
  std::vector<std::string> events_;
};

// The full event stream — ids, order, heuristic values, prune reasons —
// must be byte-identical between the serial search and the 8-worker pool,
// in every configuration where an expansion stops early or branches: the
// pool's Emit step replays each callback in candidate order. The stats
// follow the shared contract too.
TEST(TraceTest, EventSequenceIdenticalAcrossThreadCounts) {
  using testing::MemoCounts;
  struct Config {
    std::string_view name;
    void (*apply)(SearchOptions&);
    MemoCounts memo;
  };
  const Config configs[] = {
      {"default", [](SearchOptions&) {}, MemoCounts::kIdentical},
      // Reached mid-expansion: an expansion keeps dozens of children.
      {"max_generated", [](SearchOptions& o) { o.max_generated = 60; },
       MemoCounts::kIdentical},
      {"max_solutions", [](SearchOptions& o) { o.max_solutions = 3; },
       MemoCounts::kIdentical},
      {"bfs",
       [](SearchOptions& o) {
         o.strategy = SearchStrategy::kBfs;
         o.max_expansions = 300;
       },
       MemoCounts::kIdentical},
      {"tree",
       [](SearchOptions& o) {
         o.deduplicate_states = false;
         o.max_expansions = 300;
       },
       MemoCounts::kSameTotal},
  };
  for (const char* name :
       {"wrangler3_contacts", "pfe_log_extract", "pfe_three_step_clean"}) {
    const Scenario* scenario = FindScenario(name);
    ASSERT_NE(scenario, nullptr) << name;
    Result<ExamplePair> example =
        scenario->MakeExample(std::min(2, scenario->total_records()));
    ASSERT_TRUE(example.ok()) << name;
    for (const Config& config : configs) {
      const std::string label =
          std::string(name) + " " + std::string(config.name);
      auto run = [&](int num_threads, EventLogObserver* log) {
        SearchOptions options = testing::DeterministicOptions(num_threads);
        options.max_expansions = 2'000;
        options.observer = log;
        config.apply(options);
        return SynthesizeProgram(example->input, example->output, options);
      };
      EventLogObserver serial_log;
      EventLogObserver threaded_log;
      const SearchResult serial = run(1, &serial_log);
      const SearchResult threaded = run(8, &threaded_log);
      testing::ExpectIdenticalOutcome(serial, threaded, label, config.memo);
      // The configurations reach what they exist for.
      if (config.name == "max_generated") {
        EXPECT_TRUE(serial.stats.budget_exhausted) << label;
      }
      if (config.name == "max_solutions") {
        EXPECT_EQ(serial.alternatives.size(), 3u) << label;
      }
      const std::vector<std::string>& a = serial_log.events();
      const std::vector<std::string>& b = threaded_log.events();
      ASSERT_FALSE(a.empty()) << label;
      ASSERT_EQ(a.size(), b.size()) << label;
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i]) << label << " event " << i;
      }
    }
  }
}

TEST(TraceTest, NullObserverIsSupported) {
  // Baseline sanity: search without an observer is unaffected (and the
  // default no-op observer compiles/links).
  SearchObserver noop;
  noop.OnExpand(0, Table(), 0);
  noop.OnGenerate(1, 0, Drop(0), 0, false);
  noop.OnPrune(0, Drop(0), PruneReason::kNoEffect);
  noop.OnDuplicate(0, Drop(0));
  SUCCEED();
}

}  // namespace
}  // namespace foofah
