#include "search/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "program/describe.h"
#include "search/search.h"

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

TEST(TraceTest, EventSequenceIdenticalAcrossThreadCounts) {
  // The motivating contacts example: a real multi-step search with
  // expansions, prunes, and duplicates. The full event stream — ids,
  // order, heuristic values, prune reasons — must be byte-identical
  // between the serial engine and the 8-worker pool, because CoW states
  // shared across workers and serial replay of accounting guarantee it.
  Table in = {{"Niles C.", "Tel:(800)645-8397"},
              {"", "Fax:(907)586-7252"},
              {"Jean H.", "Tel:(918)781-4600"},
              {"", "Fax:(918)781-4604"}};
  Table out = {{"", "Tel", "Fax"},
               {"Niles C.", "(800)645-8397", "(907)586-7252"},
               {"Jean H.", "(918)781-4600", "(918)781-4604"}};

  auto run = [&](int num_threads) {
    EventLogObserver log;
    SearchOptions options;
    options.timeout_ms = 0;  // Deterministic: bounded by expansions only.
    options.max_expansions = 2'000;
    options.num_threads = num_threads;
    options.observer = &log;
    SearchResult r = SynthesizeProgram(in, out, options);
    EXPECT_TRUE(r.found);
    return std::make_pair(r.program.ToScript(), log.events());
  };

  auto [serial_program, serial_events] = run(1);
  auto [threaded_program, threaded_events] = run(8);
  EXPECT_EQ(serial_program, threaded_program);
  ASSERT_FALSE(serial_events.empty());
  ASSERT_EQ(serial_events.size(), threaded_events.size());
  for (size_t i = 0; i < serial_events.size(); ++i) {
    ASSERT_EQ(serial_events[i], threaded_events[i]) << "event " << i;
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
