#include "heuristic/heuristic.h"

#include "heuristic/naive_heuristic.h"
#include "heuristic/ted.h"
#include "heuristic/ted_batch.h"

namespace foofah {

const char* HeuristicKindName(HeuristicKind kind) {
  switch (kind) {
    case HeuristicKind::kTedBatch:
      return "ted_batch";
    case HeuristicKind::kTed:
      return "ted";
    case HeuristicKind::kNaiveRule:
      return "rule";
    case HeuristicKind::kZero:
      return "zero";
  }
  return "unknown";
}

namespace {

class TedBatchHeuristic : public Heuristic {
 public:
  double Estimate(const Table& state, const Table& goal,
                  const CancellationToken* cancel) const override {
    return TedBatchCost(state, goal, cancel);
  }
  std::string name() const override { return "ted_batch"; }
};

class TedHeuristic : public Heuristic {
 public:
  double Estimate(const Table& state, const Table& goal,
                  const CancellationToken* cancel) const override {
    thread_local EditPath path;
    return GreedyTed(state, goal, &path, cancel);
  }
  std::string name() const override { return "ted"; }
};

class RuleHeuristic : public Heuristic {
 public:
  // The rule heuristic is a handful of column scans — too cheap to poll.
  double Estimate(const Table& state, const Table& goal,
                  const CancellationToken*) const override {
    return NaiveRuleHeuristic(state, goal);
  }
  std::string name() const override { return "rule"; }
};

class ZeroHeuristic : public Heuristic {
 public:
  double Estimate(const Table&, const Table&,
                  const CancellationToken*) const override {
    return 0;
  }
  std::string name() const override { return "zero"; }
};

}  // namespace

std::unique_ptr<Heuristic> MakeHeuristic(HeuristicKind kind) {
  switch (kind) {
    case HeuristicKind::kTedBatch:
      return std::make_unique<TedBatchHeuristic>();
    case HeuristicKind::kTed:
      return std::make_unique<TedHeuristic>();
    case HeuristicKind::kNaiveRule:
      return std::make_unique<RuleHeuristic>();
    case HeuristicKind::kZero:
      return std::make_unique<ZeroHeuristic>();
  }
  return nullptr;
}

}  // namespace foofah
