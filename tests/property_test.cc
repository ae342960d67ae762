// Property-based sweeps over deterministically generated tables and
// operations. Each suite states an invariant of the system and checks it
// across a parameter grid (TEST_P / INSTANTIATE_TEST_SUITE_P).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "fuzz/generator.h"
#include "heuristic/heuristic.h"
#include "table/csv.h"
#include "heuristic/ted.h"
#include "heuristic/ted_batch.h"
#include "ops/enumerate.h"
#include "ops/operators.h"
#include "program/parser.h"
#include "program/program.h"
#include "search/search.h"
#include "testing/alloc_count.h"
#include "testing/random_tables.h"
#include "util/rng.h"

namespace foofah {
namespace {

// Deterministic table generator: shape and contents derived from the seed.
// Mixes empty cells, symbols, digits and words.
Table MakeTable(int seed) {
  const char* words[] = {"alpha", "beta",  "x:1",  "42",   "",
                         "a-b",   "gamma", "7.5",  "key",  "v"};
  int rows = 1 + seed % 3;
  int cols = 1 + (seed / 3) % 4;
  Table t;
  for (int r = 0; r < rows; ++r) {
    Table::Row row;
    for (int c = 0; c < cols; ++c) {
      row.push_back(words[(seed * 7 + r * 5 + c * 3) % 10]);
    }
    t.AppendRow(std::move(row));
  }
  return t;
}

class TableSweep : public ::testing::TestWithParam<int> {};

TEST_P(TableSweep, HashAgreesWithContentEquality) {
  Table a = MakeTable(GetParam());
  Table b = MakeTable(GetParam() + 1);
  EXPECT_EQ(a.Hash(), MakeTable(GetParam()).Hash());
  if (a.ContentEquals(b)) {
    EXPECT_EQ(a.Hash(), b.Hash());
  }
  // Padding with trailing empties never changes hash or equality.
  Table padded = a;
  padded.Rectangularize();
  padded.set_cell(0, padded.num_cols(), "");
  EXPECT_TRUE(a.ContentEquals(padded));
  EXPECT_EQ(a.Hash(), padded.Hash());
}

TEST_P(TableSweep, HeuristicsVanishExactlyAtTheGoal) {
  Table t = MakeTable(GetParam());
  for (HeuristicKind kind : {HeuristicKind::kTedBatch, HeuristicKind::kTed,
                             HeuristicKind::kNaiveRule}) {
    EXPECT_EQ(MakeHeuristic(kind)->Estimate(t, t), 0)
        << HeuristicKindName(kind) << " seed " << GetParam();
  }
}

TEST_P(TableSweep, TedBatchNeverExceedsTed) {
  Table a = MakeTable(GetParam());
  Table b = MakeTable(GetParam() * 3 + 1);
  TedResult ted = GreedyTed(a, b);
  if (ted.cost == kInfiniteCost) return;
  EXPECT_LE(BatchEditPath(ted.path).cost, ted.cost);
  EXPECT_GE(BatchEditPath(ted.path).cost, 0);
}

TEST_P(TableSweep, TedPathCostMatchesReportedCost) {
  Table a = MakeTable(GetParam());
  Table b = MakeTable(GetParam() + 7);
  TedResult r = GreedyTed(a, b);
  if (r.cost == kInfiniteCost) return;
  EXPECT_EQ(PathCost(r.path), r.cost);
}

TEST_P(TableSweep, CsvRoundTripPreservesContent) {
  Table t = MakeTable(GetParam());
  Result<Table> back = ParseCsv(ToCsv(t));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(t.ContentEquals(*back)) << "seed " << GetParam();
  // Serialization is a fixpoint: csv(parse(csv(t))) == csv(t).
  EXPECT_EQ(ToCsv(*back), ToCsv(t));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableSweep, ::testing::Range(0, 30));

// ---------------------------------------------------------------------------
// Every enumerated candidate must apply cleanly and leave the input intact.
// ---------------------------------------------------------------------------

class EnumerationSweep : public ::testing::TestWithParam<int> {};

TEST_P(EnumerationSweep, EnumeratedCandidatesApplyCleanly) {
  Table state = MakeTable(GetParam());
  Table goal = MakeTable(GetParam() + 11);
  OperatorRegistry registry = OperatorRegistry::Default();
  Table before = state;
  for (const Operation& op : EnumerateCandidates(state, goal, registry)) {
    Result<Table> out = ApplyOperation(state, op);
    EXPECT_TRUE(out.ok()) << op.ToString() << " on seed " << GetParam()
                          << ": " << out.status().ToString();
  }
  EXPECT_EQ(state, before);  // Candidates never mutate the state.
}

TEST_P(EnumerationSweep, SerializationRoundTripsThroughParser) {
  Table state = MakeTable(GetParam());
  Table goal = MakeTable(GetParam() + 11);
  OperatorRegistry registry = OperatorRegistry::Default();
  std::vector<Operation> candidates =
      EnumerateCandidates(state, goal, registry);
  Program program(candidates);
  Result<Program> back = ParseProgram(program.ToScript());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, program);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnumerationSweep, ::testing::Range(0, 18));

// ---------------------------------------------------------------------------
// Synthesis-by-construction: apply a known operation, then ask the search
// to rediscover a program with the same effect.
// ---------------------------------------------------------------------------

struct KnownTask {
  const char* name;
  Table input;
  Operation operation;
};

class RediscoverySweep : public ::testing::TestWithParam<int> {};

KnownTask MakeKnownTask(int index) {
  switch (index % 8) {
    case 0:
      return {"drop", Table({{"a", "b"}, {"c", "d"}}), Drop(1)};
    case 1:
      return {"move", Table({{"a", "b", "c"}}), Move(2, 0)};
    case 2:
      return {"split", Table({{"x:y"}, {"u:v"}}), Split(0, ":")};
    case 3:
      return {"fill",
              Table({{"a", "1"}, {"", "2"}, {"b", "3"}, {"", "4"}}),
              Fill(0)};
    case 4:
      return {"fold", Table({{"k", "a", "b"}, {"k2", "c", "d"}}), Fold(1)};
    case 5:
      return {"delete", Table({{"a", "1"}, {"b", ""}, {"c", "3"}}),
              DeleteRows(1)};
    case 6:
      return {"transpose",
              Table({{"a", "b"}, {"c", "d"}, {"e", "f"}}), Transpose()};
    default:
      return {"merge", Table({{"ab", "cd"}, {"ef", "gh"}}), Merge(0, 1)};
  }
}

TEST_P(RediscoverySweep, SearchRediscoversAppliedOperation) {
  KnownTask task = MakeKnownTask(GetParam());
  Result<Table> goal = ApplyOperation(task.input, task.operation);
  ASSERT_TRUE(goal.ok());
  if (task.input.ContentEquals(*goal)) return;  // Degenerate case.
  SearchOptions options;
  options.max_expansions = 5000;
  options.timeout_ms = 10'000;
  SearchResult r = SynthesizeProgram(task.input, *goal, options);
  ASSERT_TRUE(r.found) << task.name;
  Result<Table> replay = r.program.Execute(task.input);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(*replay, *goal) << task.name;
  EXPECT_LE(r.program.size(), 2u) << task.name << ":\n"
                                  << r.program.ToScript();
}

INSTANTIATE_TEST_SUITE_P(Tasks, RediscoverySweep, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Pruning is lossless: for solvable two-step tasks, the pruned search finds
// a program whenever the unpruned search does — and never a longer one.
// ---------------------------------------------------------------------------

class PruningLosslessSweep : public ::testing::TestWithParam<int> {};

TEST_P(PruningLosslessSweep, PrunedSearchMatchesUnprunedOutcome) {
  KnownTask first = MakeKnownTask(GetParam());
  Result<Table> mid = ApplyOperation(first.input, first.operation);
  ASSERT_TRUE(mid.ok());
  // Chain a Drop of the first column as a second step where possible.
  Result<Table> goal = ApplyOperation(*mid, Drop(0));
  if (!goal.ok() || goal->num_cols() == 0 || goal->num_rows() == 0) return;
  if (first.input.ContentEquals(*goal)) return;

  SearchOptions pruned;
  pruned.max_expansions = 20'000;
  SearchOptions unpruned = pruned;
  unpruned.pruning = PruningConfig::None();

  SearchResult with = SynthesizeProgram(first.input, *goal, pruned);
  SearchResult without = SynthesizeProgram(first.input, *goal, unpruned);
  ASSERT_EQ(with.found, without.found) << first.name;
  if (with.found) {
    Result<Table> a = with.program.Execute(first.input);
    Result<Table> b = without.program.Execute(first.input);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *goal);
    EXPECT_EQ(*b, *goal);
    // Pruning must not cost us solution quality.
    EXPECT_LE(with.program.size(), without.program.size() + 1) << first.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Tasks, PruningLosslessSweep, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// The TED heuristics against plain transcriptions of Algorithms 1 and 2:
// the greedy matching scanning every candidate cell, and the batching with
// a tree map per type group as its coordinate index, every candidate
// (singletons included) materialized and a stable sort. The library's
// early-exit scan and allocation-free cover must agree with them exactly:
// same path, same batches in the same order, bit-identical cost.
// ---------------------------------------------------------------------------

TedResult OracleGreedyTed(const Table& input, const Table& output) {
  struct Cell {
    int row, col;
    std::string content;
  };
  auto flatten = [](const Table& t) {
    std::vector<Cell> cells;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      for (size_t c = 0; c < t.num_cols(); ++c) {
        cells.push_back({static_cast<int>(r), static_cast<int>(c),
                         t.cell(r, c)});
      }
    }
    return cells;
  };
  auto op = [](EditType type, const Cell* src, const Cell* dst) {
    EditOp e;
    e.type = type;
    if (src != nullptr) {
      e.src_row = src->row;
      e.src_col = src->col;
    }
    if (dst != nullptr) {
      e.dst_row = dst->row;
      e.dst_col = dst->col;
    }
    return e;
  };
  std::vector<Cell> in = flatten(input);
  std::vector<bool> used(in.size(), false);
  TedResult result;
  for (const Cell& out : flatten(output)) {
    auto argmin = [&](bool reuse) {
      std::pair<double, int> best{kInfiniteCost, -1};
      for (size_t i = 0; i < in.size(); ++i) {
        if (used[i] != reuse) continue;
        double cost = TransformSequenceCost(in[i].content, in[i].row,
                                            in[i].col, out.content, out.row,
                                            out.col);
        if (cost < best.first) best = {cost, static_cast<int>(i)};
      }
      return best;
    };
    auto [cost, index] = argmin(false);
    if (cost == kInfiniteCost && !out.content.empty()) {
      std::tie(cost, index) = argmin(true);
    }
    if (out.content.empty() && 1.0 < cost) {
      result.path.push_back(op(EditType::kAdd, nullptr, &out));
      result.cost += 1;
      continue;
    }
    if (cost == kInfiniteCost) return {kInfiniteCost, result.path};
    const Cell& src = in[index];
    if (src.content != out.content) {
      result.path.push_back(op(EditType::kTransform, &src, &out));
    }
    if (src.row != out.row || src.col != out.col) {
      result.path.push_back(op(EditType::kMove, &src, &out));
    }
    result.cost += cost;
    used[index] = true;
  }
  for (size_t i = 0; i < in.size(); ++i) {
    if (used[i]) continue;
    result.path.push_back(op(EditType::kDelete, &in[i], nullptr));
    result.cost += 1;
  }
  return result;
}

TedBatchResult OracleBatchEditPath(const EditPath& path) {
  struct Spec {
    GeometricPattern pattern;
    bool has_src, has_dst;
    int src_drow, src_dcol, dst_drow, dst_dcol;
  };
  static const Spec kSpecs[] = {
      {GeometricPattern::kHorizontalToHorizontal, true, true, 0, 1, 0, 1},
      {GeometricPattern::kHorizontalToVertical, true, true, 0, 1, 1, 0},
      {GeometricPattern::kVerticalToHorizontal, true, true, 1, 0, 0, 1},
      {GeometricPattern::kVerticalToVertical, true, true, 1, 0, 1, 0},
      {GeometricPattern::kOneToHorizontal, true, true, 0, 0, 0, 1},
      {GeometricPattern::kOneToVertical, true, true, 0, 0, 1, 0},
      {GeometricPattern::kRemoveHorizontal, true, false, 0, 1, 0, 0},
      {GeometricPattern::kRemoveVertical, true, false, 1, 0, 0, 0},
      {GeometricPattern::kAddHorizontal, false, true, 0, 0, 0, 1},
      {GeometricPattern::kAddVertical, false, true, 0, 0, 1, 0},
  };
  using Key = std::tuple<int, int, int, int>;
  auto key_of = [&path](size_t i) {
    return Key{path[i].src_row, path[i].src_col, path[i].dst_row,
               path[i].dst_col};
  };
  std::map<EditType, std::vector<size_t>> groups;
  for (size_t i = 0; i < path.size(); ++i) groups[path[i].type].push_back(i);

  std::vector<EditBatch> candidates;
  for (const auto& [type, indices] : groups) {
    std::map<Key, size_t> at;  // On a duplicate key the earliest op wins.
    for (size_t i : indices) at.emplace(key_of(i), i);
    for (const Spec& spec : kSpecs) {
      if (spec.has_src != (type != EditType::kAdd) ||
          spec.has_dst != (type != EditType::kDelete)) {
        continue;
      }
      auto step = [&spec](const Key& k, int sign) {
        auto [sr, sc, dr, dc] = k;
        return Key{sr + sign * spec.src_drow, sc + sign * spec.src_dcol,
                   dr + sign * spec.dst_drow, dc + sign * spec.dst_dcol};
      };
      for (size_t i : indices) {
        if (at.count(step(key_of(i), -1)) != 0) continue;  // Not a head.
        EditBatch chain;
        chain.pattern = spec.pattern;
        for (Key k = key_of(i); at.count(k) != 0; k = step(k, +1)) {
          chain.op_indices.push_back(at.at(k));
        }
        if (chain.op_indices.size() >= 2) candidates.push_back(chain);
      }
    }
    for (size_t i : indices) {
      EditBatch single;
      single.pattern = type == EditType::kAdd ? GeometricPattern::kAddHorizontal
                       : type == EditType::kDelete
                           ? GeometricPattern::kRemoveHorizontal
                           : GeometricPattern::kHorizontalToHorizontal;
      single.op_indices = {i};
      candidates.push_back(single);
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const EditBatch& a, const EditBatch& b) {
                     return a.op_indices.size() > b.op_indices.size();
                   });
  TedBatchResult result;
  std::vector<bool> covered(path.size(), false);
  for (const EditBatch& candidate : candidates) {
    if (std::any_of(candidate.op_indices.begin(), candidate.op_indices.end(),
                    [&covered](size_t i) { return covered[i]; })) {
      continue;
    }
    double sum = 0;
    for (size_t i : candidate.op_indices) {
      covered[i] = true;
      sum += path[i].cost;
    }
    result.cost += sum / static_cast<double>(candidate.op_indices.size());
    result.batches.push_back(candidate);
  }
  return result;
}

void ExpectSameBatching(const EditPath& path, const std::string& what) {
  TedBatchResult want = OracleBatchEditPath(path);
  TedBatchResult got = BatchEditPath(path);
  EXPECT_EQ(got.cost, want.cost) << what;
  ASSERT_EQ(got.batches.size(), want.batches.size()) << what;
  for (size_t b = 0; b < want.batches.size(); ++b) {
    EXPECT_EQ(got.batches[b].pattern, want.batches[b].pattern)
        << what << " batch " << b;
    EXPECT_EQ(got.batches[b].op_indices, want.batches[b].op_indices)
        << what << " batch " << b;
  }
}

// Both TED heuristics, their public entry points and the batching of the
// path, against the oracles on one (state, goal) pair.
void ExpectSameEstimates(const Table& state, const Table& goal,
                         const std::string& what) {
  static const std::unique_ptr<Heuristic> ted_batch =
      MakeHeuristic(HeuristicKind::kTedBatch);
  static const std::unique_ptr<Heuristic> ted =
      MakeHeuristic(HeuristicKind::kTed);
  TedResult want = OracleGreedyTed(state, goal);
  TedResult got = GreedyTed(state, goal);
  EXPECT_EQ(got.cost, want.cost) << what;
  EXPECT_EQ(ted->Estimate(state, goal), want.cost) << what;
  if (want.cost == kInfiniteCost) {
    EXPECT_EQ(TedBatchCost(state, goal), kInfiniteCost) << what;
    EXPECT_EQ(ted_batch->Estimate(state, goal), kInfiniteCost) << what;
    return;
  }
  ASSERT_EQ(got.path, want.path) << what;
  const double batched = OracleBatchEditPath(want.path).cost;
  EXPECT_EQ(TedBatchCost(state, goal), batched) << what;
  EXPECT_EQ(ted_batch->Estimate(state, goal), batched) << what;
  ExpectSameBatching(got.path, what);
}

class TedOracleSweep : public ::testing::TestWithParam<int> {};

TEST_P(TedOracleSweep, RaggedTablesMatchOracles) {
  Lcg rng(static_cast<uint64_t>(GetParam()));
  for (int k = 0; k < 12; ++k) {
    Table a = k % 3 == 0 ? testing::RandomTable(&rng)
                         : testing::RandomRaggedTable(&rng);
    Table b = testing::RandomRaggedTable(&rng);
    const std::string what =
        "seed " + std::to_string(GetParam()) + " pair " + std::to_string(k);
    ExpectSameEstimates(a, b, what);
    ExpectSameEstimates(b, a, what + " reversed");
  }
}

TEST_P(TedOracleSweep, GeneratedScenariosMatchOracles) {
  fuzz::GeneratorOptions options;
  options.seed = static_cast<uint64_t>(GetParam()) + 1;
  fuzz::ScenarioGenerator generator(options);
  for (int index = 0; index < 4; ++index) {
    fuzz::GeneratedScenario scenario = generator.Generate(index);
    // Every intermediate table of the ground-truth program is a state the
    // search could estimate on its way to the output.
    Result<std::vector<Table>> trace =
        scenario.program.ExecuteWithTrace(scenario.input);
    ASSERT_TRUE(trace.ok()) << scenario.name;
    ExpectSameEstimates(scenario.input, scenario.output, scenario.name);
    for (size_t step = 0; step < trace->size(); ++step) {
      ExpectSameEstimates((*trace)[step], scenario.output,
                          scenario.name + " step " + std::to_string(step));
    }
  }
}

TEST_P(TedOracleSweep, RandomPathsBatchLikeOracle) {
  // Dense random paths over a few coordinates: many chains, overlapping
  // candidates, duplicate keys, and non-unit costs.
  Lcg rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  const double costs[] = {1, 0.5, 2, 1.25, 0.1};
  for (int k = 0; k < 8; ++k) {
    EditPath path(1 + rng.Next(40));
    for (EditOp& op : path) {
      op.type = static_cast<EditType>(rng.Next(4));
      auto coord = [&rng] { return static_cast<int>(rng.Next(7)) - 3; };
      if (op.type != EditType::kAdd) {
        op.src_row = coord();
        op.src_col = coord();
      }
      if (op.type != EditType::kDelete) {
        op.dst_row = coord();
        op.dst_col = coord();
      }
      op.cost = costs[rng.Next(5)];
    }
    ExpectSameBatching(path, "seed " + std::to_string(GetParam()) + " path " +
                                 std::to_string(k));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TedOracleSweep, ::testing::Range(0, 25));

EditOp PathOp(EditType type, int sr, int sc, int dr, int dc,
              double cost = 1) {
  EditOp op;
  op.type = type;
  op.src_row = sr;
  op.src_col = sc;
  op.dst_row = dr;
  op.dst_col = dc;
  op.cost = cost;
  return op;
}

TEST(TedOracleTest, HandBuiltPathsMatchOracle) {
  constexpr int kFar = 1'000'000'000;
  const EditType kDel = EditType::kDelete;
  const EditType kMov = EditType::kMove;
  const EditType kTr = EditType::kTransform;
  const EditType kAdd = EditType::kAdd;
  const std::vector<std::pair<std::string, EditPath>> cases = {
      {"duplicate heads and a duplicate mid-chain",
       {PathOp(kDel, 0, 0, -1, -1), PathOp(kDel, 1, 0, -1, -1),
        PathOp(kDel, 0, 0, -1, -1), PathOp(kDel, 2, 0, -1, -1),
        PathOp(kDel, 1, 0, -1, -1), PathOp(kDel, 0, 1, -1, -1)}},
      {"non-unit costs",
       {PathOp(kTr, 0, 1, 0, 0, 0.5), PathOp(kTr, 1, 1, 1, 0, 2.25),
        PathOp(kTr, 2, 1, 2, 0, 3), PathOp(kMov, 0, 1, 0, 0, 0.1),
        PathOp(kMov, 1, 1, 1, 0, 0.7), PathOp(kAdd, -1, -1, 4, 4, 1.5)}},
      {"negative coordinates",
       {PathOp(kDel, -3, -1, -1, -1), PathOp(kDel, -2, -1, -1, -1),
        PathOp(kDel, -1, -1, -1, -1), PathOp(kMov, -2, -2, -5, 0),
        PathOp(kMov, -2, -1, -4, 0), PathOp(kAdd, -1, -1, -1, -2),
        PathOp(kAdd, -1, -1, -1, -1)}},
      {"far-apart coordinates",
       {PathOp(kMov, -kFar, 0, kFar - 2, 3),
        PathOp(kMov, -kFar + 1, 0, kFar - 1, 3),
        PathOp(kMov, -kFar + 2, 0, kFar, 3), PathOp(kMov, kFar, kFar - 1, 0, 0),
        PathOp(kMov, kFar, kFar, 0, 1), PathOp(kDel, kFar, -kFar, -1, -1),
        PathOp(kDel, -kFar, kFar, -1, -1)}},
      {"one op", {PathOp(kTr, 5, 5, 5, 5, 4)}},
      {"one source feeding a row and a column",
       {PathOp(kTr, 0, 0, 0, 1), PathOp(kTr, 0, 0, 0, 2),
        PathOp(kTr, 0, 0, 1, 0), PathOp(kTr, 0, 0, 2, 0),
        PathOp(kTr, 0, 0, 3, 0), PathOp(kTr, 0, 0, 0, 0)}},
  };
  for (const auto& [name, path] : cases) ExpectSameBatching(path, name);
}

TEST(TedOracleTest, OrderedAndShuffledPathsMatchOracle) {
  // GreedyTed lists each type group in cover order, which the batching
  // scans as it stands; the same ops shuffled, with a few repeated, take
  // its sorting branch. Both must batch like the oracle. The goals reuse
  // the state's cells, so every path is feasible: a transpose and a
  // dropped column give long chains, cells picked at random give few.
  int paths = 0;
  for (int seed = 0; seed < 30; ++seed) {
    Lcg rng(static_cast<uint64_t>(seed) * 104729 + 17);
    const Table state = seed % 2 == 0 ? testing::RandomTable(&rng)
                                      : testing::RandomRaggedTable(&rng);
    std::vector<Table> goals;
    for (const Operation& operation : {Transpose(), Drop(0)}) {
      Result<Table> goal = ApplyOperation(state, operation);
      if (goal.ok()) goals.push_back(std::move(goal).value());
    }
    Table picked;
    const uint32_t rows = 1 + rng.Next(4), cols = 1 + rng.Next(4);
    for (uint32_t r = 0; r < rows; ++r) {
      Table::Row row;
      for (uint32_t c = 0; c < cols; ++c) {
        row.push_back(state.cell(rng.Next(static_cast<uint32_t>(
                                     std::max<size_t>(1, state.num_rows()))),
                                 rng.Next(static_cast<uint32_t>(std::max<size_t>(
                                     1, state.num_cols())))));
      }
      picked.AppendRow(std::move(row));
    }
    goals.push_back(std::move(picked));

    for (size_t g = 0; g < goals.size(); ++g) {
      const TedResult ted = GreedyTed(state, goals[g]);
      if (ted.cost == kInfiniteCost) continue;
      const std::string what =
          "seed " + std::to_string(seed) + " goal " + std::to_string(g);
      ++paths;
      ExpectSameBatching(ted.path, what + " in GreedyTed order");

      EditPath shuffled = ted.path;
      for (size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1],
                  shuffled[rng.Next(static_cast<uint32_t>(i))]);
      }
      ExpectSameBatching(shuffled, what + " shuffled");
      const size_t size = shuffled.size();
      for (int k = 0; k < 3; ++k) {
        shuffled.push_back(shuffled[rng.Next(static_cast<uint32_t>(size))]);
      }
      ExpectSameBatching(shuffled, what + " shuffled with repeats");
    }
  }
  EXPECT_GE(paths, 60);
}

TEST(TedOracleTest, CoordinateIndexDoesNotScaleWithCoordinateRange) {
  // Eight ops spread over the whole int range. An index sized by the
  // range would need gigabytes; one sized by the path needs bytes.
  constexpr int kFar = 2'000'000'000;
  EditPath path;
  for (int i = 0; i < 4; ++i) {
    path.push_back(PathOp(EditType::kDelete, -kFar + i, kFar, -1, -1));
    path.push_back(PathOp(EditType::kMove, kFar - i, -kFar, -kFar, kFar - i));
  }
  const uint64_t bytes_before = testing::ThreadAllocatedBytes();
  TedBatchResult batched = BatchEditPath(path);
  EXPECT_LT(testing::ThreadAllocatedBytes() - bytes_before, 16u * 1024);
  EXPECT_EQ(batched.cost, OracleBatchEditPath(path).cost);
}

TEST(TedOracleTest, WarmEstimatesDoNotAllocate) {
  Table in = {{"Niles C.", "Tel:(800)645-8397"},
              {"Jean H.", "Tel:(918)781-4600"},
              {"Frank K.", ""}};
  Table out = {{"Tel", "(800)645-8397", ""},
               {"Tel", "(918)781-4600", ""}};
  for (HeuristicKind kind : {HeuristicKind::kTedBatch, HeuristicKind::kTed}) {
    std::unique_ptr<Heuristic> heuristic = MakeHeuristic(kind);
    const double cold = heuristic->Estimate(in, out);  // Grows the scratch.
    const uint64_t before = testing::ThreadAllocations();
    const double warm = heuristic->Estimate(in, out);
    EXPECT_EQ(testing::ThreadAllocations() - before, 0u)
        << HeuristicKindName(kind);
    EXPECT_EQ(warm, cold) << HeuristicKindName(kind);
  }
}

}  // namespace
}  // namespace foofah
