#include "heuristic/ted_batch.h"

#include <algorithm>
#include <array>
#include <cstdint>

#include "heuristic/ted.h"
#include "util/cancellation.h"

namespace foofah {

namespace {

/// Coordinate step of a pattern: how (src, dst) advance from one op in the
/// batch to the next. A pattern applies to ops with a src, a dst, or both.
struct PatternSpec {
  GeometricPattern pattern;
  bool has_src;
  bool has_dst;
  int src_drow, src_dcol;
  int dst_drow, dst_dcol;
};

constexpr std::array<PatternSpec, 10> kPatterns = {{
    // Table 4, in order.
    {GeometricPattern::kHorizontalToHorizontal, true, true, 0, 1, 0, 1},
    {GeometricPattern::kHorizontalToVertical, true, true, 0, 1, 1, 0},
    {GeometricPattern::kVerticalToHorizontal, true, true, 1, 0, 0, 1},
    {GeometricPattern::kVerticalToVertical, true, true, 1, 0, 1, 0},
    {GeometricPattern::kOneToHorizontal, true, true, 0, 0, 0, 1},
    {GeometricPattern::kOneToVertical, true, true, 0, 0, 1, 0},
    {GeometricPattern::kRemoveHorizontal, true, false, 0, 1, 0, 0},
    {GeometricPattern::kRemoveVertical, true, false, 1, 0, 0, 0},
    // Extension: Adds batch like Removes, over dst coordinates.
    {GeometricPattern::kAddHorizontal, false, true, 0, 0, 0, 1},
    {GeometricPattern::kAddVertical, false, true, 0, 0, 1, 0},
}};

constexpr size_t kEditTypes = 4;  // EditType values are 0..3.

bool PatternApplies(const PatternSpec& spec, EditType type) {
  // "One to X" patterns keep the src fixed; a fixed-point step on BOTH
  // sides would chain an op with itself, which is meaningless, so patterns
  // always advance at least one side (all specs above do).
  return spec.has_src == (type != EditType::kAdd) &&
         spec.has_dst == (type != EditType::kDelete);
}

/// An op's coordinates in cover order: dst row, dst col, src row, src col.
/// They are widened to 64 bits, so a pattern step never overflows.
struct CoverKey {
  int64_t dst_row, dst_col, src_row, src_col;

  friend bool operator==(const CoverKey& a, const CoverKey& b) {
    return a.dst_row == b.dst_row && a.dst_col == b.dst_col &&
           a.src_row == b.src_row && a.src_col == b.src_col;
  }
  friend bool operator<(const CoverKey& a, const CoverKey& b) {
    if (a.dst_row != b.dst_row) return a.dst_row < b.dst_row;
    if (a.dst_col != b.dst_col) return a.dst_col < b.dst_col;
    if (a.src_row != b.src_row) return a.src_row < b.src_row;
    return a.src_col < b.src_col;
  }
};

CoverKey KeyOf(const EditOp& op) {
  return {op.dst_row, op.dst_col, op.src_row, op.src_col};
}

/// The key one `spec` step after `key`. A step moves every coordinate by 0
/// or +1, so it preserves cover order: if a < b then Step(a) < Step(b).
CoverKey Step(const CoverKey& key, const PatternSpec& spec) {
  return {key.dst_row + spec.dst_drow, key.dst_col + spec.dst_dcol,
          key.src_row + spec.src_drow, key.src_col + spec.src_dcol};
}

constexpr uint32_t kNoOp = UINT32_MAX;

/// A candidate batch of two or more ops: `length` op indices from
/// `offset` in CoverScratch::chain_ops, in chain order, all following
/// kPatterns[pattern].
struct Chain {
  uint32_t offset;
  uint32_t length;
  uint32_t pattern;
};

/// The cover's per-thread buffers. They grow to the longest path the
/// thread has batched and are reused by every later call, so a warm call
/// allocates nothing.
struct CoverScratch {
  /// Op indices grouped by edit type in enum order, ascending in a group.
  std::vector<uint32_t> order;
  /// One type group's op indices in cover order (CoverKey, then index),
  /// when the path does not list the group in that order already.
  std::vector<uint32_t> sorted;
  /// The keys of the group being scanned, in cover order.
  std::vector<CoverKey> keys;
  /// Per op: 1 when an earlier op has the same type and coordinates. Only
  /// the earliest op of a key joins chains; the others stay singletons.
  std::vector<char> duplicate;
  /// Per op, for the pattern being scanned: the op one step after it (or
  /// kNoOp), and the number of the last scan that found a step before it.
  std::vector<uint32_t> next;
  std::vector<uint32_t> preceded_in_scan;
  /// Every candidate chain's ops, one chain after another.
  std::vector<uint32_t> chain_ops;
  /// The candidates in generation order; after the cover, the chosen
  /// batches in cover order.
  std::vector<Chain> chains;
  std::vector<char> covered;
  /// The edit path TedBatchCost batches.
  EditPath path;
};

CoverScratch& ThreadScratch() {
  thread_local CoverScratch scratch;
  return scratch;
}

/// Algorithm 2's greedy cover of `path`, computed in `s`. On return
/// s.chains holds the chosen multi-op batches in cover order and
/// s.covered marks their ops; every op left uncovered is a singleton
/// batch, in s.order. Returns false when `cancel` fired.
bool GreedyCover(const EditPath& path, const CancellationToken* cancel,
                 CoverScratch& s) {
  const uint32_t n = static_cast<uint32_t>(path.size());
  s.chain_ops.clear();
  s.chains.clear();
  s.covered.assign(n, 0);

  // Line 3: group ops by edit type (an op batches only with ops of its own
  // type: "Move should not be in the same batch as Drop"), by counting.
  std::array<uint32_t, kEditTypes + 1> group_start{};
  for (const EditOp& op : path) ++group_start[static_cast<size_t>(op.type) + 1];
  for (size_t t = 0; t < kEditTypes; ++t) group_start[t + 1] += group_start[t];
  s.order.resize(n);
  {
    std::array<uint32_t, kEditTypes> fill{};
    std::copy_n(group_start.begin(), kEditTypes, fill.begin());
    for (uint32_t i = 0; i < n; ++i) {
      s.order[fill[static_cast<size_t>(path[i].type)]++] = i;
    }
  }

  // Lines 4–6: candidate batches = maximal chains under each pattern, in
  // type-group, then Table 4, then head order. A step preserves cover
  // order, so each scan finds every op's successor with one merge over
  // the group in that order; ops nothing precedes are the chain heads.
  s.duplicate.assign(n, 0);
  s.next.resize(n);
  s.preceded_in_scan.assign(n, 0);
  uint32_t scan = 0;
  for (size_t t = 0; t < kEditTypes; ++t) {
    const uint32_t begin = group_start[t], end = group_start[t + 1];
    const uint32_t size = end - begin;
    if (size < 2) continue;  // No chain of two.
    // GreedyTed lists every group in cover order; only a hand-built path
    // needs the sort, and the index tie-break keeps it stable, so the
    // earliest op of a key comes first.
    const uint32_t* ops = s.order.data() + begin;
    s.keys.resize(size);
    bool in_order = true;
    for (uint32_t k = 0; k < size; ++k) {
      s.keys[k] = KeyOf(path[ops[k]]);
      if (k > 0 && s.keys[k] < s.keys[k - 1]) in_order = false;
    }
    if (!in_order) {
      s.sorted.assign(ops, ops + size);
      std::sort(s.sorted.begin(), s.sorted.end(),
                [&path](uint32_t a, uint32_t b) {
                  const CoverKey ka = KeyOf(path[a]), kb = KeyOf(path[b]);
                  return ka < kb || (ka == kb && a < b);
                });
      ops = s.sorted.data();
      for (uint32_t k = 0; k < size; ++k) s.keys[k] = KeyOf(path[ops[k]]);
    }
    for (uint32_t k = 1; k < size; ++k) {
      if (s.keys[k] == s.keys[k - 1]) s.duplicate[ops[k]] = 1;
    }

    for (uint32_t p = 0; p < kPatterns.size(); ++p) {
      const PatternSpec& spec = kPatterns[p];
      if (!PatternApplies(spec, static_cast<EditType>(t))) continue;
      // Per-pattern poll: a pattern's scan is the costliest indivisible
      // step of the batching, so checking here bounds the deadline
      // overshoot to one scan.
      if (cancel != nullptr && cancel->IsCancelled()) return false;
      ++scan;
      uint32_t j = 0;
      for (uint32_t k = 0; k < size; ++k) {
        const uint32_t i = ops[k];
        if (s.duplicate[i]) continue;
        const CoverKey target = Step(s.keys[k], spec);
        while (j < size && s.keys[j] < target) ++j;
        s.next[i] = kNoOp;
        if (j < size && s.keys[j] == target) {
          s.next[i] = ops[j];
          s.preceded_in_scan[ops[j]] = scan;
        }
      }
      for (uint32_t k = begin; k < end; ++k) {
        const uint32_t head = s.order[k];
        if (s.duplicate[head] || s.preceded_in_scan[head] == scan ||
            s.next[head] == kNoOp) {
          continue;
        }
        const uint32_t offset = static_cast<uint32_t>(s.chain_ops.size());
        for (uint32_t i = head; i != kNoOp; i = s.next[i]) {
          s.chain_ops.push_back(i);
        }
        s.chains.push_back(
            {offset, static_cast<uint32_t>(s.chain_ops.size()) - offset, p});
      }
    }
  }

  // Lines 7–11: repeatedly take the largest candidate disjoint from the
  // ops already covered; ties go to the earlier-generated candidate (Table
  // 4 order), and a chain's offset is its generation rank. Every multi-op
  // chain outranks every singleton, so singletons need no candidates:
  // whatever stays uncovered is one.
  std::sort(s.chains.begin(), s.chains.end(),
            [](const Chain& a, const Chain& b) {
              return a.length != b.length ? a.length > b.length
                                          : a.offset < b.offset;
            });
  size_t chosen = 0;
  for (const Chain& chain : s.chains) {
    const uint32_t* ops = s.chain_ops.data() + chain.offset;
    if (std::any_of(ops, ops + chain.length,
                    [&s](uint32_t i) { return s.covered[i] != 0; })) {
      continue;
    }
    for (uint32_t k = 0; k < chain.length; ++k) s.covered[ops[k]] = 1;
    s.chains[chosen++] = chain;
  }
  s.chains.resize(chosen);
  return true;
}

/// Lines 12–17: the sum of mean op costs per batch of the cover in `s`,
/// chosen chains first, then singletons in type-group order.
double CoverCost(const EditPath& path, const CoverScratch& s) {
  auto mean_cost = [&path](const uint32_t* ops, uint32_t length) {
    double sum = 0;
    for (uint32_t k = 0; k < length; ++k) sum += path[ops[k]].cost;
    return sum / static_cast<double>(length);
  };
  double cost = 0;
  for (const Chain& chain : s.chains) {
    cost += mean_cost(s.chain_ops.data() + chain.offset, chain.length);
  }
  for (const uint32_t& i : s.order) {
    if (!s.covered[i]) cost += mean_cost(&i, 1);
  }
  return cost;
}

}  // namespace

TedBatchResult BatchEditPath(const EditPath& path,
                             const CancellationToken* cancel) {
  TedBatchResult result;
  CoverScratch& s = ThreadScratch();
  if (!GreedyCover(path, cancel, s)) {
    result.cost = kInfiniteCost;
    return result;
  }
  for (const Chain& chain : s.chains) {
    const auto ops = s.chain_ops.begin() + chain.offset;
    result.batches.push_back(
        {kPatterns[chain.pattern].pattern, {ops, ops + chain.length}});
  }
  // The pattern of a singleton is immaterial; pick by op shape for clarity.
  for (uint32_t i : s.order) {
    if (s.covered[i]) continue;
    GeometricPattern pattern = GeometricPattern::kHorizontalToHorizontal;
    if (path[i].type == EditType::kAdd) {
      pattern = GeometricPattern::kAddHorizontal;
    } else if (path[i].type == EditType::kDelete) {
      pattern = GeometricPattern::kRemoveHorizontal;
    }
    result.batches.push_back({pattern, {i}});
  }
  result.cost = CoverCost(path, s);
  return result;
}

double TedBatchCost(const Table& input, const Table& output,
                    const CancellationToken* cancel) {
  CoverScratch& s = ThreadScratch();
  if (GreedyTed(input, output, &s.path, cancel) == kInfiniteCost) {
    return kInfiniteCost;
  }
  if (!GreedyCover(s.path, cancel, s)) return kInfiniteCost;
  return CoverCost(s.path, s);
}

}  // namespace foofah
