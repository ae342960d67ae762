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

// The coordinate index hashes an op's key (type, src, dst) linearly, with
// wrapping arithmetic: the key one pattern step away then hashes to the
// op's hash plus the step's, without building that key.
constexpr uint64_t kTypeMul = 0x9E3779B97F4A7C15ull;
constexpr uint64_t kSrcRowMul = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kSrcColMul = 0x165667B19E3779F9ull;
constexpr uint64_t kDstRowMul = 0xD6E8FEB86659FD93ull;
constexpr uint64_t kDstColMul = 0xFF51AFD7ED558CCDull;

uint64_t CoordHash(int64_t src_row, int64_t src_col, int64_t dst_row,
                   int64_t dst_col) {
  return static_cast<uint64_t>(src_row) * kSrcRowMul +
         static_cast<uint64_t>(src_col) * kSrcColMul +
         static_cast<uint64_t>(dst_row) * kDstRowMul +
         static_cast<uint64_t>(dst_col) * kDstColMul;
}

uint64_t KeyHash(const EditOp& op) {
  return static_cast<uint64_t>(op.type) * kTypeMul +
         CoordHash(op.src_row, op.src_col, op.dst_row, op.dst_col);
}

/// True when `next` has `op`'s type and sits one `spec` step after it.
/// The step is taken in 64 bits, so no coordinate overflows.
bool IsStep(const EditOp& op, const EditOp& next, const PatternSpec& spec) {
  return next.type == op.type &&
         next.src_row == int64_t{op.src_row} + spec.src_drow &&
         next.src_col == int64_t{op.src_col} + spec.src_dcol &&
         next.dst_row == int64_t{op.dst_row} + spec.dst_drow &&
         next.dst_col == int64_t{op.dst_col} + spec.dst_dcol;
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
  /// Per op: the KeyHash of its key.
  std::vector<uint64_t> key_hash;
  /// Per op: 1 when an earlier op has the same type and coordinates. Only
  /// the earliest op of a key joins chains; the others stay singletons.
  std::vector<char> duplicate;
  /// Open-addressing coordinate index over the path: the earliest op of
  /// each key, or kNoOp. Its size is a power of two at least twice the
  /// path length, whatever the coordinates' range; a key's home slot is
  /// the top bits of its hash.
  std::vector<uint32_t> slots;
  uint64_t slot_mask = 0;
  int slot_shift = 0;
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

  /// The earliest op one `spec` step after `ops[from]`, or kNoOp.
  uint32_t FindStep(const EditOp* ops, uint32_t from, const PatternSpec& spec,
                    uint64_t step_hash) const {
    for (uint64_t slot = (key_hash[from] + step_hash) >> slot_shift;;
         slot = (slot + 1) & slot_mask) {
      const uint32_t i = slots[slot];
      if (i == kNoOp || IsStep(ops[from], ops[i], spec)) return i;
    }
  }
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

  // The coordinate index, built once for every type and pattern; on a
  // duplicate key the earliest op wins.
  uint64_t capacity = 2;
  s.slot_shift = 63;
  while (capacity < 2 * static_cast<uint64_t>(n)) {
    capacity *= 2;
    --s.slot_shift;
  }
  if (s.slots.size() < capacity) s.slots.resize(capacity);
  std::fill_n(s.slots.begin(), capacity, kNoOp);
  s.slot_mask = capacity - 1;
  s.key_hash.resize(n);
  s.duplicate.assign(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    const EditOp& op = path[i];
    s.key_hash[i] = KeyHash(op);
    uint64_t slot = s.key_hash[i] >> s.slot_shift;
    while (s.slots[slot] != kNoOp && !(path[s.slots[slot]] == op)) {
      slot = (slot + 1) & s.slot_mask;
    }
    if (s.slots[slot] == kNoOp) {
      s.slots[slot] = i;
    } else {
      s.duplicate[i] = 1;
    }
  }

  // Lines 4–6: candidate batches = maximal chains under each pattern, in
  // type-group, then Table 4, then head order. Each scan looks up every
  // op's successor once; ops nothing precedes are the chain heads.
  s.next.resize(n);
  s.preceded_in_scan.assign(n, 0);
  uint32_t scan = 0;
  for (size_t t = 0; t < kEditTypes; ++t) {
    const uint32_t begin = group_start[t], end = group_start[t + 1];
    if (end - begin < 2) continue;  // No chain of two.
    for (uint32_t p = 0; p < kPatterns.size(); ++p) {
      const PatternSpec& spec = kPatterns[p];
      if (!PatternApplies(spec, static_cast<EditType>(t))) continue;
      // Per-pattern poll: a pattern's scan is the costliest indivisible
      // step of the batching, so checking here bounds the deadline
      // overshoot to one scan.
      if (cancel != nullptr && cancel->IsCancelled()) return false;
      ++scan;
      const uint64_t step_hash = CoordHash(spec.src_drow, spec.src_dcol,
                                           spec.dst_drow, spec.dst_dcol);
      for (uint32_t k = begin; k < end; ++k) {
        const uint32_t i = s.order[k];
        if (s.duplicate[i]) continue;
        s.next[i] = s.FindStep(path.data(), i, spec, step_hash);
        if (s.next[i] != kNoOp) s.preceded_in_scan[s.next[i]] = scan;
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
