#ifndef FOOFAH_SEARCH_TRACE_H_
#define FOOFAH_SEARCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ops/operation.h"
#include "search/pruning.h"
#include "table/table.h"

namespace foofah {

/// Observation interface for the synthesis search. Attach one through
/// SearchOptions::observer to watch the state-space exploration of
/// Definition 4.1 live — expansions, generated children with their
/// heuristic estimates, pruned candidates with the §4.3 rule that fired,
/// and duplicate hits. All callbacks default to no-ops; when no observer
/// is attached the search pays nothing.
///
/// Node ids are indices into the search's node arena: 0 is the initial
/// state e_i, and ids are assigned in generation order.
class SearchObserver {
 public:
  virtual ~SearchObserver() = default;

  /// A node was taken off the frontier for expansion.
  virtual void OnExpand(int node, const Table& state, uint32_t depth) {
    (void)node;
    (void)state;
    (void)depth;
  }

  /// A child state was kept (survived pruning and deduplication).
  virtual void OnGenerate(int node, int parent, const Operation& operation,
                          double heuristic, bool is_goal) {
    (void)node;
    (void)parent;
    (void)operation;
    (void)heuristic;
    (void)is_goal;
  }

  /// A candidate operation's child state was pruned.
  virtual void OnPrune(int parent, const Operation& operation,
                       PruneReason reason) {
    (void)parent;
    (void)operation;
    (void)reason;
  }

  /// A candidate reproduced an already-seen state.
  virtual void OnDuplicate(int parent, const Operation& operation) {
    (void)parent;
    (void)operation;
  }
};

/// Records the explored search graph and renders it as Graphviz DOT — the
/// practical way to *see* why TED Batch expands eight states where blind
/// search generates hundreds of thousands. Caps the number of recorded
/// events so huge searches stay renderable.
class SearchTraceRecorder : public SearchObserver {
 public:
  /// `max_nodes` caps recorded generated nodes; pruned/duplicate edges are
  /// only recorded for parents within the cap.
  explicit SearchTraceRecorder(size_t max_nodes = 256)
      : max_nodes_(max_nodes) {}

  void OnExpand(int node, const Table& state, uint32_t depth) override;
  void OnGenerate(int node, int parent, const Operation& operation,
                  double heuristic, bool is_goal) override;
  void OnPrune(int parent, const Operation& operation,
               PruneReason reason) override;
  void OnDuplicate(int parent, const Operation& operation) override;

  /// Number of nodes recorded (capped).
  size_t recorded_nodes() const { return nodes_.size(); }

  /// Graphviz DOT rendering: expanded nodes solid, goal node(s) doubled,
  /// pruned candidates as dashed red leaves labeled with the rule,
  /// duplicates as dotted gray leaves.
  std::string ToDot() const;

  /// One-line-per-event text log (for tests and terminals).
  std::string ToText() const;

 private:
  struct NodeRecord {
    int id = 0;
    int parent = -1;
    std::string label;   // Operation that produced the node.
    double heuristic = 0;
    uint32_t depth = 0;
    bool expanded = false;
    bool goal = false;
  };
  struct EdgeRecord {
    int parent = 0;
    std::string label;
    bool duplicate = false;            // Otherwise pruned.
    PruneReason reason = PruneReason::kKept;
  };

  NodeRecord* FindNode(int id);

  size_t max_nodes_;
  std::vector<NodeRecord> nodes_;
  std::vector<EdgeRecord> rejected_;
  size_t dropped_events_ = 0;
};

}  // namespace foofah

#endif  // FOOFAH_SEARCH_TRACE_H_
