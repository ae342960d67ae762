#ifndef FOOFAH_PERFBENCH_TASKS_H_
#define FOOFAH_PERFBENCH_TASKS_H_

// Synthesis inputs of the synth_batch and serve_open workloads.

#include <cstdint>
#include <string>
#include <vector>

#include "search/search.h"
#include "table/table.h"

namespace perfbench {

struct SynthTask {
  std::string name;
  foofah::Table input;
  foofah::Table output;
  bool generated = false;
};

/// The 50 corpus scenarios' two-record example pairs (the paper's §5.3
/// protocol). Seed-independent.
std::vector<SynthTask> CorpusTasks();

/// `count` tasks from fuzz::ScenarioGenerator at `seed`: 3x3 input tables
/// and truth programs of at most two operators from the default library.
/// Fixed table sizes keep the per-task cost of the seeded share
/// comparable, so which tasks a seed draws moves the run's medians little.
std::vector<SynthTask> GeneratedTasks(uint64_t seed, int count);

/// The paper's configuration (A*, TED Batch, all pruning rules, default
/// operators) at one thread, stopped only by counters: no wall-clock
/// limit, so the same task does the same work on every run.
foofah::SearchOptions CountedSearchOptions(uint64_t max_expansions,
                                           uint64_t max_generated);

/// True when `program` turns `input` into exactly `output`
/// (Program::Execute).
bool ProgramReproduces(const foofah::Program& program,
                       const foofah::Table& input,
                       const foofah::Table& output);

}  // namespace perfbench

#endif  // FOOFAH_PERFBENCH_TASKS_H_
