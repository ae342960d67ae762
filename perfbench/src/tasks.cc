#include "tasks.h"

#include <algorithm>

#include "fuzz/generator.h"
#include "ops/registry.h"
#include "scenarios/corpus.h"

namespace perfbench {

std::vector<SynthTask> CorpusTasks() {
  std::vector<SynthTask> tasks;
  for (const foofah::Scenario& scenario : foofah::Corpus()) {
    foofah::Result<foofah::ExamplePair> example =
        scenario.MakeExample(std::min(2, scenario.total_records()));
    if (!example.ok()) continue;
    tasks.push_back(
        {scenario.name(), example->input, example->output, false});
  }
  return tasks;
}

std::vector<SynthTask> GeneratedTasks(uint64_t seed, int count) {
  static const foofah::OperatorRegistry registry =
      foofah::OperatorRegistry::Default();
  foofah::fuzz::GeneratorOptions options;
  options.seed = seed;
  options.registry = &registry;
  options.max_ops = 2;
  options.min_rows = options.max_rows = 3;
  options.min_cols = options.max_cols = 3;
  const foofah::fuzz::ScenarioGenerator generator(options);
  std::vector<SynthTask> tasks;
  tasks.reserve(count);
  for (int i = 0; i < count; ++i) {
    foofah::fuzz::GeneratedScenario scenario = generator.Generate(i);
    tasks.push_back({std::move(scenario.name), std::move(scenario.input),
                     std::move(scenario.output), true});
  }
  return tasks;
}

foofah::SearchOptions CountedSearchOptions(uint64_t max_expansions,
                                           uint64_t max_generated) {
  foofah::SearchOptions options;
  options.num_threads = 1;
  options.timeout_ms = 0;
  options.max_expansions = max_expansions;
  options.max_generated = max_generated;
  return options;
}

bool ProgramReproduces(const foofah::Program& program,
                       const foofah::Table& input,
                       const foofah::Table& output) {
  foofah::Result<foofah::Table> produced = program.Execute(input);
  return produced.ok() && produced->ContentEquals(output);
}

}  // namespace perfbench
