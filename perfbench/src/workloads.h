#ifndef FOOFAH_PERFBENCH_WORKLOADS_H_
#define FOOFAH_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Closed loop, one caller: SynthesizeProgram over the corpus pairs plus
/// seeded generated tasks.
Report RunSynthBatch(const Args& args);

/// Open loop: seeded generated requests submitted on a fixed schedule to a
/// warm-booted SynthesisService.
Report RunServeOpen(const Args& args);

/// exec::ApplyProgramToCsvFile over a seeded CSV: a streaming-only program
/// (`spill` false), or one with a blocking suffix under a memory budget
/// that makes every run spill (`spill` true).
Report RunApply(const Args& args, bool spill);

}  // namespace perfbench

#endif  // FOOFAH_PERFBENCH_WORKLOADS_H_
