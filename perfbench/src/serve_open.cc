// serve_open: an open loop. One generator thread submits seeded
// generated requests to a SynthesisService on a fixed schedule, whether or
// not earlier requests have finished, so a slower service builds a queue
// instead of receiving less load. Each request's latency runs from its
// scheduled send time: send lateness + the service's queue_ms + run_ms.
//
// The service boots as a warm replica from a guidance snapshot mined in
// set-up from the corpus truth programs only (never from the request
// seed), runs the sequential degradation ladder with node budgets, and has
// a deadline far above any latency this rate produces. This is the only
// workload where admission, the queue, the ladder and the guided phase do
// work.
//
// The generator and the service's workers share one CPU, and the
// generator spins (yielding to runnable workers) between sends, so that
// CPU never idles. On the reference host a virtual CPU that idles and is
// woken again loses time to the hypervisor: with the generator sleeping
// between sends and the workers free to wake other CPUs, steal took
// 12-38% of the busy time in some periods (against 3-5% pinned and
// spinning) and the median latency of ten seeds spread by 0.48-0.51.

#include <sched.h>

#include <algorithm>
#include <memory>

#include "learn/snapshot.h"
#include "learn/stats.h"
#include "replay.h"
#include "scenarios/corpus.h"
#include "server/service.h"
#include "tasks.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

// About a sixth of the CPU at this host's measured service cost (7-8 ms
// of CPU per request, mostly in the third of requests that fall back to
// the exact search). On one CPU a request that arrives while a fallback
// runs shares the CPU with it; at this rate that happens to few enough of
// the quick guided requests that the median stays among the unshared
// ones (at 49 requests/s it did not). At 20 s a run sends 500 requests,
// and the tail is p98 with 10 samples beyond it.
constexpr double kRequestsPerSecond = 25;
constexpr int kWorkers = 2;
constexpr uint64_t kNodeBudget = 300;
constexpr uint64_t kMaxExpansions = 200;
constexpr uint64_t kMaxGenerated = 300;
constexpr int64_t kDeadlineMs = 30'000;
// limit_met_frac: requests answered with a program within this latency.
constexpr double kLimitMs = 100;
// Each set-up takes about 80 ms, and the first few in a process take up
// to twice that: over twelve runs the median of the first 5 spread by
// 0.17, the median of 25 by 0.03.
constexpr int kSetupRuns = 25;

foofah::ServiceOptions MakeServiceOptions(const std::string& snapshot) {
  foofah::ServiceOptions options;
  options.num_workers = kWorkers;
  options.queue_capacity = 1024;
  options.default_deadline_ms = kDeadlineMs;
  options.base_search = CountedSearchOptions(kMaxExpansions, kMaxGenerated);
  options.base_search.node_budget = kNodeBudget;
  options.snapshot_path = snapshot;
  return options;
}

struct Sent {
  OpenLoopSample timing;
  double admit_us = 0;
  foofah::ServiceResponse response;
};

}  // namespace

Report RunServeOpen(const Args& args) {
  Report report;
  const std::string snapshot_path = args.work_dir + "/guidance.snapshot";
  const size_t n =
      std::max<size_t>(1, static_cast<size_t>(kRequestsPerSecond *
                                              args.seconds));
  std::vector<SynthTask> requests;
  std::unique_ptr<foofah::SynthesisService> service;
  std::vector<double> load_ms;

  // Threads inherit the affinity of the thread that creates them, so the
  // service's workers, started in set-up, share this CPU.
  cpu_set_t one_cpu;
  CPU_ZERO(&one_cpu);
  CPU_SET(sched_getcpu(), &one_cpu);
  if (sched_setaffinity(0, sizeof(one_cpu), &one_cpu) != 0) {
    report.Fail("cannot pin the workload to one CPU");
    return report;
  }

  const double setup_s = MedianSetupSeconds(kSetupRuns, [&] {
    service.reset();
    foofah::GuidanceSnapshot snapshot;
    snapshot.model = foofah::MineScenarios(foofah::Corpus());
    foofah::Status saved =
        foofah::SaveGuidanceSnapshot(snapshot, snapshot_path);
    if (!saved.ok()) report.Fail("snapshot save: " + saved.ToString());
    requests = GeneratedTasks(args.seed, static_cast<int>(n));

    // The service loads the snapshot as it boots.
    const Clock::time_point load_start = Clock::now();
    service = std::make_unique<foofah::SynthesisService>(
        MakeServiceOptions(snapshot_path));
    load_ms.push_back(MsBetween(load_start, Clock::now()));
    if (!service->snapshot_status().ok()) {
      report.Fail("snapshot load: " + service->snapshot_status().ToString());
    }

    // Warm-up: the seed-independent corpus pairs, one at a time.
    for (const SynthTask& task : CorpusTasks()) {
      foofah::SynthesisRequest request;
      request.input = task.input;
      request.output = task.output;
      service->Synthesize(std::move(request));
    }
  });

  // The generator: spin until each request's scheduled send time, then
  // Submit. The spinning is not service cost, so its CPU time is kept out
  // of cpu_ms_per_task. Responses are collected after the schedule ends.
  std::vector<Sent> sent(n);
  std::vector<foofah::SynthesisService::Ticket> tickets;
  tickets.reserve(n);
  const double period_ms = 1000.0 / kRequestsPerSecond;
  double spin_cpu_ms = 0;
  const HostTicks ticks_before = ReadHostTicks();
  const double cpu_before = ProcessCpuMs();
  const Clock::time_point origin = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    const double due_ms = i * period_ms;
    const Clock::time_point due =
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(due_ms));
    const double spin_start = ThreadCpuMs();
    while (Clock::now() < due) sched_yield();
    spin_cpu_ms += ThreadCpuMs() - spin_start;
    foofah::SynthesisRequest request;
    request.input = requests[i].input;
    request.output = requests[i].output;
    const Clock::time_point submit_start = Clock::now();
    tickets.push_back(service->Submit(std::move(request)));
    const Clock::time_point submit_end = Clock::now();
    sent[i].timing.scheduled_ms = due_ms;
    sent[i].timing.submitted_ms = MsBetween(origin, submit_start);
    sent[i].admit_us = MsBetween(submit_start, submit_end) * 1000.0;
  }
  for (size_t i = 0; i < n; ++i) {
    sent[i].response = tickets[i].Wait();
    sent[i].timing.queue_ms = sent[i].response.queue_ms;
    sent[i].timing.run_ms = sent[i].response.run_ms;
  }
  const double loop_ms = MsBetween(origin, Clock::now());
  const double cpu_ms = ProcessCpuMs() - cpu_before - spin_cpu_ms;
  const double steal = StealFraction(ticks_before, ReadHostTicks());

  std::vector<double> latency, lateness, queue, run, admit;
  size_t found = 0, within_limit = 0, shed = 0, guided_wins = 0,
         fallbacks = 0, degraded = 0, searched = 0;
  uint64_t rungs = 0, guided_expansions = 0, memo_hits = 0, memo_lookups = 0,
           expanded = 0, generated = 0, tried = 0, kept = 0, input_rows = 0;
  for (size_t i = 0; i < n; ++i) {
    const foofah::ServiceResponse& r = sent[i].response;
    ++report.attempted;
    input_rows += requests[i].input.num_rows();
    const double ms = OpenLoopLatencyMs(sent[i].timing);
    latency.push_back(ms);
    lateness.push_back(SendLatenessMs(sent[i].timing));
    admit.push_back(sent[i].admit_us);
    const foofah::StatusCode code = r.status.code();
    if (code == foofah::StatusCode::kUnavailable) {
      ++shed;
      ++report.failed;
      continue;
    }
    // A typed "no program within budget" is a correct answer; anything
    // else that is not OK is a failure.
    if (!r.status.ok() && code != foofah::StatusCode::kResourceExhausted &&
        code != foofah::StatusCode::kNotFound) {
      ++report.failed;
      report.Fail(Format("request %zu: %s", i, r.status.ToString().c_str()));
      continue;
    }
    if (r.found && !ProgramReproduces(r.program, requests[i].input,
                                      requests[i].output)) {
      ++report.failed;
      report.Fail(Format("request %zu: program does not reproduce the "
                         "example output",
                         i));
      continue;
    }
    queue.push_back(r.queue_ms);
    run.push_back(r.run_ms);
    ++searched;
    found += r.found;
    within_limit += r.found && ms <= kLimitMs;
    guided_wins += r.guided_win;
    fallbacks += r.guidance_fallbacks > 0;
    degraded += r.found && r.winning_rung > 0;
    guided_expansions += r.guided_expansions;
    rungs += r.attempts.size();
    for (const foofah::LadderAttempt& attempt : r.attempts) {
      memo_hits += attempt.stats.heuristic_cache_hits;
      memo_lookups += attempt.stats.heuristic_cache_hits +
                      attempt.stats.heuristic_cache_misses;
      expanded += attempt.stats.nodes_expanded;
      generated += attempt.stats.nodes_generated;
      tried += attempt.stats.candidates_tried;
      kept += KeptCandidates(attempt.stats);
    }
  }

  const Tail tail = TailLatency(latency);
  report.notes.push_back(Format(
      "requests=%zu rate=%g/s workers=%d limit=%gms tail=p%g of %zu "
      "samples (%zu beyond) lag_max=%.3fms",
      n, kRequestsPerSecond, kWorkers, kLimitMs, tail.percent, tail.samples,
      tail.beyond, *std::max_element(lateness.begin(), lateness.end())));

  if (!args.trace) {
    report.metrics["setup_s"] = setup_s;
    report.metrics["latency_p50_ms"] = Median(latency);
    report.metrics["latency_tail_ms"] = tail.value;
    report.metrics["tasks_per_s"] = n / loop_ms * 1000.0;
    report.metrics["rows_per_s"] = input_rows / loop_ms * 1000.0;
    report.metrics["solved_frac"] = static_cast<double>(found) / n;
    report.metrics["limit_met_frac"] = static_cast<double>(within_limit) / n;
    report.metrics["cpu_ms_per_task"] = cpu_ms / n;
    report.metrics["peak_rss_mb"] = PeakRssMb();
    return report;
  }

  // Spans, assembled after the loop from what the untraced run records
  // anyway: the request, its Submit call, the queue wait, the run, and
  // each ladder rung laid end to end inside the run.
  const Clock::time_point spans_start = Clock::now();
  SpanRecorder spans;
  auto at = [&](double ms) {
    return origin + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(ms));
  };
  for (size_t i = 0; i < n; ++i) {
    const OpenLoopSample& t = sent[i].timing;
    const double queued_ms = t.submitted_ms + t.queue_ms;
    const uint64_t root =
        spans.Add("serve.request", 0, i, at(t.scheduled_ms),
                  at(queued_ms + t.run_ms));
    spans.Add("server.submit", root, i, at(t.submitted_ms),
              at(t.submitted_ms + sent[i].admit_us / 1000.0));
    spans.Add("server.queue", root, i, at(t.submitted_ms), at(queued_ms));
    const uint64_t run_span =
        spans.Add("server.run", root, i, at(queued_ms),
                  at(queued_ms + t.run_ms));
    double rung_start = queued_ms;
    const std::vector<foofah::LadderAttempt>& attempts =
        sent[i].response.attempts;
    for (size_t k = 0; k < attempts.size(); ++k) {
      const foofah::SearchStats& stats = attempts[k].stats;
      const double rung_end = rung_start + stats.elapsed_ms;
      spans.Add("server.rung", run_span, i, at(rung_start), at(rung_end),
                Format("rung=%zu found=%d truncated=%d guided_win=%d "
                       "fallback=%u guided_expansions=%llu expanded=%llu "
                       "memo=%llu/%llu",
                       k, attempts[k].found, attempts[k].truncated,
                       stats.guided_win, stats.guidance_fallbacks,
                       static_cast<unsigned long long>(
                           stats.guided_expansions),
                       static_cast<unsigned long long>(stats.nodes_expanded),
                       static_cast<unsigned long long>(
                           stats.heuristic_cache_hits),
                       static_cast<unsigned long long>(
                           stats.heuristic_cache_hits +
                           stats.heuristic_cache_misses)));
      rung_start = rung_end;
    }
  }
  const double spans_ms = MsBetween(spans_start, Clock::now());

  report.metrics["learn.snapshot_load_ms"] = Median(load_ms);
  report.metrics["learn.guided_win_frac"] =
      searched == 0 ? 0 : static_cast<double>(guided_wins) / searched;
  report.metrics["learn.fallback_frac"] =
      searched == 0 ? 0 : static_cast<double>(fallbacks) / searched;
  report.metrics["learn.guided_expansions"] =
      searched == 0 ? 0 : static_cast<double>(guided_expansions) / searched;
  report.metrics["server.admit_us"] = Median(admit);
  report.metrics["server.queue_ms_p50"] = Median(queue);
  report.metrics["server.queue_ms_tail"] = TailLatency(queue).value;
  report.metrics["server.run_ms_p50"] = Median(run);
  report.metrics["server.run_ms_tail"] = TailLatency(run).value;
  report.metrics["server.shed_frac"] = static_cast<double>(shed) / n;
  report.metrics["server.rungs_per_request"] =
      searched == 0 ? 0 : static_cast<double>(rungs) / searched;
  report.metrics["server.degraded_frac"] =
      found == 0 ? 0 : static_cast<double>(degraded) / found;
  // Search counts come from the rungs' SearchStats; the time and
  // allocation split of the search layers is measured in synth_batch.
  report.metrics["heuristic.memo_hit_frac"] =
      memo_lookups == 0 ? 0 : static_cast<double>(memo_hits) / memo_lookups;
  report.metrics["heuristic.estimate_calls"] = memo_lookups - memo_hits;
  report.metrics["ops.candidates"] = tried;
  report.metrics["search.kept_frac"] =
      tried == 0 ? 0 : static_cast<double>(kept) / tried;
  report.metrics["search.nodes_expanded"] = expanded;
  report.metrics["search.nodes_generated"] = generated;
  static constexpr const char* kUntimed[] = {
      "ops.enumerate_ms",      "ops.apply_ms",
      "ops.apply_allocs",      "search.prune_ms",
      "search.frontier_ms",    "search.allocs_per_task",
      "heuristic.estimate_ms", "heuristic.estimate_allocs"};
  report.NotMeasured(kUntimed,
                     "the searches run on the service's workers; the "
                     "search-layer split comes from synth_batch");
  // Every search runs at one thread, so no pool starts.
  report.metrics["util.pool_start_us"] = 0;
  report.Bypass(kExecutorLayerMetrics);
  report.metrics["load.lag_ms_p50"] = Median(lateness);
  report.metrics["load.lag_ms_max"] =
      *std::max_element(lateness.begin(), lateness.end());
  report.metrics["host.steal_frac"] = steal;
  // The loop is identical with tracing on; what tracing adds is the span
  // assembly after it.
  report.metrics["trace.overhead_frac"] = spans_ms / loop_ms;
  if (!spans.Write(args.trace_dir + "/serve_open-seed" +
                   std::to_string(args.seed) + ".jsonl")) {
    report.Fail("cannot write the span file");
  }
  return report;
}

}  // namespace perfbench
