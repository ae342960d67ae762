#include "server/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "scenarios/corpus.h"
#include "util/fault_injection.h"
#include "util/retry.h"

namespace foofah {
namespace {

Table EasyInput() { return {{"a", "junk"}, {"b", "junk"}}; }
Table EasyGoal() { return {{"a"}, {"b"}}; }

Table HardInput() {
  return {
      {"Niles C.", "Tel:(800)645-8397"},
      {"", "Fax:(907)586-7252"},
      {"Jean H.", "Tel:(918)781-4600"},
      {"", "Fax:(918)781-4604"},
  };
}

Table HardGoal() {
  return {
      {"Niles C.", "(800)645-8397", "(907)586-7252"},
      {"Jean H.", "(918)781-4600", "(918)781-4604"},
  };
}

SynthesisRequest EasyRequest() {
  SynthesisRequest request;
  request.input = EasyInput();
  request.output = EasyGoal();
  return request;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

TEST_F(ServiceTest, SolvesASimpleRequest) {
  SynthesisService service;
  ServiceResponse response = service.Synthesize(EasyRequest());
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.found);
  EXPECT_EQ(response.winning_rung, 0);
  const SynthesisService::Stats stats = service.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.found, 1u);
  EXPECT_EQ(stats.outstanding, 0u);
  EXPECT_EQ(stats.inflight_bytes, 0u);
}

TEST_F(ServiceTest, EmptyExampleIsInvalidArgument) {
  SynthesisService service;
  SynthesisRequest request;  // Empty tables.
  SynthesisService::Ticket ticket = service.Submit(std::move(request));
  EXPECT_TRUE(ticket.IsReady()) << "rejection must be synchronous";
  ServiceResponse response = ticket.Wait();
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.stats().admitted, 0u);
  EXPECT_EQ(service.stats().shed, 0u) << "caller bugs are not load";
}

TEST_F(ServiceTest, TagIsEchoedInEveryResponseShape) {
  SynthesisService service;
  SynthesisRequest request = EasyRequest();
  request.tag = "tenant-42";
  EXPECT_EQ(service.Synthesize(std::move(request)).tag, "tenant-42");
  SynthesisRequest invalid;
  invalid.tag = "tenant-43";
  EXPECT_EQ(service.Synthesize(std::move(invalid)).tag, "tenant-43");
}

TEST_F(ServiceTest, MemoryBudgetShedsOversizedFloods) {
  ServiceOptions options;
  options.max_inflight_bytes = 1;  // Nothing fits.
  SynthesisService service(options);
  ServiceResponse response = service.Synthesize(EasyRequest());
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
  EXPECT_GT(response.retry_after_ms, 0);
  EXPECT_NE(response.status.message().find("memory"), std::string::npos);
  EXPECT_EQ(service.stats().shed, 1u);
}

TEST_F(ServiceTest, SubmitAfterShutdownIsShedTyped) {
  SynthesisService service;
  service.Shutdown();
  ServiceResponse response = service.Synthesize(EasyRequest());
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(response.status.message().find("shut down"), std::string::npos);
  service.Shutdown();  // Idempotent.
}

TEST_F(ServiceTest, DegradationDescendsUnderTinyBudget) {
  ServiceOptions options;
  options.num_workers = 1;
  options.default_deadline_ms = 0;  // Budget-only: deterministic.
  options.base_search.node_budget = 12;
  SynthesisService service(options);

  SynthesisRequest request;
  request.input = HardInput();
  request.output = HardGoal();
  ServiceResponse response = service.Synthesize(std::move(request));
  EXPECT_FALSE(response.found);
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(response.attempts.size(), 3u) << "full descent expected";

  // The same request with degradation disabled stops after rung 0.
  SynthesisRequest pinned;
  pinned.input = HardInput();
  pinned.output = HardGoal();
  pinned.allow_degradation = false;
  ServiceResponse pinned_response = service.Synthesize(std::move(pinned));
  EXPECT_FALSE(pinned_response.found);
  EXPECT_EQ(pinned_response.attempts.size(), 1u);
}

TEST_F(ServiceTest, TinyMemoryBudgetDescendsEveryRung) {
  // Every rung's budget trips on the root expansion's first kept child
  // and leaves the frontier empty. That is a truncated rung, so the
  // ladder descends and ends ResourceExhausted, not NotFound.
  ServiceOptions options;
  options.num_workers = 1;
  options.default_deadline_ms = 0;
  SynthesisService service(options);

  SynthesisRequest request;
  request.input = Table({{"aa", "bb", "cc", "dd", "ee"},
                         {"ff", "gg", "hh", "ii", "jj"},
                         {"kk", "ll", "mm", "nn", "oo"},
                         {"pp", "qq", "rr", "ss", "tt"},
                         {"uu", "vv", "ww", "xx", "yy"}});
  request.output = Table({{"gg", "uu", "nn", "cc", "qq"},
                          {"yy", "aa", "ll", "tt", "hh"},
                          {"dd", "rr", "jj", "vv", "kk"},
                          {"oo", "ee", "ww", "bb", "ss"},
                          {"mm", "xx", "ff", "ii", "pp"}});
  request.memory_budget = 1;
  ServiceResponse response = service.Synthesize(std::move(request));
  EXPECT_FALSE(response.found);
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted)
      << response.status.ToString();
  ASSERT_EQ(response.attempts.size(), 3u) << "full descent expected";
  for (const auto& attempt : response.attempts) {
    EXPECT_TRUE(attempt.stats.budget_exhausted);
  }
}

TEST_F(ServiceTest, PerRequestBudgetOverridesBase) {
  ServiceOptions options;
  options.num_workers = 1;
  options.default_deadline_ms = 0;
  options.base_search.node_budget = 1'000'000;
  SynthesisService service(options);
  SynthesisRequest request;
  request.input = HardInput();
  request.output = HardGoal();
  request.node_budget = 8;  // Much tighter than the base.
  ServiceResponse response = service.Synthesize(std::move(request));
  ASSERT_FALSE(response.attempts.empty());
  EXPECT_EQ(response.attempts[0].node_budget, 8u);
}

TEST_F(ServiceTest, EstimateScalesWithTableContent) {
  SynthesisRequest small = EasyRequest();
  SynthesisRequest big = EasyRequest();
  big.input = Table(std::vector<Table::Row>{{std::string(1u << 16, 'x')}});
  EXPECT_GT(SynthesisService::EstimateRequestBytes(big),
            SynthesisService::EstimateRequestBytes(small) + (1u << 15));
}

// --- Fault-injection-pinned interleavings -------------------------------

#ifdef FOOFAH_FAULT_INJECTION
constexpr bool kFaultBuild = true;
#else
constexpr bool kFaultBuild = false;
#endif

/// Parks every worker that reaches the dispatch fault point until
/// Release(); lets tests pin queue occupancy exactly.
class WorkerPark {
 public:
  WorkerPark() {
    FaultInjector::Instance().ArmCallback(fault_points::kServerDispatch,
                                          [this] { Park(); });
  }

  ~WorkerPark() { Release(); }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
    FaultInjector::Instance().Disarm(fault_points::kServerDispatch);
  }

  /// Blocks until `count` workers are parked.
  void AwaitParked(size_t count) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return parked_ >= count || released_; });
  }

 private:
  void Park() {
    std::unique_lock<std::mutex> lock(mu_);
    ++parked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
  }

  std::mutex mu_;
  std::condition_variable cv_;
  size_t parked_ = 0;
  bool released_ = false;
};

TEST_F(ServiceTest, SheddingAtCapacityIsExact) {
  if (!kFaultBuild) GTEST_SKIP() << "needs -DFOOFAH_FAULT_INJECTION=ON";
  constexpr size_t kCapacity = 4;  // K
  constexpr size_t kOverload = 3;  // M
  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = kCapacity;
  options.retry_after_base_ms = 10;
  options.default_deadline_ms = 60'000;  // Parked requests must not expire.
  SynthesisService service(options);

  WorkerPark park;
  // All submissions land while the workers are parked, so admission is a
  // pure function of the outstanding count: exactly K admitted, M shed.
  std::vector<SynthesisService::Ticket> tickets;
  for (size_t i = 0; i < kCapacity + kOverload; ++i) {
    tickets.push_back(service.Submit(EasyRequest()));
  }

  size_t admitted = 0, shed = 0;
  for (SynthesisService::Ticket& ticket : tickets) {
    if (ticket.IsReady()) {
      ServiceResponse response = ticket.Wait();
      ASSERT_EQ(response.status.code(), StatusCode::kUnavailable)
          << response.status.ToString();
      // The hint reflects full pressure: base * (outstanding + 1).
      EXPECT_EQ(response.retry_after_ms,
                options.retry_after_base_ms *
                    static_cast<int64_t>(kCapacity + 1));
      ++shed;
    } else {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, kCapacity);
  EXPECT_EQ(shed, kOverload);
  EXPECT_EQ(service.stats().admitted, kCapacity);
  EXPECT_EQ(service.stats().shed, kOverload);

  // A rejected request retried with backoff succeeds once the overload
  // clears.
  park.Release();
  for (SynthesisService::Ticket& ticket : tickets) (void)ticket.Wait();

  std::vector<int64_t> slept;
  BackoffPolicy backoff;
  backoff.max_attempts = 3;
  ServiceResponse retried = RetryWithBackoff(
      backoff, [&](int) { return service.Synthesize(EasyRequest()); },
      [](const ServiceResponse& r) -> int64_t {
        return r.status.code() == StatusCode::kUnavailable ? r.retry_after_ms
                                                           : -1;
      },
      [&](int64_t ms) { slept.push_back(ms); });
  EXPECT_TRUE(retried.status.ok()) << retried.status.ToString();
  EXPECT_TRUE(retried.found);
}

TEST_F(ServiceTest, AdmissionFaultShedsExactlyTheArmedSubmit) {
  if (!kFaultBuild) GTEST_SKIP() << "needs -DFOOFAH_FAULT_INJECTION=ON";
  SynthesisService service;
  FaultInjector::Instance().ArmFailure(fault_points::kServerAdmit,
                                       /*nth_hit=*/1);
  ServiceResponse dropped = service.Synthesize(EasyRequest());
  EXPECT_EQ(dropped.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(dropped.status.message().find("injected"), std::string::npos);
  EXPECT_GT(dropped.retry_after_ms, 0);
  ServiceResponse next = service.Synthesize(EasyRequest());
  EXPECT_TRUE(next.status.ok()) << next.status.ToString();
  EXPECT_EQ(service.stats().shed, 1u);
}

TEST_F(ServiceTest, DispatchDropCompletesTyped) {
  if (!kFaultBuild) GTEST_SKIP() << "needs -DFOOFAH_FAULT_INJECTION=ON";
  ServiceOptions options;
  options.num_workers = 1;
  SynthesisService service(options);
  FaultInjector::Instance().ArmFailure(fault_points::kServerDispatch,
                                       /*nth_hit=*/1);
  ServiceResponse dropped = service.Synthesize(EasyRequest());
  EXPECT_EQ(dropped.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(dropped.status.message().find("dispatch"), std::string::npos);
  EXPECT_GT(dropped.retry_after_ms, 0);
  // The drop released its admission slot: the service still works.
  ServiceResponse next = service.Synthesize(EasyRequest());
  EXPECT_TRUE(next.status.ok()) << next.status.ToString();
  const SynthesisService::Stats stats = service.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.outstanding, 0u);
  EXPECT_EQ(stats.inflight_bytes, 0u);
}

TEST_F(ServiceTest, CancelWhileQueuedIsTypedCancelled) {
  if (!kFaultBuild) GTEST_SKIP() << "needs -DFOOFAH_FAULT_INJECTION=ON";
  ServiceOptions options;
  options.num_workers = 1;
  options.default_deadline_ms = 60'000;
  SynthesisService service(options);
  WorkerPark park;
  SynthesisService::Ticket parked = service.Submit(EasyRequest());
  park.AwaitParked(1);
  SynthesisService::Ticket queued = service.Submit(EasyRequest());
  queued.Cancel();
  park.Release();
  ServiceResponse cancelled = queued.Wait();
  EXPECT_EQ(cancelled.status.code(), StatusCode::kCancelled)
      << cancelled.status.ToString();
  EXPECT_FALSE(cancelled.found);
  EXPECT_TRUE(cancelled.attempts.empty()) << "no search may run";
  EXPECT_TRUE(parked.Wait().status.ok());
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST_F(ServiceTest, CancelMidSearchInterruptsTheRung) {
  if (!kFaultBuild) GTEST_SKIP() << "needs -DFOOFAH_FAULT_INJECTION=ON";
  ServiceOptions options;
  options.num_workers = 1;
  options.default_deadline_ms = 60'000;
  SynthesisService service(options);

  // Park the search (not the worker) on its first heuristic estimate, so
  // the cancel provably lands while a rung is mid-flight.
  std::mutex mu;
  std::condition_variable cv;
  bool search_running = false, cancel_delivered = false;
  FaultInjector::Instance().ArmCallback(
      fault_points::kHeuristicEstimate, [&] {
        std::unique_lock<std::mutex> lock(mu);
        if (!search_running) {
          search_running = true;
          cv.notify_all();
          cv.wait(lock, [&] { return cancel_delivered; });
        }
      });

  SynthesisRequest request;
  request.input = HardInput();
  request.output = HardGoal();
  SynthesisService::Ticket ticket = service.Submit(std::move(request));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return search_running; });
  }
  ticket.Cancel();
  {
    std::lock_guard<std::mutex> lock(mu);
    cancel_delivered = true;
  }
  cv.notify_all();

  ServiceResponse response = ticket.Wait();
  FaultInjector::Instance().Disarm(fault_points::kHeuristicEstimate);
  EXPECT_EQ(response.status.code(), StatusCode::kCancelled)
      << response.status.ToString();
  ASSERT_EQ(response.attempts.size(), 1u) << "descent must stop on cancel";
  EXPECT_TRUE(response.attempts[0].stats.cancelled);
}

TEST_F(ServiceTest, TicketCancelBeforeRungPublishReachesTheRung) {
  if (!kFaultBuild) GTEST_SKIP() << "needs -DFOOFAH_FAULT_INJECTION=ON";
  // Park rung 0 at its start line, after the ladder's between-rung cancel
  // check but before the rung publishes its token, and cancel the ticket
  // there. The publish hook must forward the request cancel to the fresh
  // rung token, so the search returns cancelled without expanding and the
  // response is typed kCancelled.
  ServiceOptions options;
  options.num_workers = 1;
  options.default_deadline_ms = 60'000;
  SynthesisService service(options);

  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  bool released = false;
  FaultInjector::Instance().ArmCallback(
      fault_points::kLadderRungStart, [&] {
        std::unique_lock<std::mutex> lock(mu);
        ++arrived;
        cv.notify_all();
        cv.wait(lock, [&] { return released; });
      });

  SynthesisService::Ticket ticket = service.Submit(EasyRequest());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return arrived >= 1; });
  }
  ticket.Cancel();
  {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();

  ServiceResponse response = ticket.Wait();
  FaultInjector::Instance().Disarm(fault_points::kLadderRungStart);

  EXPECT_EQ(response.status.code(), StatusCode::kCancelled)
      << response.status.ToString();
  EXPECT_FALSE(response.found);
  ASSERT_EQ(response.attempts.size(), 1u) << "descent must stop on cancel";
  EXPECT_TRUE(response.attempts[0].stats.cancelled);
  EXPECT_EQ(response.attempts[0].stats.nodes_expanded, 0u)
      << "a rung that starts cancelled must not expand";
}

TEST_F(ServiceTest, ShutdownFlushesQueueAndCancelsExecuting) {
  if (!kFaultBuild) GTEST_SKIP() << "needs -DFOOFAH_FAULT_INJECTION=ON";
  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 8;
  options.default_deadline_ms = 60'000;
  SynthesisService service(options);

  WorkerPark park;
  std::vector<SynthesisService::Ticket> tickets;
  for (int i = 0; i < 4; ++i) tickets.push_back(service.Submit(EasyRequest()));
  park.AwaitParked(2);  // Two executing (parked), two queued.

  std::thread shutdown_thread([&] { service.Shutdown(); });
  // Shutdown fires the executing requests' cancel tokens and then flushes
  // the queue, all before joining the workers. Wait for the two flushed
  // (queued) completions — they prove the cancels are armed — before
  // releasing the parked workers, so the executing pair deterministically
  // observes the cancel instead of racing to an OK completion.
  for (;;) {
    size_t ready = 0;
    for (SynthesisService::Ticket& ticket : tickets) {
      if (ticket.IsReady()) ++ready;
    }
    if (ready >= 2) break;
    std::this_thread::yield();
  }
  park.Release();
  shutdown_thread.join();

  int unavailable = 0, cancelled = 0;
  for (SynthesisService::Ticket& ticket : tickets) {
    ServiceResponse response = ticket.Wait();
    switch (response.status.code()) {
      case StatusCode::kUnavailable:
        ++unavailable;  // Flushed from the queue.
        break;
      case StatusCode::kCancelled:
        ++cancelled;  // Was executing; request token fired by Shutdown.
        break;
      default:
        FAIL() << "untyped shutdown outcome: " << response.status.ToString();
    }
  }
  EXPECT_EQ(unavailable, 2);
  EXPECT_EQ(cancelled, 2);
  const SynthesisService::Stats stats = service.stats();
  EXPECT_EQ(stats.outstanding, 0u);
  EXPECT_EQ(stats.inflight_bytes, 0u);
}

}  // namespace
}  // namespace foofah
