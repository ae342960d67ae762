#include "server/service.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "heuristic/heuristic_cache.h"
#include "learn/guidance.h"
#include "learn/snapshot.h"
#include "program/parser.h"
#include "util/fault_injection.h"

namespace foofah {

namespace {

using Clock = CancellationToken::Clock;

double ElapsedMs(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Program-cache key: the four-hash fingerprint of an example pair.
/// Content hash alone could collide across shapes; the shape fingerprints
/// ride along exactly as in the heuristic memo. (The cached script is
/// replay-validated before serving anyway — the key only gates lookups.)
std::string ExampleCacheKey(const Table& input, const Table& output) {
  char buf[4 * 16 + 4];
  std::snprintf(buf, sizeof(buf),
                "%016" PRIx64 ":%016" PRIx64 ":%016" PRIx64 ":%016" PRIx64,
                input.Hash(), input.ShapeFingerprint(), output.Hash(),
                output.ShapeFingerprint());
  return std::string(buf);
}

}  // namespace

/// Everything one submitted request carries through the service. Shared
/// between the Ticket (waiter side) and the worker (producer side); the
/// last holder frees it.
struct SynthesisService::RequestState {
  explicit RequestState(SynthesisRequest req) : request(std::move(req)) {}

  SynthesisRequest request;
  uint64_t bytes = 0;
  Clock::time_point submit_time{};
  Clock::time_point dispatch_time{};
  /// Absolute deadline measured from submission; unset = none.
  std::optional<Clock::time_point> deadline;

  /// Request-level token: fired by Ticket::Cancel (kExternal) or by its
  /// armed deadline while the request waits in the queue.
  CancellationToken cancel;

  /// The private token of the rung search currently mid-flight
  /// (published by the ladder's on_rung_token hook), so an external
  /// cancel interrupts the search instead of waiting for a rung boundary.
  /// Null between rungs. Guarded by token_mu; only valid between its
  /// active publish and the matching inactive publish.
  std::mutex token_mu;
  CancellationToken* active_rung_token = nullptr;

  /// Fires the request token and the running rung's token, if any. The
  /// publish hook re-checks the request token under token_mu, so a cancel
  /// landing between a rung's start and its publish still reaches it.
  void CancelAll() {
    cancel.RequestCancel();
    std::lock_guard<std::mutex> lock(token_mu);
    if (active_rung_token != nullptr) active_rung_token->RequestCancel();
  }

  /// Completion latch.
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  ServiceResponse response;
};

// --- Ticket --------------------------------------------------------------

SynthesisService::Ticket::Ticket() = default;
SynthesisService::Ticket::~Ticket() = default;
SynthesisService::Ticket::Ticket(const Ticket&) = default;
SynthesisService::Ticket& SynthesisService::Ticket::operator=(const Ticket&) =
    default;
SynthesisService::Ticket::Ticket(Ticket&&) noexcept = default;
SynthesisService::Ticket& SynthesisService::Ticket::operator=(
    Ticket&&) noexcept = default;

SynthesisService::Ticket::Ticket(std::shared_ptr<RequestState> state)
    : state_(std::move(state)) {}

ServiceResponse SynthesisService::Ticket::Wait() const {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->done; });
  return state_->response;
}

bool SynthesisService::Ticket::IsReady() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

void SynthesisService::Ticket::Cancel() const { state_->CancelAll(); }

// --- SynthesisService ----------------------------------------------------

SynthesisService::SynthesisService(ServiceOptions options)
    : options_(std::move(options)) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.queue_capacity < 1) options_.queue_capacity = 1;
  if (options_.rungs.empty()) options_.rungs.push_back(LadderRung{});
  // Service parallelism is across requests; each request's search stays
  // serial so responses do not depend on the worker count.
  if (options_.base_search.num_threads == 0) options_.base_search.num_threads = 1;

  // Warm-replica boot: load the guidance snapshot, if configured. Any
  // failure degrades to the unguided configuration — a replica that can
  // search slowly beats one that refuses to start — with the typed error
  // kept for operators to inspect.
  if (options_.snapshot_path.empty()) {
    snapshot_status_ =
        Status::Unimplemented("no guidance snapshot configured");
  } else {
    Result<GuidanceSnapshot> loaded =
        LoadGuidanceSnapshot(options_.snapshot_path);
    if (!loaded.ok()) {
      snapshot_status_ = loaded.status();
      options_.base_search.guidance = nullptr;
    } else {
      snapshot_status_ = Status::OK();
      guidance_ = std::make_unique<GuidancePolicy>(loaded->model);
      options_.base_search.guidance = guidance_.get();
      if (!loaded->heuristic_entries.empty()) {
        // One thread-safe memo shared by every worker, pre-warmed with
        // the persisted estimates (estimates are pure functions of their
        // key, so sharing across requests and goals is sound).
        warm_cache_ = std::make_unique<HeuristicCache>(
            std::max(options_.base_search.heuristic_cache_capacity,
                     loaded->heuristic_entries.size() * 2));
        for (const GuidanceSnapshot::HeuristicEntry& e :
             loaded->heuristic_entries) {
          warm_cache_->Insert(e.state_hash, e.goal_hash, e.checksum,
                              e.estimate);
        }
        options_.base_search.heuristic_cache = warm_cache_.get();
      }
      for (const GuidanceSnapshot::ProgramEntry& e :
           loaded->program_entries) {
        char buf[4 * 16 + 4];
        std::snprintf(buf, sizeof(buf),
                      "%016" PRIx64 ":%016" PRIx64 ":%016" PRIx64
                      ":%016" PRIx64,
                      e.input_hash, e.input_shape, e.output_hash,
                      e.output_shape);
        // Keys are content-derived, so a duplicate key means an identical
        // entry; emplace's first-wins keeps the map deterministic.
        program_cache_.emplace(std::string(buf), e.script);
      }
    }
  }

  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

SynthesisService::~SynthesisService() { Shutdown(); }

uint64_t SynthesisService::EstimateRequestBytes(
    const SynthesisRequest& request) {
  uint64_t bytes = sizeof(RequestState);
  for (const Table* table : {&request.input, &request.output}) {
    for (size_t r = 0; r < table->num_rows(); ++r) {
      const Table::Row& row = table->row(r);
      bytes += sizeof(Table::Row);
      for (const std::string& cell : row) {
        bytes += sizeof(std::string) + cell.size();
      }
    }
  }
  return bytes;
}

int64_t SynthesisService::RetryAfterHintLocked() const {
  const int64_t base = std::max<int64_t>(1, options_.retry_after_base_ms);
  return base * static_cast<int64_t>(outstanding_ + 1);
}

SynthesisService::Ticket SynthesisService::Submit(SynthesisRequest request) {
  auto state = std::make_shared<RequestState>(std::move(request));
  state->submit_time = Clock::now();
  state->bytes = EstimateRequestBytes(state->request);
  state->response.tag = state->request.tag;

  // Malformed requests are a caller bug, not load: typed kInvalidArgument,
  // no shedding accounting.
  if (state->request.input.num_rows() == 0 ||
      state->request.output.num_rows() == 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.submitted;
    }
    ServiceResponse response;
    response.tag = state->request.tag;
    response.status = Status::InvalidArgument(
        "service: request needs non-empty input and output example tables");
    Complete(state, std::move(response), /*admitted=*/false);
    return Ticket(state);
  }

  const int64_t deadline_ms = state->request.deadline_ms > 0
                                  ? state->request.deadline_ms
                                  : options_.default_deadline_ms;
  if (deadline_ms > 0) {
    state->deadline = state->submit_time + std::chrono::milliseconds(deadline_ms);
    // Arm the request token too: a request that rots in the queue past its
    // deadline is detected at dispatch without running any search.
    state->cancel.TightenDeadline(*state->deadline);
  }

  // The admission fault point runs before mu_ so armed callbacks (which
  // may block to pin an interleaving) never stall unrelated submitters.
  const bool admit_fault = FOOFAH_FAULT_FAIL(fault_points::kServerAdmit);

  bool shed = false;
  std::string shed_cause;
  int64_t retry_after = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    if (shutdown_) {
      shed = true;
      shed_cause = "service is shut down";
    } else if (admit_fault) {
      shed = true;
      shed_cause = "admission rejected (injected fault)";
    } else if (outstanding_ >= options_.queue_capacity) {
      shed = true;
      shed_cause = "queue at capacity (" +
                   std::to_string(options_.queue_capacity) +
                   " outstanding requests)";
    } else if (options_.max_inflight_bytes != 0 &&
               inflight_bytes_ + state->bytes > options_.max_inflight_bytes) {
      shed = true;
      shed_cause = "in-flight memory budget exceeded";
    }
    if (shed) {
      ++stats_.shed;
      retry_after = RetryAfterHintLocked();
    } else {
      ++stats_.admitted;
      ++outstanding_;
      inflight_bytes_ += state->bytes;
      queue_.push_back(state);
    }
  }

  if (shed) {
    ServiceResponse response;
    response.tag = state->request.tag;
    response.status = Status::Unavailable("service overloaded: " + shed_cause);
    response.retry_after_ms = retry_after;
    Complete(state, std::move(response), /*admitted=*/false);
    return Ticket(state);
  }

  queue_cv_.notify_one();
  return Ticket(state);
}

ServiceResponse SynthesisService::Synthesize(SynthesisRequest request) {
  return Submit(std::move(request)).Wait();
}

void SynthesisService::WorkerLoop() {
  for (;;) {
    std::shared_ptr<RequestState> state;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_, and Shutdown flushed it.
      if (shutdown_) return;       // Shutdown is flushing; leave it to it.
      state = std::move(queue_.front());
      queue_.pop_front();
      executing_.insert(state.get());
    }
    Dispatch(state);
  }
}

void SynthesisService::Dispatch(const std::shared_ptr<RequestState>& state) {
  state->dispatch_time = Clock::now();

  // The dispatch fault point models a worker dropping a popped request
  // (and is where tests park workers to pin queue occupancy). A forced
  // failure still yields a typed response — admitted work never vanishes.
  if (FOOFAH_FAULT_FAIL(fault_points::kServerDispatch)) {
    ServiceResponse response;
    response.tag = state->request.tag;
    response.status =
        Status::Unavailable("service dropped the request at dispatch");
    {
      std::lock_guard<std::mutex> lock(mu_);
      response.retry_after_ms = RetryAfterHintLocked();
    }
    Complete(state, std::move(response), /*admitted=*/true);
    return;
  }

  // A request whose budget died while queued (deadline passed, or the
  // caller cancelled) completes without burning a search.
  if (state->cancel.IsCancelled()) {
    ServiceResponse response;
    response.tag = state->request.tag;
    response.status = StatusFromCancelReason(state->cancel.reason(),
                                             "service: before dispatch");
    Complete(state, std::move(response), /*admitted=*/true);
    return;
  }

  // Persisted result cache (warm replicas only — the map is non-empty
  // only after a successful snapshot load): a hit is replay-validated by
  // actually executing the cached script on the request's input and
  // comparing against its output, so a fingerprint collision or stale
  // entry falls through to the normal search instead of serving a wrong
  // program.
  if (!program_cache_.empty()) {
    auto it = program_cache_.find(
        ExampleCacheKey(state->request.input, state->request.output));
    if (it != program_cache_.end()) {
      Result<Program> parsed = ParseProgram(it->second);
      if (parsed.ok()) {
        Result<Table> replayed = parsed->Execute(state->request.input);
        if (replayed.ok() &&
            replayed->ContentEquals(state->request.output)) {
          ServiceResponse response;
          response.tag = state->request.tag;
          response.status = Status::OK();
          response.found = true;
          response.program = std::move(parsed).value();
          response.winning_rung = 0;
          response.served_from_cache = true;
          Complete(state, std::move(response), /*admitted=*/true);
          return;
        }
      }
    }
  }

  LadderOptions ladder;
  ladder.base = options_.base_search;
  if (state->request.node_budget > 0) {
    ladder.base.node_budget = state->request.node_budget;
  }
  if (state->request.memory_budget > 0) {
    ladder.base.memory_budget = state->request.memory_budget;
  }
  ladder.rungs = options_.rungs;
  if (!state->request.allow_degradation) ladder.rungs.resize(1);
  ladder.cancel = &state->cancel;
  ladder.deadline = state->deadline;
  if (state->deadline.has_value()) {
    double remaining_ms = ElapsedMs(state->dispatch_time, *state->deadline);
    if (remaining_ms < 1) remaining_ms = 1;
    // Split the time still left across the rungs proportionally to their
    // budget scales, so rung 0 cannot eat the whole deadline and leave the
    // cheaper rungs stillborn.
    double scale_sum = 0;
    for (const LadderRung& rung : ladder.rungs) {
      scale_sum += std::max(rung.budget_scale, 0.0);
    }
    if (scale_sum <= 0) scale_sum = 1;
    const int64_t slice_ms =
        std::max<int64_t>(1, static_cast<int64_t>(remaining_ms / scale_sum));
    // The configured per-rung timeout still caps rung 0 when tighter.
    if (ladder.base.timeout_ms <= 0 || slice_ms < ladder.base.timeout_ms) {
      ladder.base.timeout_ms = slice_ms;
    }
  }
  ladder.on_rung_token = [state](int /*rung*/, CancellationToken* token,
                                 bool active) {
    std::lock_guard<std::mutex> lock(state->token_mu);
    state->active_rung_token = active ? token : nullptr;
    // A Ticket::Cancel that landed before this publish missed the rung
    // pointer; forward it now so the fresh rung token starts fired.
    if (active && state->cancel.IsCancelled()) token->RequestCancel();
  };

  LadderResult result = RunDegradationLadder(state->request.input,
                                             state->request.output, ladder);

  ServiceResponse response;
  response.tag = state->request.tag;
  response.status = std::move(result.status);
  response.found = result.found;
  response.program = std::move(result.program);
  response.winning_rung = result.winning_rung;
  response.anytime = std::move(result.anytime);
  response.attempts = std::move(result.attempts);
  for (const LadderAttempt& attempt : response.attempts) {
    response.guided_expansions += attempt.stats.guided_expansions;
    response.guidance_fallbacks += attempt.stats.guidance_fallbacks;
    if (attempt.found && attempt.stats.guided_win) response.guided_win = true;
  }
  Complete(state, std::move(response), /*admitted=*/true);
}

void SynthesisService::Complete(const std::shared_ptr<RequestState>& state,
                                ServiceResponse response, bool admitted) {
  const Clock::time_point now = Clock::now();
  if (admitted) {
    response.queue_ms = ElapsedMs(
        state->submit_time, state->dispatch_time == Clock::time_point{}
                                ? now
                                : state->dispatch_time);
    if (state->dispatch_time != Clock::time_point{}) {
      response.run_ms = ElapsedMs(state->dispatch_time, now);
    }
    std::lock_guard<std::mutex> lock(mu_);
    executing_.erase(state.get());
    --outstanding_;
    inflight_bytes_ -= state->bytes;
    ++stats_.completed;
    if (response.found) {
      ++stats_.found;
      if (response.winning_rung > 0) ++stats_.degraded;
    } else if (response.anytime.available) {
      ++stats_.anytime;
    }
    if (response.status.code() == StatusCode::kCancelled) ++stats_.cancelled;
    if (response.served_from_cache) ++stats_.cache_served;
    if (response.guided_win) ++stats_.guided_wins;
    if (response.guidance_fallbacks > 0) ++stats_.guidance_fallbacks;
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->response = std::move(response);
    state->done = true;
  }
  state->cv.notify_all();
}

void SynthesisService::Shutdown() {
  std::deque<std::shared_ptr<RequestState>> flushed;
  bool join = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!shutdown_) {
      shutdown_ = true;
      join = true;
      flushed.swap(queue_);
      // Executing requests finish on their own — just make it soon.
      for (RequestState* executing : executing_) executing->CancelAll();
    }
  }
  queue_cv_.notify_all();
  for (const std::shared_ptr<RequestState>& state : flushed) {
    ServiceResponse response;
    response.tag = state->request.tag;
    response.status =
        Status::Unavailable("service shut down before the request ran");
    Complete(state, std::move(response), /*admitted=*/true);
  }
  if (join) {
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  }
}

SynthesisService::Stats SynthesisService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats snapshot = stats_;
  snapshot.queue_depth = queue_.size();
  snapshot.outstanding = outstanding_;
  snapshot.inflight_bytes = inflight_bytes_;
  return snapshot;
}

}  // namespace foofah
