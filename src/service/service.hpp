// The janusd service engine: admission control, per-client fairness, shared
// warm caches, graceful drain.
//
// `synthesis_service` is transport-agnostic — the socket front-end
// (src/service/socket_server.hpp), the janusbench `service` workload, the
// protocol fuzz axis and the unit tests all feed it protocol lines through
// `submit_line` and receive response lines through a callback. The pipeline:
//
//   submit_line ──► parse (protocol.hpp) ──► stats/ping/shutdown: answered
//        │                                   inline, even under full load
//        │  synth
//        ▼
//   admission control ── queue full ──► typed "overloaded" response
//        │ admitted
//        ▼
//   fair_queue ── round-robin across clients ──► worker threads
//                                                    │
//   one shared solution_cache + lattice_info_cache ◄─┤ synthesize_target
//   per-request deadline + drain cancellation tree ◄─┤ (the batch shard, one
//   one race pool for portfolio requests ◄───────────┘  target at a time —
//                                                      bit-identical to
//                                                      synthesize_batch)
//
// Fairness: the queue holds one deque per client and dispatches round-robin
// over clients with pending work, so a bulk submitter that keeps the queue
// full can delay an interactive client by at most one request per bulk
// request, never starve it. Admission is by total queued jobs: when
// `queue_capacity` are waiting, further synth requests get an immediate
// `overloaded` error instead of unbounded latency.
//
// Drain (docs/service.md): stop admitting (`shutting_down` errors), let
// workers finish everything already accepted; if that takes longer than the
// grace period, fire the drain cancel source — in-flight solves unwind
// through the exec cancellation tree and respond with their best effort,
// still-queued jobs are answered `shutting_down` — then persist the solution
// cache via its atomic tmp+rename save and join the workers.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cache/solution_cache.hpp"
#include "exec/cancellation.hpp"
#include "exec/thread_pool.hpp"
#include "lm/lattice_info.hpp"
#include "service/protocol.hpp"
#include "synth/batch.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace janus::service {

/// Log-linear latency buckets (milliseconds): every power-of-two range from
/// 2^kMinExp to 2^kMaxExp ms (about 1 us to 17 min) splits into kSubBuckets
/// equal-width buckets, so a bucket's upper bound exceeds any value in it by
/// less than 1/kSubBuckets (3.1%). Faster latencies land in the first
/// bucket; slower ones in an unbounded last bucket. Powers the /stats
/// percentiles without storing samples.
struct latency_histogram {
  static constexpr int kSubBuckets = 32;
  static constexpr int kMinExp = -10;
  static constexpr int kMaxExp = 20;
  static constexpr std::size_t kBounded =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets;

  std::array<std::uint64_t, kBounded + 1> counts{};
  std::uint64_t total = 0;
  double max_ms = 0.0;

  void record(double ms);

  /// Upper bound of the bucket holding quantile `q` in [0, 1], clamped to
  /// max_ms (which the unbounded bucket reports); 0 when empty.
  [[nodiscard]] double quantile_ms(double q) const;

  [[nodiscard]] static std::size_t bucket_of(double ms);
  [[nodiscard]] static double upper_ms(std::size_t bucket);
};

/// One snapshot of every counter the daemon exports (the /stats schema in
/// docs/service.md mirrors this struct field for field). The synthesis
/// counters (cache_hits, cache_misses, total_probes, pruned_probes,
/// solver_totals) are the batch's own, counted by the same function.
struct service_stats : synth::synthesis_counters {
  // Request accounting.
  std::uint64_t received = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_overloaded = 0;
  std::uint64_t rejected_shutting_down = 0;
  std::uint64_t bad_requests = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t completed_timeout = 0;
  std::uint64_t failed_internal = 0;
  // Live state.
  std::size_t queue_depth = 0;
  std::size_t in_flight = 0;
  bool draining = false;
  // Backend-routed requests (requests carrying a "backend" field): how many
  // times each registered backend ran a target / won its target's race. A
  // "portfolio" request counts one run per raced backend, one win for the
  // winner; a named-backend request counts one of each when it solves.
  std::map<std::string, std::uint64_t> backend_requests;
  std::map<std::string, std::uint64_t> backend_wins;
  // Shared store, as reported by the cache itself.
  cache::cache_stats store;
  std::size_t store_classes = 0;
  latency_histogram latency;
};

struct service_options {
  /// Worker threads draining the queue. Each runs one request at a time,
  /// every target through synthesize_target at jobs=1 (what a batch shard
  /// runs), so responses are bit-identical to a direct batch run regardless
  /// of worker count.
  int workers = 1;
  /// Admission bound: synth requests waiting in the fair queue (in-flight
  /// work not counted). Full queue => typed `overloaded` rejection.
  std::size_t queue_capacity = 64;
  /// Deadline for requests that do not send deadline_ms; <= 0 = unlimited.
  double default_deadline_s = 30.0;
  /// Drain: how long accepted work may keep running before the drain cancel
  /// fires (see drain()).
  double drain_grace_s = 60.0;
  protocol_limits limits;
  /// Persistent solution store: loaded on construction when the file exists,
  /// saved atomically on drain. Empty = in-memory cache only.
  std::string cache_path;
  /// Per-target engine configuration. `exec`, `solutions` and
  /// `lattice_info` are overridden per request (shared caches, per-request
  /// cancellation, the race pool for portfolio requests and no pool
  /// otherwise); everything else applies as-is.
  synth::janus_options base;
  /// Test hook: runs on the worker thread right after a synth job is
  /// dequeued — before the job is counted in-flight and before any
  /// synthesis. Lets tests hold a worker at a deterministic point
  /// (admission/fairness/deadline tests, and the drain-grace race
  /// regression, which needs exactly this popped-but-uncounted window).
  /// Null = no-op.
  std::function<void(std::uint64_t client, const std::string& id)> on_job_start;
};

/// A queued synthesis job (one request; its PLA outputs are synthesized
/// sequentially within the job, like one batch shard).
struct queued_job {
  std::uint64_t client = 0;
  request req;
  deadline dl;
  stopwatch clock;  ///< started at admission; response `ms` measures from here
  std::function<void(std::string)> respond;
};

/// Bounded multi-client queue with round-robin dispatch. Thread-safe.
class fair_queue {
 public:
  explicit fair_queue(std::size_t capacity) : capacity_(capacity) {}

  /// False when the queue is at capacity or closed (the caller sends the
  /// typed rejection; the queue does not know about responses).
  [[nodiscard]] bool push(std::uint64_t client, queued_job job)
      JANUS_EXCLUDES(mutex_);

  /// Next job, round-robin over clients with pending work: after a client is
  /// served it goes to the back of the rotation. Blocks; nullopt once the
  /// queue is closed and empty.
  [[nodiscard]] std::optional<queued_job> pop() JANUS_EXCLUDES(mutex_);

  /// Reject further pushes; pending jobs still drain through pop().
  void close() JANUS_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t depth() const JANUS_EXCLUDES(mutex_);

 private:
  mutable util::mutex mutex_;
  util::cond_var cv_;
  std::size_t capacity_;
  std::size_t size_ JANUS_GUARDED_BY(mutex_) = 0;
  bool closed_ JANUS_GUARDED_BY(mutex_) = false;
  std::map<std::uint64_t, std::deque<queued_job>> per_client_
      JANUS_GUARDED_BY(mutex_);
  /// Clients with pending jobs, fair order.
  std::deque<std::uint64_t> rotation_ JANUS_GUARDED_BY(mutex_);
};

class synthesis_service {
 public:
  explicit synthesis_service(service_options options);

  /// Drains with a zero grace period if drain() was never called.
  ~synthesis_service();

  synthesis_service(const synthesis_service&) = delete;
  synthesis_service& operator=(const synthesis_service&) = delete;

  /// Handle one protocol line from `client`. Exactly one response line is
  /// delivered through `respond` — inline (stats/ping/shutdown/rejections)
  /// or later from a worker thread (admitted synth jobs). `respond` must be
  /// callable from any thread and must not block for long.
  void submit_line(std::uint64_t client, std::string_view line,
                   std::function<void(std::string)> respond)
      JANUS_EXCLUDES(state_mutex_);

  /// Stop admitting, finish accepted work (cancelling whatever outlives
  /// `grace_s`), persist the cache, join the workers. Idempotent; subsequent
  /// calls return immediately. The no-argument form uses
  /// options().drain_grace_s.
  void drain() JANUS_EXCLUDES(drain_mutex_, state_mutex_);
  void drain(double grace_s) JANUS_EXCLUDES(drain_mutex_, state_mutex_);

  [[nodiscard]] bool draining() const JANUS_EXCLUDES(state_mutex_);
  [[nodiscard]] service_stats stats() const JANUS_EXCLUDES(state_mutex_);
  [[nodiscard]] const service_options& options() const { return options_; }
  /// Solution classes currently in the shared store (tests, warm-restart
  /// checks).
  [[nodiscard]] std::size_t store_size() const { return store_.size(); }

  /// Invoked (at most once, inline from submit_line) when a shutdown op
  /// arrives, after its acknowledgement was delivered. The owner decides how
  /// to stop serving — the service itself only stops on drain(). Set before
  /// the first submit_line; not synchronized against concurrent submits.
  std::function<void()> on_shutdown_request;

 private:
  void worker_loop() JANUS_EXCLUDES(state_mutex_);
  void run_job(queued_job job) JANUS_EXCLUDES(state_mutex_);
  [[nodiscard]] std::string stats_response(const std::string& id) const
      JANUS_EXCLUDES(state_mutex_);

  service_options options_;
  cache::solution_cache store_;
  lm::lattice_info_cache lattice_info_;
  /// One worker per backend, created at start-up and shared by every
  /// portfolio request's race (the race's caller helps run its own ranks,
  /// so concurrent requests cannot starve each other).
  exec::thread_pool race_pool_;
  fair_queue queue_;
  exec::cancel_source drain_cancel_;

  util::mutex drain_mutex_;  ///< serializes drain() callers end to end
  /// Guards the counters, the drain flags and the idle-wait state below.
  /// Never held while a fair_queue operation runs (the drain grace wait of
  /// an earlier revision called queue_.depth() from inside its wait
  /// predicate, nesting state_mutex_ -> fair_queue::mutex_; the
  /// unfinished-jobs counter exists to keep these two locks disjoint).
  mutable util::mutex state_mutex_;
  util::cond_var idle_cv_;
  /// Queue/store/live fields filled on read.
  service_stats counters_ JANUS_GUARDED_BY(state_mutex_);
  /// Jobs admitted but not yet finished by run_job. Incremented at admission
  /// (before the queue push becomes visible to workers), decremented after
  /// run_job returns — so, unlike in_flight_, it can never read 0 while an
  /// accepted job sits between queue_.pop() and the in_flight_ increment.
  /// The drain grace wait below keys off this counter alone; the old
  /// `in_flight_ == 0 && queue_.depth() == 0` predicate had exactly that
  /// popped-but-not-counted window and could cancel accepted work early.
  std::size_t unfinished_jobs_ JANUS_GUARDED_BY(state_mutex_) = 0;
  std::size_t in_flight_ JANUS_GUARDED_BY(state_mutex_) = 0;
  bool draining_ JANUS_GUARDED_BY(state_mutex_) = false;
  bool drained_ JANUS_GUARDED_BY(state_mutex_) = false;
  bool shutdown_signalled_ JANUS_GUARDED_BY(state_mutex_) = false;

  std::vector<std::thread> workers_;
};

}  // namespace janus::service
