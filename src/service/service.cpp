#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <utility>

#include "backend/backend.hpp"
#include "util/check.hpp"
#include "util/json_writer.hpp"
#include "util/log.hpp"

namespace janus::service {

std::size_t latency_histogram::bucket_of(double ms) {
  int exp = 0;
  const double frac = std::frexp(ms, &exp);  // ms = frac * 2^exp, frac >= 0.5
  const int octave = exp - 1 - kMinExp;
  if (!(ms > 0.0) || octave < 0) {
    return 0;
  }
  if (octave >= kMaxExp - kMinExp) {
    return kBounded;
  }
  const int sub = static_cast<int>((2.0 * frac - 1.0) * kSubBuckets);
  return static_cast<std::size_t>(octave * kSubBuckets + sub);
}

double latency_histogram::upper_ms(std::size_t bucket) {
  const int octave = static_cast<int>(bucket) / kSubBuckets;
  const int sub = static_cast<int>(bucket) % kSubBuckets;
  return std::ldexp(1.0 + (sub + 1.0) / kSubBuckets, kMinExp + octave);
}

void latency_histogram::record(double ms) {
  ++counts[bucket_of(ms)];
  ++total;
  max_ms = std::max(max_ms, ms);
}

double latency_histogram::quantile_ms(double q) const {
  if (total == 0) {
    return 0.0;
  }
  const double rank = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBounded; ++i) {
    seen += counts[i];
    if (static_cast<double>(seen) >= rank) {
      return std::min(upper_ms(i), max_ms);
    }
  }
  return max_ms;
}

// ---- fair_queue -------------------------------------------------------------

bool fair_queue::push(std::uint64_t client, queued_job job) {
  {
    util::lock_guard lock(mutex_);
    if (closed_ || size_ >= capacity_) {
      return false;
    }
    std::deque<queued_job>& jobs = per_client_[client];
    if (jobs.empty()) {
      rotation_.push_back(client);  // client (re-)enters the rotation
    }
    jobs.push_back(std::move(job));
    ++size_;
  }
  cv_.notify_one();
  return true;
}

std::optional<queued_job> fair_queue::pop() {
  util::unique_lock lock(mutex_);
  while (size_ == 0 && !closed_) {
    cv_.wait(lock);
  }
  if (size_ == 0) {
    return std::nullopt;  // closed and drained
  }
  const std::uint64_t client = rotation_.front();
  rotation_.pop_front();
  std::deque<queued_job>& jobs = per_client_.at(client);
  queued_job job = std::move(jobs.front());
  jobs.pop_front();
  --size_;
  if (jobs.empty()) {
    per_client_.erase(client);
  } else {
    rotation_.push_back(client);  // round-robin: back of the line
  }
  return job;
}

void fair_queue::close() {
  {
    util::lock_guard lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t fair_queue::depth() const {
  util::lock_guard lock(mutex_);
  return size_;
}

// ---- synthesis_service ------------------------------------------------------

synthesis_service::synthesis_service(service_options options)
    : options_(std::move(options)),
      lattice_info_(options_.base.max_paths),
      race_pool_(backend::backend_names().size()),
      queue_(options_.queue_capacity) {
  if (!options_.cache_path.empty()) {
    try {
      if (store_.load_file(options_.cache_path)) {
        JANUS_LOG(info) << "service: warm cache loaded from "
                        << options_.cache_path << " (" << store_.size()
                        << " classes)";
      }
    } catch (const check_error& e) {
      // A corrupt store must not keep the daemon from starting; it will be
      // rebuilt and atomically rewritten on drain.
      JANUS_LOG(warn) << "service: ignoring corrupt cache file "
                      << options_.cache_path << ": " << e.what();
    }
  }
  const int workers = std::max(1, options_.workers);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

synthesis_service::~synthesis_service() { drain(0.0); }

void synthesis_service::submit_line(std::uint64_t client,
                                    std::string_view line,
                                    std::function<void(std::string)> respond) {
  {
    util::lock_guard lock(state_mutex_);
    ++counters_.received;
  }
  parse_outcome parsed = parse_request(line, options_.limits);
  if (!parsed.req.has_value()) {
    {
      util::lock_guard lock(state_mutex_);
      ++counters_.bad_requests;
    }
    respond(error_response(parsed.id, error_code::bad_request, parsed.error));
    return;
  }
  request& req = *parsed.req;

  switch (req.op) {
    case request_op::ping:
      respond(pong_response(req.id));
      return;
    case request_op::stats:
      respond(stats_response(req.id));
      return;
    case request_op::shutdown: {
      respond(shutdown_response(req.id));
      bool first = false;
      {
        util::lock_guard lock(state_mutex_);
        first = !shutdown_signalled_;
        shutdown_signalled_ = true;
      }
      if (first && on_shutdown_request) {
        on_shutdown_request();
      }
      return;
    }
    case request_op::synth:
      break;
  }

  if (draining()) {
    {
      util::lock_guard lock(state_mutex_);
      ++counters_.rejected_shutting_down;
    }
    respond(error_response(req.id, error_code::shutting_down,
                           "daemon is draining"));
    return;
  }

  queued_job job;
  job.client = client;
  job.req = std::move(req);
  job.respond = std::move(respond);
  if (job.req.deadline_s < 0.0) {
    job.dl = deadline::in_seconds(0.0);  // expired on arrival (deadline_ms: 0)
  } else if (job.req.deadline_s > 0.0) {
    job.dl = deadline::in_seconds(job.req.deadline_s);
  } else if (options_.default_deadline_s > 0.0) {
    job.dl = deadline::in_seconds(options_.default_deadline_s);
  } else {
    job.dl = deadline::never();
  }

  // The respond callback must survive a failed push.
  auto reject = job.respond;
  const std::string id = job.req.id;
  // Count the job as unfinished *before* the push makes it visible to the
  // workers: a worker may pop and start it before push() even returns here,
  // and the drain grace wait must never observe an accepted job as "no work
  // left" (see the unfinished_jobs_ comment in the header).
  {
    util::lock_guard lock(state_mutex_);
    ++unfinished_jobs_;
  }
  if (!queue_.push(client, std::move(job))) {
    const bool now_draining = draining();
    {
      util::lock_guard lock(state_mutex_);
      --unfinished_jobs_;  // rejected, never handed to a worker
      ++(now_draining ? counters_.rejected_shutting_down
                      : counters_.rejected_overloaded);
    }
    idle_cv_.notify_all();
    if (now_draining) {
      reject(error_response(id, error_code::shutting_down,
                            "daemon is draining"));
    } else {
      // Append form: the `"..." + std::to_string(...)` operator+ chain
      // trips GCC 12's bogus -Wrestrict at -O3 (GCC PR105329) under
      // -Werror.
      std::string why = "queue full (";
      why += std::to_string(options_.queue_capacity);
      why += " queued)";
      reject(error_response(id, error_code::overloaded, why));
    }
    return;
  }
  util::lock_guard lock(state_mutex_);
  ++counters_.admitted;
}

void synthesis_service::worker_loop() {
  while (true) {
    std::optional<queued_job> job = queue_.pop();
    if (!job.has_value()) {
      return;  // queue closed and drained
    }
    // The test hook runs in the dequeued-but-not-yet-in-flight window on
    // purpose: that is exactly the window where the pre-fix drain grace
    // predicate (in_flight_ == 0 && queue empty) misread accepted work as
    // "all idle" — tests/test_service.cpp holds a worker here to pin the
    // regression.
    if (options_.on_job_start) {
      options_.on_job_start(job->client, job->req.id);
    }
    {
      util::lock_guard lock(state_mutex_);
      ++in_flight_;
    }
    run_job(std::move(*job));
    {
      util::lock_guard lock(state_mutex_);
      --in_flight_;
      --unfinished_jobs_;  // counted at admission; the job is now answered
    }
    idle_cv_.notify_all();
  }
}

namespace {

/// Fill `report` from one target's outcome and count the outcome in
/// `stats`: a backend-routed one also counts each raced backend's run and
/// the winner's win.
void account(const synth::target_result& outcome, output_report& report,
             service_stats& stats) {
  stats.add(outcome, /*store_configured=*/true);
  if (const auto* p = std::get_if<synth::portfolio_result>(&outcome)) {
    for (const backend::backend_result& entry : p->entries) {
      ++stats.backend_requests[entry.backend];
    }
    // No winner: no engine converged within the deadline (every backend the
    // limits admit can represent a <= max_vars target, so non-convergence
    // here is a budget outcome, not an unsupported target).
    const backend::backend_result* win = p->winning();
    report.timed_out = win == nullptr;
    if (win != nullptr) {
      ++stats.backend_wins[win->backend];
      report.backend = win->backend;
      report.cost = win->cost();
      report.cost_unit = win->realized->cost_unit();
      report.lower_bound = win->lower_bound;
      report.new_upper_bound = win->cost();
      if (report.cost_unit == "switches") {
        report.switches = win->cost();
      }
    }
    return;
  }
  const synth::janus_result& r = std::get<synth::janus_result>(outcome);
  report.dims = r.solution_dims();
  report.switches = r.solution_size();
  report.lower_bound = r.lower_bound;
  report.new_upper_bound = r.new_upper_bound;
  report.from_cache = r.from_cache;
  report.timed_out = r.hit_time_limit;
}

}  // namespace

void synthesis_service::run_job(queued_job job) {
  // Jobs still queued when the drain grace period expires are not started.
  if (drain_cancel_.cancel_requested()) {
    {
      util::lock_guard lock(state_mutex_);
      ++counters_.rejected_shutting_down;
    }
    job.respond(error_response(job.req.id, error_code::shutting_down,
                               "daemon is draining"));
    return;
  }

  exec::cancel_source job_cancel(drain_cancel_.token());
  // Each output runs as one synthesize_batch shard at jobs=1 over the shared
  // caches, so sizes are bit-identical to a direct batch run over the same
  // store. A portfolio race runs its backends on the daemon's race pool.
  exec::context ctx{nullptr, job_cancel.token()};
  synth::janus_options base = options_.base;
  base.solutions = &store_;
  base.lattice_info = &lattice_info_;
  std::vector<std::string> backends;
  if (job.req.backend == "portfolio") {
    backends = backend::backend_names();
    ctx.pool = &race_pool_;
  } else if (!job.req.backend.empty()) {
    backends = {job.req.backend};
  }

  std::vector<output_report> outputs;
  outputs.reserve(job.req.targets.size());
  bool any_timed_out = false;
  std::optional<std::string> internal_error;

  for (const lm::target_spec& target : job.req.targets) {
    output_report report;
    report.name = target.name();
    report.timed_out = true;  // until an outcome says otherwise
    // A deadline (or drain cancellation) that fired before this output
    // started leaves it timed out.
    if (!job.dl.expired() && !job_cancel.cancel_requested()) {
      try {
        const synth::target_result outcome =
            synth::synthesize_target(target, base, backends, job.dl, ctx);
        util::lock_guard lock(state_mutex_);
        account(outcome, report, counters_);
      } catch (const std::exception& e) {
        // Invariant failure in the engine: surface it as a typed internal
        // error, keep the worker (and the daemon) alive.
        internal_error = e.what();
        break;
      }
    }
    any_timed_out = any_timed_out || report.timed_out;
    outputs.push_back(std::move(report));
  }

  const double ms = job.clock.seconds() * 1000.0;
  {
    util::lock_guard lock(state_mutex_);
    ++(internal_error     ? counters_.failed_internal
       : any_timed_out    ? counters_.completed_timeout
                          : counters_.completed_ok);
    counters_.latency.record(ms);
  }
  if (internal_error) {
    job.respond(
        error_response(job.req.id, error_code::internal, *internal_error));
  } else {
    job.respond(any_timed_out ? timeout_response(job.req.id, outputs, ms)
                              : ok_response(job.req.id, outputs, ms));
  }
}

std::string synthesis_service::stats_response(const std::string& id) const {
  const service_stats s = stats();
  util::json_writer w;
  w.begin_object().field("v", kProtocolVersion);
  if (!id.empty()) {
    w.field("id", id);
  }
  w.field("status", "ok");
  w.key("stats").begin_object();
  w.field("received", s.received)
      .field("admitted", s.admitted)
      .field("rejected_overloaded", s.rejected_overloaded)
      .field("rejected_shutting_down", s.rejected_shutting_down)
      .field("bad_requests", s.bad_requests)
      .field("completed_ok", s.completed_ok)
      .field("completed_timeout", s.completed_timeout)
      .field("failed_internal", s.failed_internal)
      .field("queue_depth", s.queue_depth)
      .field("in_flight", s.in_flight)
      .field("draining", s.draining)
      .field("cache_hits", s.cache_hits)
      .field("cache_misses", s.cache_misses)
      .field("total_probes", s.total_probes)
      .field("pruned_probes", s.pruned_probes);
  w.key("backends").begin_object();
  for (const auto& [name, runs] : s.backend_requests) {
    const auto wins = s.backend_wins.find(name);
    w.key(name)
        .begin_object()
        .field("requests", runs)
        .field("wins", wins != s.backend_wins.end() ? wins->second
                                                    : std::uint64_t{0})
        .end_object();
  }
  w.end_object();
  w.key("store")
      .begin_object()
      .field("hits", s.store.hits)
      .field("misses", s.store.misses)
      .field("stores", s.store.stores)
      .field("classes", s.store_classes)
      .end_object();
  w.key("latency").begin_object().field("count", s.latency.total);
  w.key("p50_ms").value(s.latency.quantile_ms(0.50), 4);
  w.key("p90_ms").value(s.latency.quantile_ms(0.90), 4);
  w.key("p99_ms").value(s.latency.quantile_ms(0.99), 4);
  w.key("max_ms").value(s.latency.max_ms, 4);
  w.end_object();
  w.key("solver").raw(util::to_json(s.solver_totals));
  w.end_object();  // stats
  w.end_object();
  return w.str();
}

bool synthesis_service::draining() const {
  util::lock_guard lock(state_mutex_);
  return draining_;
}

service_stats synthesis_service::stats() const {
  service_stats s;
  {
    util::lock_guard lock(state_mutex_);
    s = counters_;
    s.in_flight = in_flight_;
    s.draining = draining_;
  }
  s.queue_depth = queue_.depth();
  s.store = store_.stats();
  s.store_classes = store_.size();
  return s;
}

void synthesis_service::drain() { drain(options_.drain_grace_s); }

void synthesis_service::drain(double grace_s) {
  util::lock_guard drain_lock(drain_mutex_);
  {
    util::lock_guard lock(state_mutex_);
    if (drained_) {
      return;
    }
    draining_ = true;
  }
  queue_.close();

  // Grace period: let accepted work finish on its own. The wait keys off the
  // admission-counted unfinished_jobs_ — not in_flight_ + queue depth, whose
  // combination reads 0 in the window where a worker has popped a job but
  // not yet counted it in-flight (tests/test_service.cpp, "drain grace
  // covers a popped-but-uncounted job"). It also keeps fair_queue's lock out
  // of a wait predicate running under state_mutex_.
  {
    util::unique_lock lock(state_mutex_);
    const auto grace_end =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(std::max(0.0, grace_s)));
    while (unfinished_jobs_ != 0) {
      if (idle_cv_.wait_until(lock, grace_end) == std::cv_status::timeout) {
        break;  // grace expired; the cancel below unwinds what remains
      }
    }
  }

  // Whatever is still running unwinds through the cancellation tree; jobs
  // still queued are answered `shutting_down` by the workers as they pop.
  drain_cancel_.request_cancel();
  for (std::thread& t : workers_) {
    if (t.joinable()) {
      t.join();
    }
  }

  if (!options_.cache_path.empty()) {
    store_.save_file(options_.cache_path);  // atomic tmp + rename
    JANUS_LOG(info) << "service: cache persisted to " << options_.cache_path
                    << " (" << store_.size() << " classes)";
  }
  util::lock_guard lock(state_mutex_);
  drained_ = true;
}

}  // namespace janus::service
