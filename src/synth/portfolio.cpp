#include "synth/portfolio.hpp"

#include <memory>
#include <utility>

#include "util/check.hpp"
#include "util/log.hpp"

namespace janus::synth {

portfolio_result run_portfolio(const lm::target_spec& target,
                               const portfolio_options& options, deadline dl,
                               exec::context ctx) {
  stopwatch clock;
  const std::vector<std::string>& names = options.backends.empty()
                                              ? backend::backend_names()
                                              : options.backends;
  portfolio_result portfolio;
  portfolio.entries.resize(names.size());
  if (names.empty()) {
    return portfolio;
  }
  for (const std::string& name : names) {
    JANUS_CHECK_MSG(backend::is_backend_name(name),
                    "unknown backend: " + name);
  }

  // The caller's pool when there is one (batch mode: backends nest on it);
  // otherwise our own, one worker per backend, so a standalone racing call
  // actually races. Sequential (no pool) still works: tasks run inline in
  // priority order and a definitive finisher cancels everything behind it
  // before it starts.
  std::unique_ptr<exec::thread_pool> own_pool;
  exec::thread_pool* pool = ctx.pool;
  if (pool == nullptr && options.race && names.size() > 1) {
    const std::size_t workers = options.jobs > 0
                                    ? static_cast<std::size_t>(options.jobs)
                                    : names.size();
    own_pool = std::make_unique<exec::thread_pool>(workers);
    pool = own_pool.get();
  }

  std::vector<exec::cancel_source> sources;
  sources.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    sources.emplace_back(ctx.cancel);
  }
  {
    exec::task_group group(pool);
    for (std::size_t i = 0; i < names.size(); ++i) {
      group.run([&, i] {
        backend::backend_result& entry = portfolio.entries[i];
        const exec::cancel_token token = sources[i].token();
        if (token.cancelled()) {
          entry.backend = names[i];
          entry.status = backend::backend_status::cancelled;
          entry.detail = "cancelled before start";
          return;
        }
        std::unique_ptr<backend::synth_backend> engine =
            backend::make_backend(names[i]);
        backend::backend_request request;
        request.target = target;
        request.dl = dl;
        request.exec = exec::context{nullptr, token};
        request.jobs = 1;
        request.base = options.base;
        entry = engine->run(request);
        if (options.race && entry.definitive()) {
          // Entries ranked after i can no longer win; those before it run
          // on, so the winner never depends on completion order.
          for (std::size_t j = i + 1; j < sources.size(); ++j) {
            sources[j].request_cancel();
          }
        }
        JANUS_LOG(debug) << "portfolio: " << names[i] << " -> "
                         << backend_status_name(entry.status) << " ("
                         << entry.cost() << " "
                         << (entry.realized ? entry.realized->cost_unit() : "")
                         << ")";
      });
    }
    group.wait();
  }

  // The lowest-ranked definitive entry wins (the probe fan-out's rule).
  for (std::size_t i = 0; i < portfolio.entries.size(); ++i) {
    if (portfolio.entries[i].definitive()) {
      portfolio.winner = static_cast<int>(i);
      break;
    }
  }
  portfolio.seconds = clock.seconds();
  return portfolio;
}

}  // namespace janus::synth
