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

  // A standalone race gets one worker per backend so that it races; with
  // a caller pool the backends nest on it, and compare mode (no race, no
  // pool) runs them inline in priority order.
  std::unique_ptr<exec::thread_pool> own_pool;
  if (ctx.pool == nullptr && options.race && names.size() > 1) {
    own_pool = std::make_unique<exec::thread_pool>(names.size());
    ctx.pool = own_pool.get();
  }
  const std::size_t winner = exec::race_ranked(
      ctx, names.size(), options.race,
      [&](std::size_t i, const exec::cancel_token& token) {
        backend::backend_result& entry = portfolio.entries[i];
        if (token.cancelled()) {
          entry.backend = names[i];
          entry.status = backend::backend_status::cancelled;
          entry.detail = "cancelled before start";
          return false;
        }
        backend::backend_request request;
        request.target = target;
        request.dl = dl;
        request.exec = exec::context{nullptr, token};
        request.base = options.base;
        entry = backend::make_backend(names[i])->run(request);
        JANUS_LOG(debug) << "portfolio: " << names[i] << " -> "
                         << backend_status_name(entry.status) << " ("
                         << entry.cost() << " "
                         << (entry.realized ? entry.realized->cost_unit() : "")
                         << ")";
        return entry.definitive();
      });
  if (winner < names.size()) {
    portfolio.winner = static_cast<int>(winner);
  }
  portfolio.seconds = clock.seconds();
  return portfolio;
}

}  // namespace janus::synth
