#include "synth/batch.hpp"

#include <algorithm>
#include <memory>
#include <string_view>

#include "util/log.hpp"

namespace janus::synth {

target_result synthesize_target(const lm::target_spec& target,
                                const janus_options& base,
                                const std::vector<std::string>& backends,
                                deadline dl, const exec::context& ctx) {
  janus_options per = base;
  per.time_limit_s = std::min(base.time_limit_s, dl.remaining_seconds());
  per.exec = ctx;
  if (backends.empty()) {
    janus_result r = janus_synthesizer(per).run(target);
    JANUS_LOG(info) << target.name() << " -> " << r.solution_dims() << " ("
                    << r.solution_size() << " switches)";
    return r;
  }
  portfolio_options popts;
  popts.backends = backends;
  popts.base = per;
  portfolio_result p = run_portfolio(target, popts, dl, ctx);
  const backend::backend_result* win = p.winning();
  JANUS_LOG(info) << target.name() << " -> "
                  << (win != nullptr ? win->backend : "no winner");
  return p;
}

void synthesis_counters::add(const target_result& outcome,
                             bool store_configured) {
  if (const auto* p = std::get_if<portfolio_result>(&outcome)) {
    for (const backend::backend_result& entry : p->entries) {
      solver_totals += entry.sat;
    }
    return;
  }
  const janus_result& r = std::get<janus_result>(outcome);
  solver_totals += r.sat_totals;
  total_probes += r.probes.size();
  pruned_probes += r.pruned_probes;
  // Constant targets return before the cache is ever consulted
  // (ub_method "const"), so they belong in neither counter.
  if (store_configured && r.ub_method != "const") {
    ++(r.from_cache ? cache_hits : cache_misses);
  }
}

batch_result synthesize_batch(std::span<const lm::target_spec> targets,
                              const batch_options& options) {
  batch_result batch;
  std::vector<target_result> outcomes(targets.size());
  stopwatch batch_clock;
  const deadline total = options.total_time_limit_s > 0.0
                             ? deadline::in_seconds(options.total_time_limit_s)
                             : deadline::never();

  // At jobs <= 1 the targets run inline, but a race of several backends
  // still needs its workers: one race pool then serves every target's race
  // (as in janusd) instead of each race starting its own.
  const bool sharded = options.jobs > 1;
  std::unique_ptr<exec::thread_pool> pool;
  if (sharded || options.backends.size() > 1) {
    pool = std::make_unique<exec::thread_pool>(
        sharded ? static_cast<std::size_t>(options.jobs)
                : options.backends.size());
  }
  const exec::context ctx{pool.get(), options.base.exec.cancel};

  {
    exec::task_group group(sharded ? pool.get() : nullptr);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      group.run([&, i] {
        // Per-target deadline, clipped by whatever remains of the batch
        // budget at the moment this target actually starts.
        outcomes[i] = synthesize_target(
            targets[i], options.base, options.backends,
            total.tightened(options.base.time_limit_s), ctx);
      });
    }
    group.wait();
  }

  for (target_result& outcome : outcomes) {
    batch.add(outcome, options.base.solutions != nullptr);
    if (auto* p = std::get_if<portfolio_result>(&outcome)) {
      const backend::backend_result* win = p->winning();
      if (win != nullptr) {
        ++batch.solved;
        if (win->realized != nullptr &&
            std::string_view(win->realized->cost_unit()) == "switches") {
          batch.total_switches += win->cost();
        }
      }
      for (const backend::backend_result& entry : p->entries) {
        batch.hit_time_limit =
            batch.hit_time_limit ||
            entry.status == backend::backend_status::timeout;
      }
      batch.portfolio.push_back(std::move(*p));
      continue;
    }
    janus_result& r = std::get<janus_result>(outcome);
    if (r.solution.has_value()) {
      ++batch.solved;
      batch.total_switches += r.solution_size();
    }
    batch.hit_time_limit = batch.hit_time_limit || r.hit_time_limit;
    batch.results.push_back(std::move(r));
  }
  batch.seconds = batch_clock.seconds();
  return batch;
}

}  // namespace janus::synth
