#include "lm/target.hpp"

#include "bf/exact_min.hpp"

#include <utility>

#include "util/check.hpp"

namespace janus::lm {

target_spec target_spec::from_function(const bf::truth_table& f,
                                       std::string name,
                                       std::optional<bf::cover> dual_sop) {
  target_spec t;
  t.name_ = std::move(name);
  t.function_ = f;
  t.dual_ = f.dual();
  t.sop_ = bf::minimize(f);
  t.dual_sop_ = dual_sop ? std::move(*dual_sop) : bf::minimize(t.dual_);
  JANUS_CHECK_MSG(t.sop_.to_truth_table() == f,
                  "minimized SOP does not match the target function");
  JANUS_CHECK_MSG(t.dual_sop_.to_truth_table() == t.dual_,
                  "minimized dual SOP does not match the dual function");
  return t;
}

target_spec target_spec::from_cover(const bf::cover& c, std::string name) {
  return from_function(c.to_truth_table(), std::move(name));
}

target_spec target_spec::parse(int num_vars, const std::string& text,
                               std::string name) {
  return from_cover(bf::cover::parse(num_vars, text), std::move(name));
}

target_spec target_spec::dual_spec() const {
  target_spec t;
  t.name_ = name_.empty() ? "" : name_ + "_dual";
  t.function_ = dual_;
  t.dual_ = function_;
  t.sop_ = dual_sop_;
  t.dual_sop_ = sop_;
  return t;
}

}  // namespace janus::lm
