#include "util/json_writer.hpp"

#include <cmath>
#include <cstdio>

#include "sat/solver.hpp"
#include "synth/batch.hpp"

namespace janus::util {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char ch : text) {
    const auto byte = static_cast<unsigned char>(ch);
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (byte < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", byte);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

void json_writer::prepare_value() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!has_items_.empty()) {
    if (has_items_.back()) {
      out_ += ',';
      out_ += indent_ > 0 ? '\n' : ' ';
    } else if (indent_ > 0) {
      out_ += '\n';
    }
    has_items_.back() = true;
    if (indent_ > 0) {
      out_.append(static_cast<std::size_t>(indent_) * has_items_.size(), ' ');
    }
  }
}

void json_writer::open(char bracket) {
  prepare_value();
  out_ += bracket;
  has_items_.push_back(false);
}

void json_writer::close(char bracket) {
  const bool had_items = !has_items_.empty() && has_items_.back();
  if (!has_items_.empty()) {
    has_items_.pop_back();
  }
  if (indent_ > 0 && had_items) {
    out_ += '\n';
    out_.append(static_cast<std::size_t>(indent_) * has_items_.size(), ' ');
  }
  out_ += bracket;
}

json_writer& json_writer::begin_object() {
  open('{');
  return *this;
}

json_writer& json_writer::end_object() {
  close('}');
  return *this;
}

json_writer& json_writer::begin_array() {
  open('[');
  return *this;
}

json_writer& json_writer::end_array() {
  close(']');
  return *this;
}

json_writer& json_writer::key(std::string_view name) {
  prepare_value();
  out_ += '"';
  out_ += json_escape(name);
  out_ += "\": ";
  pending_key_ = true;
  return *this;
}

json_writer& json_writer::value(std::string_view text) {
  prepare_value();
  out_ += '"';
  out_ += json_escape(text);
  out_ += '"';
  return *this;
}

json_writer& json_writer::value(bool b) {
  prepare_value();
  out_ += b ? "true" : "false";
  return *this;
}

json_writer& json_writer::value(double number, int precision) {
  prepare_value();
  if (!std::isfinite(number)) {
    out_ += "null";  // JSON has no NaN/Infinity
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", precision, number);
  out_ += buf;
  return *this;
}

json_writer& json_writer::value(std::int64_t number) {
  prepare_value();
  out_ += std::to_string(number);
  return *this;
}

json_writer& json_writer::value(std::uint64_t number) {
  prepare_value();
  out_ += std::to_string(number);
  return *this;
}

json_writer& json_writer::null() {
  prepare_value();
  out_ += "null";
  return *this;
}

json_writer& json_writer::raw(std::string_view text) {
  prepare_value();
  out_ += text;
  return *this;
}

std::string to_json(const sat::solver_stats& stats) {
  json_writer w;
  w.begin_object()
      .field("conflicts", stats.conflicts)
      .field("decisions", stats.decisions)
      .field("propagations", stats.propagations)
      .field("restarts", stats.restarts)
      .field("learned_clauses", stats.learned_clauses)
      .field("removed_clauses", stats.removed_clauses)
      .field("minimized_literals", stats.minimized_literals)
      .field("vivified", stats.vivified)
      .end_object();
  return w.str();
}

std::string to_json(const synth::batch_result& batch) {
  json_writer w;
  w.begin_object()
      .field("seconds", batch.seconds)
      .field("solved", batch.solved)
      .field("total_switches", batch.total_switches)
      .field("total_probes", batch.total_probes)
      .field("pruned_probes", batch.pruned_probes)
      // cache_* stay ahead of the nested object: the CI cache-smoke grep
      // scans for "cache_hits" with a no-'}' character class.
      .field("cache_hits", batch.cache_hits)
      .field("cache_misses", batch.cache_misses)
      .field("hit_time_limit", batch.hit_time_limit);
  w.key("solver").raw(to_json(batch.solver_totals));
  w.end_object();
  return w.str();
}

}  // namespace janus::util
