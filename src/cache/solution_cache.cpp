#include "cache/solution_cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "util/str.hpp"

namespace janus::cache {

using bf::np_canonical;
using bf::np_transform;
using bf::truth_table;
using lattice::cell_assign;
using lattice::dims;
using lattice::lattice_mapping;

lattice_mapping transform_mapping(const lattice_mapping& m,
                                  const np_transform& t) {
  JANUS_CHECK_MSG(m.num_target_vars() <= t.num_vars(),
                  "transform narrower than the mapping's variable range");
  lattice_mapping out = m;
  for (cell_assign& cell : out.cells()) {
    if (cell.is_constant()) {
      continue;
    }
    const int v = cell.var;
    const bool negated = cell.k == cell_assign::kind::negative;
    cell = cell_assign::lit(t.perm[static_cast<std::size_t>(v)],
                            negated ^ (((t.flips >> v) & 1u) != 0));
  }
  // Test-only fault injection (JANUS_FUZZ_INJECT=cache-polarity): flip the
  // polarity of the first literal cell, simulating exactly the transform bug
  // the BFS-oracle re-verification in lookup() exists to catch. The fuzz
  // harness's acceptance test (tests/test_fuzz.cpp, janus_fuzz --inject)
  // asserts the corruption is detected and yields a working replay record.
  if (const char* inject = std::getenv("JANUS_FUZZ_INJECT");
      inject != nullptr && std::string_view(inject) == "cache-polarity") {
    for (cell_assign& cell : out.cells()) {
      if (!cell.is_constant()) {
        cell = cell_assign::lit(
            cell.var, cell.k != cell_assign::kind::negative);
        break;
      }
    }
  }
  return out;
}

namespace {

/// Canonical-table key: "<num_vars>:<hex>", minterm 0 in the lowest nibble.
std::string table_key(const truth_table& f) {
  static constexpr char digits[] = "0123456789abcdef";
  std::string hex;
  const std::uint64_t n = f.num_minterms();
  hex.reserve(static_cast<std::size_t>((n + 3) / 4));
  for (std::uint64_t base = 0; base < n; base += 4) {
    unsigned nibble = 0;
    for (std::uint64_t b = 0; b < 4 && base + b < n; ++b) {
      nibble |= static_cast<unsigned>(f.get(base + b)) << b;
    }
    hex.push_back(digits[nibble]);
  }
  return std::to_string(f.num_vars()) + ":" + hex;
}

[[noreturn]] void cache_fail(int line_no, const std::string& why) {
  throw check_error("cache line " + std::to_string(line_no) + ": " + why);
}

truth_table table_from_hex(int num_vars, const std::string& hex, int line_no) {
  truth_table f(num_vars);
  const std::uint64_t n = f.num_minterms();
  if (hex.size() != static_cast<std::size_t>((n + 3) / 4)) {
    cache_fail(line_no, "truth table hex has the wrong length");
  }
  for (std::uint64_t base = 0; base < n; base += 4) {
    const char ch = hex[static_cast<std::size_t>(base / 4)];
    unsigned nibble = 0;
    if (ch >= '0' && ch <= '9') {
      nibble = static_cast<unsigned>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      nibble = static_cast<unsigned>(ch - 'a' + 10);
    } else {
      cache_fail(line_no, "bad hex digit in truth table");
    }
    for (std::uint64_t b = 0; b < 4 && base + b < n; ++b) {
      f.set(base + b, ((nibble >> b) & 1u) != 0);
    }
  }
  return f;
}

std::string cells_str(const lattice_mapping& m) {
  std::string out;
  for (std::size_t i = 0; i < m.cells().size(); ++i) {
    if (i > 0) {
      out.push_back(',');
    }
    const cell_assign& c = m.cells()[i];
    switch (c.k) {
      case cell_assign::kind::constant_zero: out.push_back('0'); break;
      case cell_assign::kind::constant_one: out.push_back('1'); break;
      case cell_assign::kind::positive:
        out.push_back('p');
        out += std::to_string(static_cast<int>(c.var));
        break;
      case cell_assign::kind::negative:
        out.push_back('n');
        out += std::to_string(static_cast<int>(c.var));
        break;
    }
  }
  return out;
}

lattice_mapping cells_from_str(const dims& d, int num_vars,
                               const std::string& text, int line_no) {
  const auto fail = [&](const std::string& why) { cache_fail(line_no, why); };
  lattice_mapping m(d, num_vars);
  std::size_t cell = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string token = text.substr(pos, end - pos);
    if (cell >= m.cells().size()) {
      fail("more cells than the grid holds");
    }
    if (token == "0") {
      m.cells()[cell] = cell_assign::zero();
    } else if (token == "1") {
      m.cells()[cell] = cell_assign::one();
    } else if (token.size() >= 2 && (token[0] == 'p' || token[0] == 'n')) {
      const std::optional<int> var =
          parse_count(std::string_view(token).substr(1), 0, num_vars - 1);
      if (!var.has_value()) {
        fail("cell variable out of range: '" + token + "'");
      }
      m.cells()[cell] = cell_assign::lit(*var, token[0] == 'n');
    } else {
      fail("unrecognized cell token '" + token + "'");
    }
    ++cell;
    pos = end + 1;
  }
  if (cell != m.cells().size()) {
    fail("fewer cells than the grid holds");
  }
  return m;
}

constexpr const char* kHeader = "janus-solution-cache v1";

}  // namespace

np_canonical solution_cache::canonicalize(const truth_table& f) const {
  return bf::np_canonicalize(f, kExactCanonMaxVars);
}

std::optional<cached_solution> solution_cache::lookup(const truth_table& f) {
  return lookup(canonicalize(f), f);
}

std::optional<cached_solution> solution_cache::lookup(const np_canonical& canon,
                                                      const truth_table& f) {
  // Key built outside the lock: it hashes the whole canonical table, and
  // every worker of a batch run funnels through this mutex.
  const std::string key = table_key(canon.table);
  entry found;
  {
    util::lock_guard lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    found = it->second;
    ++stats_.hits;
  }
  cached_solution out;
  out.mapping = transform_mapping(found.mapping, canon.transform.inverse());
  out.lower_bound = found.lower_bound;
  // Independent BFS-oracle re-check of every hit: a transform or store bug
  // must fail loudly here, never hand back a wrong lattice.
  JANUS_CHECK_MSG(out.mapping.realizes(f),
                  "solution cache hit failed the BFS-oracle re-verification");
  return out;
}

void solution_cache::store(const truth_table& f, const lattice_mapping& mapping,
                           int lower_bound) {
  store(canonicalize(f), f, mapping, lower_bound);
}

void solution_cache::store(const np_canonical& canon, const truth_table& f,
                           const lattice_mapping& mapping, int lower_bound) {
  JANUS_CHECK_MSG(mapping.num_target_vars() == f.num_vars(),
                  "cached mapping does not match the target's variable count");
  // One apply (cheap next to canonicalization) guards against a caller
  // pairing f with someone else's canonical form — a bad entry would
  // otherwise persist and only fail at some later hit.
  JANUS_CHECK_MSG(canon.transform.apply(f) == canon.table,
                  "store() given a canonical form that does not match f");
  entry e{transform_mapping(mapping, canon.transform), lower_bound};
  std::string key = table_key(canon.table);  // built outside the lock
  util::lock_guard lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    entries_.emplace(std::move(key), std::move(e));
    ++stats_.stores;
  } else if (e.mapping.size() < it->second.mapping.size()) {
    it->second = std::move(e);
    ++stats_.stores;
  }
}

cache_stats solution_cache::stats() const {
  util::lock_guard lock(mutex_);
  return stats_;
}

std::size_t solution_cache::size() const {
  util::lock_guard lock(mutex_);
  return entries_.size();
}

void solution_cache::load(std::istream& in) {
  std::string line;
  int line_no = 0;
  const auto fail = [&](const std::string& why) { cache_fail(line_no, why); };
  if (!std::getline(in, line) || trim(line) != kHeader) {
    throw check_error("not a janus solution cache (bad or missing header)");
  }
  line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view t = trim(line);
    if (t.empty() || t[0] == '#') {
      continue;
    }
    const auto tokens = split_ws(t);
    if (tokens.size() != 6) {
      fail("expected 6 fields: num_vars lb rows cols table cells");
    }
    // The same strict validator the PLA parser uses: digits only, range
    // checked, trailing junk rejected.
    const std::optional<int> num_vars =
        parse_count(tokens[0], 1, truth_table::max_vars);
    const std::optional<int> lb = parse_count(tokens[1], 0, 1 << 20);
    const std::optional<int> rows = parse_count(tokens[2], 1, 1 << 15);
    const std::optional<int> cols = parse_count(tokens[3], 1, 1 << 15);
    if (!num_vars || !lb || !rows || !cols) {
      fail("malformed header field");
    }
    const truth_table table = table_from_hex(*num_vars, tokens[4], line_no);
    const lattice_mapping mapping =
        cells_from_str(dims{*rows, *cols}, *num_vars, tokens[5], line_no);
    // Corrupt entries must never enter the store: check the mapping against
    // the oracle at load time, attributed to the offending line.
    if (!mapping.realizes(table)) {
      fail("stored mapping does not realize its truth table");
    }
    entry e{mapping, *lb};
    util::lock_guard lock(mutex_);
    const std::string key = table_key(table);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      entries_.emplace(std::move(key), std::move(e));
    } else if (e.mapping.size() < it->second.mapping.size()) {
      it->second = std::move(e);
    }
  }
}

void solution_cache::save(std::ostream& out) const {
  // Lock-scope tightening (found by the thread-safety review): the old code
  // held mutex_ across all of the stream I/O, so a drain writing a large
  // store to a slow disk blocked every concurrent lookup/store. Copy the
  // entries under the lock, serialize outside it — save() was already
  // documented as a point-in-time snapshot.
  std::vector<std::pair<std::string, entry>> snapshot;
  {
    util::lock_guard lock(mutex_);
    snapshot.reserve(entries_.size());
    for (const auto& [key, e] : entries_) {
      snapshot.emplace_back(key, e);
    }
  }
  out << kHeader << '\n';
  for (const auto& [key, e] : snapshot) {
    const auto colon = key.find(':');
    out << key.substr(0, colon) << ' ' << e.lower_bound << ' '
        << e.mapping.grid().rows << ' ' << e.mapping.grid().cols << ' '
        << key.substr(colon + 1) << ' ' << cells_str(e.mapping) << '\n';
  }
}

bool solution_cache::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  load(in);
  return true;
}

void solution_cache::save_file(const std::string& path) const {
  // Write-then-rename: a crash mid-save must never leave a truncated file
  // behind — load_file would reject it on every later run until someone
  // deleted it by hand.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    JANUS_CHECK_MSG(static_cast<bool>(out),
                    "cannot open cache file for writing: " + tmp);
    save(out);
    JANUS_CHECK_MSG(static_cast<bool>(out.flush()),
                    "failed writing cache file: " + tmp);
  }
  JANUS_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                  "cannot move cache file into place: " + path);
}

}  // namespace janus::cache
