#include "lattice/mapping.hpp"

#include <algorithm>

#include "bf/cube.hpp"

namespace janus::lattice {

std::string cell_assign::str(const std::vector<std::string>& names) const {
  switch (k) {
    case kind::constant_zero: return "0";
    case kind::constant_one: return "1";
    case kind::positive:
      JANUS_CHECK(var < names.size());
      return names[var];
    case kind::negative:
      JANUS_CHECK(var < names.size());
      return names[var] + "'";
  }
  return "?";
}

lattice_mapping::lattice_mapping(dims d, int num_target_vars)
    : dims_(d), num_vars_(num_target_vars) {
  JANUS_CHECK(d.rows >= 1 && d.cols >= 1);
  JANUS_CHECK(num_target_vars >= 0 && num_target_vars <= bf::cube::max_vars);
  cells_.assign(static_cast<std::size_t>(d.size()), cell_assign::zero());
}

namespace {

/// BFS over ON cells from the source plate; returns true when the sink plate
/// is reached. `diagonal` selects 8-connectivity (the dual view).
bool connected(const dims& d, const std::vector<std::uint8_t>& on,
               bool top_bottom, bool diagonal) {
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(d.size()), 0);
  std::vector<int> queue;
  queue.reserve(static_cast<std::size_t>(d.size()));
  const int starts = top_bottom ? d.cols : d.rows;
  for (int s = 0; s < starts; ++s) {
    const int cell = top_bottom ? d.cell(0, s) : d.cell(s, 0);
    if (on[static_cast<std::size_t>(cell)] != 0) {
      seen[static_cast<std::size_t>(cell)] = 1;
      queue.push_back(cell);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int cell = queue[head];
    if (top_bottom ? (d.row_of(cell) == d.rows - 1)
                   : (d.col_of(cell) == d.cols - 1)) {
      return true;
    }
    const int r = d.row_of(cell);
    const int c = d.col_of(cell);
    for (int dr = -1; dr <= 1; ++dr) {
      for (int dc = -1; dc <= 1; ++dc) {
        if ((dr == 0 && dc == 0) || (!diagonal && dr != 0 && dc != 0)) {
          continue;
        }
        const int nr = r + dr;
        const int nc = c + dc;
        if (nr < 0 || nr >= d.rows || nc < 0 || nc >= d.cols) {
          continue;
        }
        const int next = d.cell(nr, nc);
        if (on[static_cast<std::size_t>(next)] != 0 &&
            seen[static_cast<std::size_t>(next)] == 0) {
          seen[static_cast<std::size_t>(next)] = 1;
          queue.push_back(next);
        }
      }
    }
  }
  return false;
}

}  // namespace

bool lattice_mapping::eval(std::uint64_t minterm) const {
  std::vector<std::uint8_t> on(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    on[i] = cells_[i].eval(minterm) ? 1 : 0;
  }
  return connected(dims_, on, /*top_bottom=*/true, /*diagonal=*/false);
}

bool lattice_mapping::eval_dual(std::uint64_t minterm) const {
  std::vector<std::uint8_t> on(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    on[i] = cells_[i].eval(minterm) ? 1 : 0;
  }
  return connected(dims_, on, /*top_bottom=*/false, /*diagonal=*/true);
}

bf::truth_table lattice_mapping::realized_function() const {
  bf::truth_table t(num_vars_);
  const std::uint64_t n = t.num_minterms();
  for (std::uint64_t m = 0; m < n; ++m) {
    t.set(m, eval(m));
  }
  return t;
}

bool lattice_mapping::realizes(const bf::truth_table& target) const {
  JANUS_CHECK(target.num_vars() == num_vars_);
  return realized_function() == target;
}

std::string lattice_mapping::str() const {
  return str(bf::default_var_names(num_vars_));
}

std::string lattice_mapping::str(const std::vector<std::string>& names) const {
  std::size_t width = 1;
  for (const cell_assign& a : cells_) {
    width = std::max(width, a.str(names).size());
  }
  std::string out;
  for (int r = 0; r < dims_.rows; ++r) {
    for (int c = 0; c < dims_.cols; ++c) {
      const std::string s = at(r, c).str(names);
      out += s;
      out.append(width - s.size() + (c + 1 < dims_.cols ? 1 : 0), ' ');
    }
    out += '\n';
  }
  return out;
}

lattice_mapping lattice_mapping::with_row_duplicated(int r) const {
  JANUS_CHECK(r >= 0 && r < dims_.rows);
  lattice_mapping out(dims{dims_.rows + 1, dims_.cols}, num_vars_);
  for (int rr = 0; rr < dims_.rows + 1; ++rr) {
    const int src = rr <= r ? rr : rr - 1;
    for (int c = 0; c < dims_.cols; ++c) {
      out.set(rr, c, at(src, c));
    }
  }
  return out;
}

lattice_mapping lattice_mapping::with_column_duplicated(int c) const {
  JANUS_CHECK(c >= 0 && c < dims_.cols);
  lattice_mapping out(dims{dims_.rows, dims_.cols + 1}, num_vars_);
  for (int r = 0; r < dims_.rows; ++r) {
    for (int cc = 0; cc < dims_.cols + 1; ++cc) {
      const int src = cc <= c ? cc : cc - 1;
      out.set(r, cc, at(r, src));
    }
  }
  return out;
}

lattice_mapping lattice_mapping::padded_to_rows(int target_rows) const {
  JANUS_CHECK(target_rows >= dims_.rows);
  lattice_mapping out = *this;
  while (out.grid().rows < target_rows) {
    out = out.with_row_duplicated(out.grid().rows - 1);
  }
  return out;
}

void blit(lattice_mapping& host, const lattice_mapping& block, int r0, int c0) {
  JANUS_CHECK(r0 >= 0 && c0 >= 0);
  JANUS_CHECK(r0 + block.grid().rows <= host.grid().rows);
  JANUS_CHECK(c0 + block.grid().cols <= host.grid().cols);
  for (int r = 0; r < block.grid().rows; ++r) {
    for (int c = 0; c < block.grid().cols; ++c) {
      host.set(r0 + r, c0 + c, block.at(r, c));
    }
  }
}

multi_lattice_mapping multi_lattice_mapping::merge(
    const std::vector<lattice_mapping>& parts) {
  JANUS_CHECK(!parts.empty());
  int rows = 0;
  int cols = 0;
  for (const auto& p : parts) {
    rows = std::max(rows, p.grid().rows);
    cols += p.grid().cols;
  }
  cols += static_cast<int>(parts.size()) - 1;  // isolation columns

  multi_lattice_mapping out;
  out.grid_ = lattice_mapping(dims{rows, cols}, parts[0].num_target_vars());
  int col = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    JANUS_CHECK(parts[i].num_target_vars() == parts[0].num_target_vars());
    const lattice_mapping padded = parts[i].padded_to_rows(rows);
    blit(out.grid_, padded, 0, col);
    out.spans_.emplace_back(col, col + padded.grid().cols - 1);
    col += padded.grid().cols;
    if (i + 1 < parts.size()) {
      for (int r = 0; r < rows; ++r) {
        out.grid_.set(r, col, cell_assign::zero());
      }
      ++col;
    }
  }
  return out;
}

bool multi_lattice_mapping::eval(int output, std::uint64_t minterm) const {
  JANUS_CHECK(output >= 0 && output < num_outputs());
  const auto [first, last] = spans_[static_cast<std::size_t>(output)];
  const dims sub{grid_.grid().rows, last - first + 1};
  std::vector<std::uint8_t> on(static_cast<std::size_t>(sub.size()));
  for (int r = 0; r < sub.rows; ++r) {
    for (int c = 0; c < sub.cols; ++c) {
      on[static_cast<std::size_t>(sub.cell(r, c))] =
          grid_.at(r, first + c).eval(minterm) ? 1 : 0;
    }
  }
  lattice_mapping view(sub, grid_.num_target_vars());
  for (int r = 0; r < sub.rows; ++r) {
    for (int c = 0; c < sub.cols; ++c) {
      view.set(r, c,
               on[static_cast<std::size_t>(sub.cell(r, c))] != 0
                   ? cell_assign::one()
                   : cell_assign::zero());
    }
  }
  return view.eval(0);
}

bf::truth_table multi_lattice_mapping::realized_function(int output) const {
  bf::truth_table t(grid_.num_target_vars());
  for (std::uint64_t m = 0; m < t.num_minterms(); ++m) {
    t.set(m, eval(output, m));
  }
  return t;
}

bool multi_lattice_mapping::realizes(
    const std::vector<bf::truth_table>& targets) const {
  if (static_cast<int>(targets.size()) != num_outputs()) {
    return false;
  }
  for (int o = 0; o < num_outputs(); ++o) {
    if (realized_function(o) != targets[static_cast<std::size_t>(o)]) {
      return false;
    }
  }
  return true;
}

}  // namespace janus::lattice
