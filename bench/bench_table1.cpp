// Reproduces Table I: the number of products in the m×n lattice function
// (irredundant 4-connected top–bottom paths) and in its dual (8-connected
// left–right paths), 2 ≤ m,n ≤ 8. These must match the paper bit for bit.
#include <cstdint>
#include <cstdio>
#include <string>

#include "lattice/paths.hpp"
#include "util/timer.hpp"

namespace {

using janus::lattice::connectivity;
using janus::lattice::count_paths;
using janus::lattice::paper_table1;

bool run_table1() {
  // The 8x8 column alone takes a couple of seconds; full table by default,
  // since this is the paper's exactness anchor.
  std::printf(
      "Table I — number of products in the m x n lattice function (top) and "
      "its dual (bottom)\n");
  std::printf("%-4s", "m/n");
  for (int n = 2; n <= 8; ++n) {
    std::printf("%12d", n);
  }
  std::printf("\n");
  bool all_match = true;
  janus::stopwatch total;
  for (int m = 2; m <= 8; ++m) {
    std::printf("%-4d", m);
    std::string bottom = "    ";
    for (int n = 2; n <= 8; ++n) {
      const auto expected = paper_table1(m, n);
      const std::uint64_t f = count_paths({m, n}, connectivity::four_top_bottom);
      const std::uint64_t d = count_paths({m, n}, connectivity::eight_left_right);
      const bool ok = f == expected.function_products && d == expected.dual_products;
      all_match = all_match && ok;
      std::printf("%11llu%s", static_cast<unsigned long long>(f), ok ? " " : "!");
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%11llu ", static_cast<unsigned long long>(d));
      bottom += buf;
    }
    std::printf("\n%s\n", bottom.c_str());
  }
  std::printf("[table1] all 49 entries %s the paper (%.2fs)\n\n",
              all_match ? "MATCH" : "MISMATCH",
              total.seconds());
  return all_match;
}

}  // namespace

int main() { return run_table1() ? 0 : 1; }
