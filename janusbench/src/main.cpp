// janusbench: run one workload and write its result document.
//
//   janusbench --workload ladder|bounds|service|portfolio --seed N
//              --seconds S --trace 0|1 --work DIR [--rev REV] --out FILE
//   janusbench --reference --out FILE
//
// run.py builds this binary, runs it once per workload and compares the
// document's outputs with reference.json.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "janusbench: %s\nusage: janusbench --workload W --seed N "
               "--seconds S --trace 0|1 --work DIR [--rev REV] --out FILE\n"
               "       janusbench --reference --out FILE\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  janusbench::run_options o;
  std::string out;
  bool reference = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--reference") {
      reference = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        o.trace = value == "1";
      } else if (arg == "--work") {
        o.work_dir = value;
      } else if (arg == "--rev") {
        o.rev = value;
      } else if (arg == "--out") {
        out = value;
      } else {
        usage(("unknown option " + arg).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (out.empty() || (!reference && o.work_dir.empty())) {
    usage("--out and --work are required");
  }
  try {
    const std::string doc = reference ? janusbench::reference_document()
                                      : janusbench::run_workload(o);
    std::ofstream file(out);
    file << doc;
    if (!file.flush()) {
      std::fprintf(stderr, "janusbench: cannot write %s\n", out.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "janusbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
