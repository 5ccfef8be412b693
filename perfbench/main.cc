// perfbench: runs one benchmark workload against the gauntlet library and
// prints its raw measurements as one JSON line. perfbench/run.py builds
// this binary, chooses the workload parameters and derives the reported
// metrics; see perfbench/README.md.
//
//   perfbench campaign|serve --campaign-seed N --programs N [--jobs N]
//       [--bug NAME|all]... [--known-unattributed COMPONENT]...
//       --order-seed N --seconds S [--trace] [--setup-only]
//       --spawn-ns NS --scratch-dir DIR [--trace-file FILE]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "perfbench/common.h"

namespace {

perfbench::BenchConfig ParseArgs(int argc, char** argv) {
  if (argc < 2) {
    throw std::invalid_argument("usage: perfbench campaign|serve [flags]");
  }
  perfbench::BenchConfig config;
  config.mode = argv[1];
  if (config.mode != "campaign" && config.mode != "serve") {
    throw std::invalid_argument("unknown mode '" + config.mode + "'");
  }
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      config.trace = true;
      continue;
    }
    if (flag == "--setup-only") {
      config.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument(flag + " needs a value");
    }
    const std::string value = argv[++i];
    if (flag == "--campaign-seed") {
      config.campaign_seed = std::stoull(value);
    } else if (flag == "--order-seed") {
      config.order_seed = std::stoull(value);
    } else if (flag == "--programs") {
      config.programs = std::stoi(value);
    } else if (flag == "--jobs") {
      config.jobs = std::stoi(value);
    } else if (flag == "--bug") {
      config.bugs.push_back(value);
    } else if (flag == "--known-unattributed") {
      config.known_unattributed.insert(value);
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value);
    } else if (flag == "--spawn-ns") {
      config.spawn_ns = std::stoll(value);
    } else if (flag == "--scratch-dir") {
      config.scratch_dir = value;
    } else if (flag == "--trace-file") {
      config.trace_file = value;
    } else {
      throw std::invalid_argument("unknown flag '" + flag + "'");
    }
  }
  if (config.programs < 1 || config.jobs < 1 || config.scratch_dir.empty()) {
    throw std::invalid_argument("--programs, --jobs and --scratch-dir are required");
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::BenchConfig config = ParseArgs(argc, argv);
    return config.mode == "campaign" ? perfbench::RunCampaignBench(config)
                                     : perfbench::RunServeBench(config);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
