// mrscan_e2e: one workload of the end-to-end benchmark per process.
//
//   mrscan_e2e --workload NAME --seed N --seconds S --trace 0|1
//              --work-dir DIR [--expected FILE]
//
// Prints what it measured, by name and unit, and as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Exits 1 on
// any correctness miss, 2 on a usage or environment error. run.py builds
// this program and is the benchmark's entry point; README.md documents
// the workloads and metrics.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "mrscan_e2e: " << why
            << " (usage: --workload twitter-16leaf|sdss-1024leaf|serve-20k "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--expected FILE])\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // core::MrScan::run and obs::Options::from_env apply these silently; a
  // run under any of them would not measure the configuration it names.
  for (const char* var : {"MRSCAN_INDEX_BACKEND", "MRSCAN_OBS",
                          "MRSCAN_TRACE_OUT", "MRSCAN_METRICS_OUT"}) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "mrscan_e2e: refusing to run with " << var
                << " set; unset it to measure the library defaults\n";
      return 2;
    }
  }

  e2e::RunOptions opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && opts.seconds > 0;
    } else if (arg == "--trace") {
      opts.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--work-dir") {
      opts.work_dir = value;
    } else if (arg == "--expected") {
      opts.expected_path = value;
    } else {
      return usage("unknown flag " + arg);
    }
  }
  if (!have_seed || !have_seconds || !have_trace || opts.work_dir.empty()) {
    return usage("--seed, --seconds, --trace and --work-dir are required");
  }

  const std::size_t batch_width = e2e::batch_threads(opts.workload);
  const std::size_t serve_width = e2e::serve_threads(opts.workload);
  if (batch_width == 0 && serve_width == 0) {
    return usage("unknown workload '" + opts.workload + "'");
  }
  // Never more threads than CPUs: the batch pool is capped; the serve
  // workload needs its writer plus two readers.
  const std::size_t cpus = e2e::online_cpus();
  if (serve_width > cpus) {
    std::cerr << "mrscan_e2e: " << opts.workload << " needs " << serve_width
              << " CPUs, this machine has " << cpus << "\n";
    return 2;
  }
  opts.threads = batch_width != 0 ? std::min(batch_width, cpus) : 1;

  try {
    return batch_width != 0 ? e2e::run_batch(opts) : e2e::run_serve(opts);
  } catch (const std::exception& e) {
    std::cerr << "mrscan_e2e: " << e.what() << "\n";
    return 1;
  }
}
