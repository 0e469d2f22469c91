// End-to-end benchmark program: runs one named workload through the layers'
// public entry points and prints its metrics, ending with one JSON result
// line.  Usage:
//
//   e2ebench --workload stream|weekly-sweep|restart --seed N --seconds S
//            --trace 0|1 [--tiny] [--perturb] [--revision REV]
//            [--trace-dir DIR]
//
// The shared pool is pinned to nproc - 1 workers before anything touches
// it, so with the participating caller every parallel section runs on
// nproc threads.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common/thread_pool.h"
#include "harness.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "stream|weekly-sweep|restart --seed N --seconds S --trace 0|1 "
               "[--tiny] [--perturb] [--revision REV] [--trace-dir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--perturb") {
      options.perturb = true;
    } else if (arg == "--revision") {
      options.revision = value();
    } else if (arg == "--trace-dir") {
      options.trace_dir = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");

  const std::size_t nproc = e2e::online_cpus();
  const std::size_t workers = nproc > 1 ? nproc - 1 : 1;
  setenv("FDETA_THREADS", std::to_string(workers).c_str(), 1);

  std::printf("env     workload=%s seed=%llu seconds=%g trace=%d tiny=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.tiny ? 1 : 0);
  std::printf("env     nproc=%zu pool_workers=%zu revision=%s\n", nproc,
              fdeta::shared_pool().thread_count(), options.revision.c_str());

  e2e::Report report;
  try {
    if (options.workload == "stream") {
      e2e::run_stream(options, report);
    } else if (options.workload == "weekly-sweep") {
      e2e::run_sweep(options, report);
    } else if (options.workload == "restart") {
      e2e::run_restart(options, report);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  report.print_result();
  return 0;
}
