#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "lod/obs/json.hpp"
#include "workloads.hpp"

/// \file main.cpp
/// lodbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// Prints one record line (machine, build, seed, workload facts) and, as
/// the last line of standard output, the result object:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
/// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
/// per-layer set. Exits 2 on a usage error.

#ifndef LODBENCH_BUILD_TYPE
#define LODBENCH_BUILD_TYPE "unknown"
#endif

namespace {

// Claims made with this benchmark must also hold on this seed, which is not
// used while a change is being developed.
constexpr std::uint64_t kHeldOutSeed = 7919;

std::string quoted(std::string_view s) {
  std::string out = "\"";
  lod::obs::append_json_escaped(out, s);
  out += '"';
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

int usage(const char* why) {
  std::cerr << "lodbench: " << why
            << "\nusage: lodbench --workload "
               "<steady|overload|catalog_seek|loopback|s1_reference> --seed <n> "
               "--seconds <s> --trace <0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        opt.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        opt.trace = std::stoi(val) != 0;
      } else {
        return usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in --key value pairs");
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  perfbench::RunResult res;
  if (perfbench::is_sim_workload(opt.workload)) {
    res = perfbench::run_sim_workload(opt);
  } else if (opt.workload == "loopback") {
    res = perfbench::run_loopback(opt);
  } else if (opt.workload == "s1_reference") {
    res = perfbench::run_s1_reference();
  } else {
    return usage(("unknown workload " + opt.workload).c_str());
  }

  std::string rec = "{\"record\": {";
  rec += "\"workload\": " + quoted(opt.workload);
  rec += ", \"seed\": " + std::to_string(opt.seed);
  rec += ", \"held_out_seed\": " + std::to_string(kHeldOutSeed);
  rec += ", \"trace\": " + std::string(opt.trace ? "1" : "0");
  rec += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  rec += ", \"cpu_model\": " + quoted(cpu_model());
#if defined(__clang__)
  rec += ", \"compiler\": " + quoted(std::string("clang ") + __VERSION__);
#elif defined(__GNUC__)
  rec += ", \"compiler\": " + quoted(std::string("gcc ") + __VERSION__);
#else
  rec += ", \"compiler\": " + quoted(__VERSION__);
#endif
  rec += ", \"build_type\": " + quoted(LODBENCH_BUILD_TYPE);
  for (const auto& [k, v] : res.record) rec += ", " + quoted(k) + ": " + v;
  rec += "}}";
  std::cout << rec << "\n";
  for (const std::string& p : res.problems) {
    std::cerr << "lodbench: check failed: " << p << "\n";
  }

  std::string out = "{\"correct\": ";
  out += res.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : res.metrics) {
    if (!first) out += ", ";
    first = false;
    out += quoted(m.name) + ": {\"value\": " + perfbench::json_number(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  out += "}}";
  std::cout << out << std::endl;
  return 0;
}
