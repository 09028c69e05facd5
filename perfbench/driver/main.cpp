// perfbench_driver: runs one benchmark workload in this process and prints
// its result as one JSON line.
//
//   perfbench_driver --workload full_1000rx --seed 0 [--trace]
//   perfbench_driver --machine   # build, sweep workers and calibration
//
// perfbench/run.py drives it; see perfbench/README.md.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "tracing.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Named;

void json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void json_number(std::ostream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  os << buf;
}

void json_object(std::ostream& os, const Named& values) {
  os << '{';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) os << ',';
    json_string(os, values[i].first);
    os << ':';
    json_number(os, values[i].second);
  }
  os << '}';
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// A fixed single-thread integer and floating-point loop; its time tells
/// two machines (or two moments of one shared machine) apart.
double calibration_s() {
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = perfbench::now_s();
    std::uint64_t x = 88172645463325252ull;
    double acc = 0.0;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += std::sqrt(static_cast<double>(x & 0xffff));
    }
    const double dt = perfbench::now_s() - t0;
    if (acc < 0.0) std::puts("");  // keeps the loop observable
    best = std::min(best, dt);
  }
  return best;
}

bool comparable_build() {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return false;
#else
  return std::string_view{PERFBENCH_CXX_FLAGS}.find("-fsanitize") ==
         std::string_view::npos;
#endif
}

int usage() {
  std::cerr << "usage: perfbench_driver --workload NAME --seed N [--trace]\n"
               "       perfbench_driver --machine\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false, machine = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      const std::string v = argv[++i];
      if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
        std::cerr << "error: --seed takes a non-negative integer\n";
        return 2;
      }
      seed = std::stoull(v);
    } else if (a == "--trace") {
      trace = true;
    } else if (a == "--machine") {
      machine = true;
    } else {
      return usage();
    }
  }
  if (!comparable_build()) {
    std::cerr << "error: refusing a debug or sanitizer build (" PERFBENCH_BUILD_TYPE
                 ", " PERFBENCH_CXX_FLAGS "): its timings are not comparable\n";
    return 3;
  }
  try {
    std::ostream& os = std::cout;
    if (machine) {
      os << "{\"compiler\":";
      json_string(os, __VERSION__);
      os << ",\"build_type\":";
      json_string(os, PERFBENCH_BUILD_TYPE);
      os << ",\"cxx_flags\":";
      json_string(os, PERFBENCH_CXX_FLAGS);
      os << ",\"sweep_jobs\":" << perfbench::sweep_jobs()
         << ",\"calibration_s\":";
      json_number(os, calibration_s());
      os << "}\n";
      return 0;
    }
    if (workload.empty()) return usage();
    const perfbench::Result r =
        perfbench::run_workload(workload, {seed, trace});
    os << "{\"workload\":";
    json_string(os, workload);
    os << ",\"seed\":" << seed << ",\"trace\":" << (trace ? "true" : "false")
       << ",\"setup_s\":";
    json_number(os, r.setup_s);
    os << ",\"run_s\":";
    json_number(os, r.run_s);
    os << ",\"peak_rss_mb\":";
    json_number(os, peak_rss_mb());
    os << ",\"points\":" << r.points << ",\"series\":";
    json_string(os, r.series);
    os << ",\"checks\":[";
    for (std::size_t i = 0; i < r.checks.size(); ++i) {
      if (i > 0) os << ',';
      os << "{\"what\":";
      json_string(os, r.checks[i].what);
      os << ",\"ok\":" << (r.checks[i].ok ? "true" : "false") << '}';
    }
    os << "],\"counts\":";
    json_object(os, r.counts);
    os << ",\"traced\":";
    json_object(os, r.traced);
    os << ",\"probes\":";
    json_object(os, r.probes);
    os << "}\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
