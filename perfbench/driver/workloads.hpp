#pragma once

// The benchmark's workloads, composed through the library's public API.
// Each mirrors one named tfmcc_sim scenario (perfbench/README.md lists the
// exact commands): the series text a workload produces is byte-for-byte the
// CSV the mirrored scenario prints for the same seed.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Named = std::vector<std::pair<std::string, double>>;

struct Check {
  std::string what;
  bool ok;
};

struct RunConfig {
  std::uint64_t seed{0};  // offset from the mirrored scenario's default seed
  bool trace{false};
};

struct Result {
  double setup_s{0.0};
  double run_s{0.0};
  std::int64_t points{1};  // simulation runs folded into the result
  std::string series;      // the mirrored scenario's CSV
  std::vector<Check> checks;  // the mirrored scenario's paper claims
  Named counts;            // exact at a given seed, traced or not
  Named traced;            // span times, traced runs only
  Named probes;            // isolated probes on captured inputs, traced only
};

/// Runs one workload.  Throws std::invalid_argument for an unknown name.
Result run_workload(std::string_view name, const RunConfig& cfg);

/// Worker threads of the sweep workload: min(4, hardware threads).
int sweep_jobs();

}  // namespace perfbench
