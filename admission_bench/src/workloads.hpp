#pragma once

// The three workloads. One call runs one pass: set-up (platform, seeded
// workload, mapper, shape library, manager, cache warm-up), then the
// timed phase. Every pass builds everything afresh from its pass seed, so
// a closed-loop pass decides identically whenever its seed recurs.

#include <cstdint>
#include <string>

#include "measure.hpp"
#include "tracing.hpp"

namespace bench {

/// fleet-open: dispatcher threads of the K = 4 fleet (plus the generator
/// thread: four busy threads).
constexpr std::uint32_t kFleetDispatchers = 3;

struct PassConfig {
  std::uint64_t seed = 1;
  /// Wrap the mapper in TracingMapper and record spans in the timed phase.
  bool traced = false;
  Tracer* tracer = nullptr;
  ProbeSampler* sampler = nullptr;
  /// fleet-open: Poisson arrival rate, 1/s.
  double rate_per_s = 0.0;
};

struct PassResult {
  double setup_s = 0.0;
  EndToEnd e2e;
  LayerSamples layers;
  /// Decision digest (closed-loop workloads).
  std::uint64_t digest = 0;
  /// Operations of the timed phase: admission requests, releases, switches.
  std::uint64_t attempted = 0;
  /// Operations that errored (unexpected release failure, unresolved
  /// future, exception). Rejections are outcomes, not failures.
  std::uint64_t failed = 0;
};

struct WorkloadSpec {
  const char* name;
  /// Closed loop on a workers = 0 manager: equal pass seeds give equal
  /// decisions, traced or not.
  bool deterministic;
  /// Wall-clock of one pass, set-up included, on a 4-core x86-64 host.
  /// Fixes the pass count for a given --seconds, so the work a seed
  /// stands for does not depend on how fast the program runs.
  double nominal_pass_s;
  PassResult (*run)(const PassConfig& config, Checks& checks);
};

/// The workload named @p name; null when there is none.
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

/// Seed of pass @p pass of a run seeded with @p seed (splitmix64).
[[nodiscard]] std::uint64_t pass_seed(std::uint64_t seed, std::uint64_t pass);

}  // namespace bench
