#pragma once

// Timing samples, tallies and the correctness-check log shared by the
// three workloads of the admission benchmark.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "noc/route_cache.hpp"
#include "runtime/concurrent_manager.hpp"
#include "shapes/library.hpp"
#include "verify/engine.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double us_between(Clock::time_point from,
                                       Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Percentile @p p in [0, 100] by linear interpolation between closest
/// ranks; 0 for an empty sample.
[[nodiscard]] inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Failed correctness checks of one run. Any entry fails the run.
struct Checks {
  std::vector<std::string> failures;
  void fail(std::string message) { failures.push_back(std::move(message)); }
  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// End-to-end figures: what a client of the manager sees.
struct EndToEnd {
  /// Submit (closed loop) or due time (open loop) -> future resolved, per
  /// admission request.
  std::vector<double> admit_us;
  /// Wall-clock of each switch_mode() call.
  std::vector<double> switch_us;
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t deadline_missed = 0;
  /// Summed committed energy of the admitted applications, nJ/symbol.
  double energy_sum = 0.0;
  std::uint64_t switches = 0;
  std::uint64_t switches_in_place = 0;
  std::uint64_t switches_replanned = 0;
  std::uint64_t switches_rolled_back = 0;
  std::uint64_t switches_deadline_missed = 0;
  std::uint64_t switches_unknown_id = 0;
  std::uint64_t releases = 0;
  /// Wall-clock of the timed phases, seconds.
  double timed_s = 0.0;
  /// Open loop only: how late the generator submitted each arrival.
  std::vector<double> generator_lag_us;

  void merge(const EndToEnd& o) {
    admit_us.insert(admit_us.end(), o.admit_us.begin(), o.admit_us.end());
    switch_us.insert(switch_us.end(), o.switch_us.begin(), o.switch_us.end());
    offered += o.offered;
    admitted += o.admitted;
    rejected += o.rejected;
    deadline_missed += o.deadline_missed;
    energy_sum += o.energy_sum;
    switches += o.switches;
    switches_in_place += o.switches_in_place;
    switches_replanned += o.switches_replanned;
    switches_rolled_back += o.switches_rolled_back;
    switches_deadline_missed += o.switches_deadline_missed;
    switches_unknown_id += o.switches_unknown_id;
    releases += o.releases;
    timed_s += o.timed_s;
    generator_lag_us.insert(generator_lag_us.end(), o.generator_lag_us.begin(),
                            o.generator_lag_us.end());
  }
};

/// Admission requests and how they resolved.
struct Tally {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t deadline_missed = 0;

  /// The client's side: what the benchmark submitted and saw resolve.
  [[nodiscard]] static Tally of(const EndToEnd& e) {
    return {e.offered, e.admitted, e.rejected, e.deadline_missed};
  }
  [[nodiscard]] Tally minus(const Tally& o) const {
    return {offered - o.offered, admitted - o.admitted, rejected - o.rejected,
            deadline_missed - o.deadline_missed};
  }
};

/// Counters of the manager layers over a timed phase (differences of the
/// program's own cumulative stats, taken around the phase).
struct LayerCounters {
  /// The managers' own admission tallies (AdmissionStats offered,
  /// admitted, rejected, deadline_misses), summed over the fleet.
  Tally admissions;
  /// Preemption victims evicted; each re-enters the manager's stream as a
  /// request of its own, not one the benchmark submitted.
  std::uint64_t preemption_evictions = 0;
  /// Requests parked when read (not a difference: since() keeps the
  /// earlier reading, the victims that may resolve inside the phase).
  std::uint64_t parked = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t preemption_grants = 0;
  std::uint64_t delta_refreshes = 0;
  std::uint64_t full_copies = 0;
  std::uint64_t gated_commits = 0;
  std::uint64_t validated_commits = 0;
  double snapshot_us = 0.0;
  double validate_us = 0.0;
  double commit_us = 0.0;
  rtsm::verify::EngineStats engine;
  rtsm::noc::RouteCacheStats routes;
  rtsm::shapes::ShapeLibraryStats shapes;
  std::uint64_t dispatches = 0;
  std::uint64_t spills = 0;
  std::uint64_t spill_failures = 0;
  double max_imbalance = 0.0;

  /// Cumulative counters of a set of managers sharing one mapper and one
  /// shape library (the fleet's platforms, or a single manager).
  static LayerCounters read(
      const std::vector<rtsm::runtime::ConcurrentRuntimeManager*>& managers,
      const rtsm::shapes::ShapeLibrary& library);

  /// this - @p before, field by field (max_imbalance is kept, it is a
  /// running maximum).
  [[nodiscard]] LayerCounters since(const LayerCounters& before) const;

  void merge(const LayerCounters& o);
};

/// Per-request layer samples of a pass.
struct LayerSamples {
  LayerCounters counters;
  /// Resolve latency minus the outcome's mapping_us.
  std::vector<double> queue_wait_us;
  std::vector<double> release_us;
  /// Resolve latency of admissions served by / missing the shape library.
  std::vector<double> shape_hit_admit_us;
  std::vector<double> shape_miss_admit_us;
  /// fleet-open: queue wait of the requests due in the first and in the
  /// second half of the timed window (a growing backlog shows as a rise).
  std::vector<double> queue_wait_early_us;
  std::vector<double> queue_wait_late_us;
  std::uint64_t passes = 0;

  void merge(const LayerSamples& o) {
    counters.merge(o.counters);
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(queue_wait_us, o.queue_wait_us);
    append(release_us, o.release_us);
    append(shape_hit_admit_us, o.shape_hit_admit_us);
    append(shape_miss_admit_us, o.shape_miss_admit_us);
    append(queue_wait_early_us, o.queue_wait_early_us);
    append(queue_wait_late_us, o.queue_wait_late_us);
    passes += o.passes;
  }
};

/// FNV-1a over the decision sequence of a pass: equal digests mean equal
/// admit/reject/switch outcomes in equal order with equal energies.
class Digest {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace bench
