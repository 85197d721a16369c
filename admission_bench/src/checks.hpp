#pragma once

// Correctness checks the benchmark runs on every pass. A failed check is
// logged in Checks and fails the run.

#include <string>

#include "arch/platform.hpp"
#include "kpn/application.hpp"
#include "measure.hpp"
#include "runtime/concurrent_manager.hpp"
#include "runtime/fleet.hpp"

namespace bench {

/// An admitted outcome meets its application's QoS: achieved period within
/// the required symbol period, latency within max_latency_ns when set.
void check_admitted(const rtsm::kpn::Application& app,
                    const rtsm::runtime::AdmitOutcome& outcome,
                    Checks& checks);

/// Serial-replay oracle of one platform: the surviving (app, mapping)
/// pairs pass mapping_fits one by one and replay onto a fresh
/// ResourceState that equals the live state.
void check_replay(const rtsm::runtime::ConcurrentRuntimeManager& manager,
                  const rtsm::arch::Platform& platform,
                  const std::string& where, Checks& checks);

/// The program's own admission counters over a timed phase agree with
/// what the benchmark submitted and saw resolve (@p client). Preemption
/// victims re-enter the managers' streams as requests of their own: each
/// eviction adds one offered request, and each victim that resolves in the
/// phase (parked before it or evicted during it) adds one outcome. On a
/// fleet (@p fleet) every request is one dispatch plus one platform
/// submission per spill-over try; only the last try of a request can end
/// other than rejected.
void check_tallies(const Tally& client, const LayerCounters& before,
                   const LayerCounters& after, bool fleet,
                   const std::string& where, Checks& checks);

/// Every fleet running_ids() entry resolves to a platform and an
/// application, and the replay oracle holds on every platform.
void check_fleet(rtsm::runtime::FleetManager& fleet, Checks& checks);

}  // namespace bench
