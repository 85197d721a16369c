#include "checks.hpp"

#include <cstdint>
#include <utility>

#include "core/mapper.hpp"
#include "core/resource_state.hpp"

namespace bench {

void check_admitted(const rtsm::kpn::Application& app,
                    const rtsm::runtime::AdmitOutcome& outcome,
                    Checks& checks) {
  const rtsm::kpn::QosConstraints& qos = app.qos();
  const std::uint64_t period_ps = qos.symbol_period_ns * 1000;
  if (outcome.mapping.achieved_period_ps > period_ps) {
    checks.fail(app.name() + ": achieved period " +
                std::to_string(outcome.mapping.achieved_period_ps) +
                " ps exceeds the QoS period " + std::to_string(period_ps) +
                " ps");
  }
  if (qos.max_latency_ns.has_value() &&
      outcome.mapping.latency_ps > *qos.max_latency_ns * 1000) {
    checks.fail(app.name() + ": latency " +
                std::to_string(outcome.mapping.latency_ps) +
                " ps exceeds max_latency_ns");
  }
}

void check_replay(const rtsm::runtime::ConcurrentRuntimeManager& manager,
                  const rtsm::arch::Platform& platform,
                  const std::string& where, Checks& checks) {
  rtsm::core::ResourceState replayed(platform);
  for (const rtsm::AppId id : manager.running_ids()) {
    const auto app = manager.app_of(id);
    const rtsm::core::Mapping mapping = manager.mapping_of(id);
    if (!rtsm::core::mapping_fits(replayed, *app, mapping)) {
      checks.fail(where + ": surviving mapping of " +
                  manager.display_name(id) + " does not fit on replay");
      return;
    }
    rtsm::core::commit_mapping(replayed, *app, mapping);
  }
  if (!manager.state_snapshot().approx_equals(replayed)) {
    checks.fail(where + ": replayed state differs from the live state");
  }
}

void check_tallies(const Tally& client, const LayerCounters& before,
                   const LayerCounters& after, bool fleet,
                   const std::string& where, Checks& checks) {
  const LayerCounters d = after.since(before);
  const auto n = [](std::uint64_t v) { return std::to_string(v); };
  Tally expected = client;
  if (fleet) {
    if (d.dispatches != client.offered) {
      checks.fail(where + ": fleet dispatched " + n(d.dispatches) +
                  " requests, the benchmark submitted " + n(client.offered));
    }
    if (d.spill_failures != client.rejected) {
      checks.fail(where + ": fleet rejected " + n(d.spill_failures) +
                  " requests after spill-over, the benchmark saw " +
                  n(client.rejected) + " rejected");
    }
    expected.offered = d.dispatches + d.spills;
    expected.rejected =
        expected.offered - client.admitted - client.deadline_missed;
  }
  const Tally& seen = d.admissions;
  if (seen.offered != expected.offered + d.preemption_evictions) {
    checks.fail(where + ": managers counted " + n(seen.offered) +
                " offered requests, expected " + n(expected.offered) + " + " +
                n(d.preemption_evictions) + " preemption victims");
  }
  // Outcomes beyond the expected ones can only be victims resolving.
  const std::pair<std::uint64_t, std::uint64_t> outcomes[] = {
      {seen.admitted, expected.admitted},
      {seen.rejected, expected.rejected},
      {seen.deadline_missed, expected.deadline_missed}};
  std::uint64_t extra = 0;
  bool short_count = false;
  for (const auto& [counted, wanted] : outcomes) {
    short_count = short_count || counted < wanted;
    if (counted > wanted) extra += counted - wanted;
  }
  if (short_count || extra > before.parked + d.preemption_evictions) {
    checks.fail(where + ": managers counted " + n(seen.admitted) +
                " admitted, " + n(seen.rejected) + " rejected, " +
                n(seen.deadline_missed) + " deadline-missed; the benchmark "
                "saw " + n(expected.admitted) + ", " + n(expected.rejected) +
                ", " + n(expected.deadline_missed) + " (victims that may "
                "resolve in the phase: " +
                n(before.parked + d.preemption_evictions) + ")");
  }
}

void check_fleet(rtsm::runtime::FleetManager& fleet, Checks& checks) {
  for (const rtsm::AppId id : fleet.running_ids()) {
    bool resolves = fleet.platform_of(id) < fleet.platform_count();
    try {
      resolves = resolves && fleet.app_of(id) != nullptr;
      (void)fleet.mapping_of(id);
    } catch (const std::exception&) {
      resolves = false;
    }
    if (!resolves) {
      checks.fail("fleet id " + std::to_string(id.value()) +
                  " does not resolve to a running application");
    }
  }
  for (std::size_t p = 0; p < fleet.platform_count(); ++p) {
    check_replay(fleet.manager(p), fleet.platform(),
                 "fleet platform " + std::to_string(p), checks);
  }
}

}  // namespace bench
