#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "core/spatial_mapper.hpp"
#include "runtime/concurrent_manager.hpp"
#include "runtime/fleet.hpp"
#include "runtime/scenario.hpp"
#include "shapes/library.hpp"
#include "util/rng.hpp"
#include "workload/hiperlan2.hpp"
#include "workload/modes.hpp"
#include "workload/synthetic.hpp"

namespace bench {

namespace {

using namespace rtsm;

// ---------------------------------------------------------- parameters --

/// mesh-churn: 16x16 mesh, occupancy held near kMeshLive apps — close to
/// what the mesh holds, so about one request in five is rejected.
constexpr std::uint32_t kMeshSize = 16;
constexpr std::size_t kMeshLive = 56;
constexpr std::size_t kMeshWarmupAdmits = 60;
constexpr std::size_t kMeshTimedAdmits = 240;
constexpr double kMeshExtraReleaseProb = 0.25;

/// hiperlan-modes: timed replays of the schedule after one warm-up replay.
constexpr std::size_t kHiperlanTimedReplays = 3;

/// fleet-open: K platforms, timed-phase length, mean hold time, warm-up
/// rounds over the catalogue.
constexpr std::size_t kFleetPlatforms = 4;
constexpr double kFleetOpenSeconds = 2.0;
constexpr double kFleetMeanHoldS = 0.6;
constexpr std::size_t kFleetWarmupRounds = 3;

/// The applications of mesh-churn and fleet-open form a fixed catalogue
/// generated from this constant; the workload seed drives what happens to
/// them at run time (admission order, releases, arrival times, holds).
/// Every seed thus offers the same population, and a run's figures vary
/// with the run-time dynamics, not with which applications a seed drew.
constexpr std::uint64_t kCatalogueSeed = 20080310;

// ----------------------------------------------------------- platforms --

/// NxN mesh: IO corners SRC/DST, the rest alternating quad-slot ARM and
/// single-context MONTIUM tiles (the X10 recipe).
std::shared_ptr<const arch::Platform> make_mesh(std::uint32_t n) {
  auto p = std::make_shared<arch::Platform>(
      "mesh " + std::to_string(n) + "x" + std::to_string(n), n, n);
  const TileTypeId arm = p->add_tile_type("ARM", 200'000'000);
  const TileTypeId montium = p->add_tile_type("MONTIUM", 200'000'000);
  const TileTypeId io = p->add_tile_type("IO", 1'600'000'000);
  p->add_tile("SRC", io, 0, 0, 64 * 1024, 8);
  p->add_tile("DST", io, n - 1, n - 1, 64 * 1024, 8);
  std::uint32_t arms = 0;
  std::uint32_t montiums = 0;
  for (std::uint32_t y = 0; y < n; ++y) {
    for (std::uint32_t x = 0; x < n; ++x) {
      if ((x == 0 && y == 0) || (x == n - 1 && y == n - 1)) continue;
      if ((x + y) % 2 == 0) {
        p->add_tile("ARM" + std::to_string(arms++), arm, x, y, 64 * 1024, 4);
      } else {
        p->add_tile("MONT" + std::to_string(montiums++), montium, x, y,
                    64 * 1024, 1);
      }
    }
  }
  return p;
}

/// The X7/X11 6x6 platform: 10 ARM + 10 MONTIUM tiles and the HIPERLAN/2
/// IO fixtures A/D and Sink.
std::shared_ptr<const arch::Platform> make_hiperlan_platform() {
  auto p = std::make_shared<arch::Platform>("hiperlan 6x6", 6, 6,
                                            arch::NocParams{});
  const TileTypeId arm = p->add_tile_type("ARM", 200'000'000);
  const TileTypeId montium = p->add_tile_type("MONTIUM", 200'000'000);
  const TileTypeId io = p->add_tile_type("IO", 1'600'000'000);
  p->add_tile("A/D", io, 0, 2, 64 * 1024, 8);
  p->add_tile("Sink", io, 5, 3, 64 * 1024, 8);
  std::uint32_t arms = 0;
  std::uint32_t montiums = 0;
  for (std::uint32_t y = 0; y < 6 && arms + montiums < 20; ++y) {
    for (std::uint32_t x = 0; x < 6 && arms + montiums < 20; ++x) {
      if ((x == 0 && y == 2) || (x == 5 && y == 3)) continue;
      if ((x + y) % 2 == 0 && arms < 10) {
        p->add_tile("ARM" + std::to_string(arms++), arm, x, y, 64 * 1024, 6);
      } else if (montiums < 10) {
        p->add_tile("MONT" + std::to_string(montiums++), montium, x, y,
                    64 * 1024, 1);
      }
    }
  }
  return p;
}

/// The X7 mode-churn schedule: HIPERLAN/2 mode variants, small and big
/// synthetic apps, high-priority arrivals that may preempt.
runtime::ScheduleParams x7_mix() {
  runtime::ScheduleParams params;
  params.waves = 28;
  params.arrivals_per_wave = 3;
  params.hiperlan_fraction = 0.4;
  params.switch_prob = 0.5;
  params.high_priority_fraction = 0.15;
  return params;
}

/// The X11 arrival mix in fixed proportions with seeded contents: of 20
/// arrivals, 8 HIPERLAN/2 mode variants, 5 big and 7 small synthetic apps
/// (ScheduleParams' 40% HIPERLAN/2 share, 40% big share of the rest) and
/// 3 high-priority classes (its 15%).
struct PoolApp {
  std::shared_ptr<const kpn::Application> app;
  runtime::RequestClass cls;
};

std::vector<PoolApp> make_x11_pool(Rng& rng) {
  const runtime::ScheduleParams params;
  std::vector<PoolApp> pool;
  for (int i = 0; i < 8; ++i) {
    const auto& modes = workload::kHiperlan2Modes;
    pool.push_back({std::make_shared<const kpn::Application>(
                        workload::hiperlan2_mode_variant(
                            modes[rng.pick_index(modes.size())].mode,
                            params.hiperlan)),
                    {}});
  }
  for (int i = 0; i < 12; ++i) {
    const bool big = i < 5;
    pool.push_back({std::make_shared<const kpn::Application>(
                        workload::make_synthetic_app(
                            rng, big ? params.big_app : params.small_app,
                            (big ? "big" : "small") + std::to_string(i))),
                    {}});
  }
  rng.shuffle(pool);
  for (int i = 0; i < 3; ++i) {
    pool[static_cast<std::size_t>(i)].cls = {params.high_priority, false};
  }
  return pool;
}

/// Structurally diverse synthetic apps for the mesh: chain and fork-join,
/// 3-8 processes, a per-app token volume range, ARM and MONTIUM options.
/// Drawn in blocks of 12 that hold every (process count, topology) pair
/// once, in seeded order, so seeds differ in the apps but not in the mix.
std::vector<std::shared_ptr<const kpn::Application>> make_mesh_apps(
    Rng& rng, std::size_t count, std::size_t first_index) {
  std::vector<std::pair<std::uint32_t, workload::Topology>> block;
  std::vector<std::shared_ptr<const kpn::Application>> apps;
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 12 == 0) {
      block.clear();
      for (std::uint32_t n = 3; n <= 8; ++n) {
        block.emplace_back(n, workload::Topology::Chain);
        block.emplace_back(n, workload::Topology::ForkJoin);
      }
      rng.shuffle(block);
    }
    workload::SyntheticAppParams params;
    params.process_count = block[i % 12].first;
    params.topology = block[i % 12].second;
    params.with_fixtures = false;
    params.tile_types = {"ARM", "MONTIUM"};
    params.min_tokens = static_cast<std::uint32_t>(rng.uniform_int(4, 8));
    params.max_tokens =
        params.min_tokens + static_cast<std::uint32_t>(rng.uniform_int(8, 24));
    apps.push_back(
        std::make_shared<const kpn::Application>(workload::make_synthetic_app(
            rng, params, "mesh" + std::to_string(first_index + i))));
  }
  return apps;
}

std::shared_ptr<const core::Mapper> make_mapper(
    const PassConfig& config,
    const std::shared_ptr<const arch::Platform>& platform) {
  auto spatial = std::make_shared<const core::SpatialMapper>();
  if (!config.traced) return spatial;
  return std::make_shared<const TracingMapper>(spatial, platform,
                                               *config.tracer,
                                               *config.sampler);
}

// ------------------------------------------------------------ accounting --

/// Books one resolved admission request of a timed phase; @p digest, when
/// given, folds in its decision (closed-loop workloads only).
void account_admission(const kpn::Application& app,
                       const runtime::AdmitOutcome& outcome, double latency_us,
                       PassResult& result, Checks& checks, Digest* digest) {
  EndToEnd& e = result.e2e;
  ++e.offered;
  ++result.attempted;
  e.admit_us.push_back(latency_us);
  switch (outcome.status) {
    case runtime::AdmitStatus::Admitted:
      ++e.admitted;
      e.energy_sum += outcome.mapping.energy_nj_per_symbol;
      break;
    case runtime::AdmitStatus::Rejected:
      ++e.rejected;
      break;
    case runtime::AdmitStatus::DeadlineMiss:
      ++e.deadline_missed;
      break;
    case runtime::AdmitStatus::Waiting:
      ++result.failed;
      checks.fail(app.name() + ": future resolved as Waiting under first-fit");
      break;
  }
  LayerSamples& l = result.layers;
  l.queue_wait_us.push_back(std::max(0.0, latency_us - outcome.mapping_us));
  (outcome.shape_hit ? l.shape_hit_admit_us : l.shape_miss_admit_us)
      .push_back(latency_us);
  if (digest != nullptr) {
    digest->add(static_cast<std::uint64_t>(outcome.status));
    digest->add(
        std::bit_cast<std::uint64_t>(outcome.mapping.energy_nj_per_symbol));
  }
}

/// Checks an outcome of any phase (warm-up included).
void check_outcome(const kpn::Application& app,
                   const runtime::AdmitOutcome& outcome, Checks& checks) {
  if (outcome.status == runtime::AdmitStatus::Admitted) {
    check_admitted(app, outcome, checks);
  }
}

/// One client of a workers = 0 manager: every call completes before the
/// next is issued (closed loop).
class ClosedLoopClient {
 public:
  ClosedLoopClient(runtime::ConcurrentRuntimeManager& manager,
                   const PassConfig& config, PassResult& result,
                   Checks& checks)
      : manager_(&manager),
        config_(&config),
        result_(&result),
        checks_(&checks) {}

  /// Submit -> pump -> future. Returns the app id when admitted.
  std::optional<AppId> admit(std::shared_ptr<const kpn::Application> app,
                             runtime::RequestClass cls, bool timed) {
    const auto start = Clock::now();
    std::future<runtime::AdmitOutcome> future =
        manager_->submit(app, 0.0, cls);
    manager_->pump();
    if (future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ++result_->failed;
      checks_->fail(app->name() + ": future unresolved after pump()");
      return std::nullopt;
    }
    const runtime::AdmitOutcome outcome = future.get();
    const auto end = Clock::now();
    check_outcome(*app, outcome, *checks_);
    if (timed) {
      account_admission(*app, outcome, us_between(start, end), *result_,
                        *checks_, &digest_);
      if (config_->traced) {
        config_->tracer->record(
            "request", start, end, app.get(),
            outcome.status == runtime::AdmitStatus::Admitted);
      }
    }
    if (outcome.status != runtime::AdmitStatus::Admitted) return std::nullopt;
    return outcome.app_id;
  }

  void release(AppId id, bool timed) {
    const auto start = Clock::now();
    const bool ok = manager_->release(id);
    const auto end = Clock::now();
    if (!ok) {
      ++result_->failed;
      checks_->fail("release of a running application returned false");
    }
    if (!timed) return;
    ++result_->attempted;
    ++result_->e2e.releases;
    result_->layers.release_us.push_back(us_between(start, end));
    if (config_->traced) config_->tracer->record("release", start, end);
  }

  void switch_mode(AppId id, std::shared_ptr<const kpn::Application> next,
                   bool timed) {
    const auto start = Clock::now();
    const runtime::SwitchOutcome out = manager_->switch_mode(id, next);
    const auto end = Clock::now();
    if (!timed) return;
    ++result_->attempted;
    EndToEnd& e = result_->e2e;
    ++e.switches;
    e.switch_us.push_back(us_between(start, end));
    switch (out.status) {
      case runtime::SwitchStatus::InPlace: ++e.switches_in_place; break;
      case runtime::SwitchStatus::Replanned: ++e.switches_replanned; break;
      case runtime::SwitchStatus::RolledBack: ++e.switches_rolled_back; break;
      case runtime::SwitchStatus::UnknownId: ++e.switches_unknown_id; break;
      case runtime::SwitchStatus::DeadlineMiss:
        ++e.switches_deadline_missed;
        break;
    }
    digest_.add(0x5717c4u + static_cast<std::uint64_t>(out.status));
    if (config_->traced) config_->tracer->record("switch_mode", start, end);
  }

  /// Whether @p id still runs (a preemption may have evicted it). The
  /// lookup is the benchmark's bookkeeping, not the program's work: its
  /// wall-clock is kept in bookkeeping_s() for the timed phase to leave out.
  [[nodiscard]] bool is_running(AppId id) {
    const auto start = Clock::now();
    const std::vector<AppId> ids = manager_->running_ids();
    const bool running = std::find(ids.begin(), ids.end(), id) != ids.end();
    bookkeeping_s_ += us_between(start, Clock::now()) / 1e6;
    return running;
  }

  [[nodiscard]] double bookkeeping_s() const { return bookkeeping_s_; }
  [[nodiscard]] std::uint64_t digest() const { return digest_.value(); }

 private:
  runtime::ConcurrentRuntimeManager* manager_;
  const PassConfig* config_;
  PassResult* result_;
  Checks* checks_;
  Digest digest_;
  double bookkeeping_s_ = 0.0;
};

}  // namespace

// ------------------------------------------------------------ mesh-churn --

PassResult run_mesh_churn(const PassConfig& config, Checks& checks) {
  PassResult result;
  const auto setup_start = Clock::now();
  const auto platform = make_mesh(kMeshSize);
  Rng catalogue(kCatalogueSeed);
  auto warm_apps = make_mesh_apps(catalogue, kMeshWarmupAdmits, 0);
  auto apps = make_mesh_apps(catalogue, kMeshTimedAdmits, kMeshWarmupAdmits);
  Rng rng(config.seed);
  rng.shuffle(warm_apps);
  rng.shuffle(apps);
  const auto library = std::make_shared<shapes::ShapeLibrary>(*platform);
  runtime::ConcurrentRuntimeManager manager(
      *platform, {.mapper = make_mapper(config, platform), .shapes = library},
      {.workers = 0});
  ClosedLoopClient client(manager, config, result, checks);

  // Churn: hold occupancy near kMeshLive — release a seeded victim once
  // the platform is at the target, and now and then below it.
  std::vector<AppId> live;
  const auto churn = [&](Rng& pick, const auto& app, bool timed) {
    if (!live.empty() &&
        (live.size() >= kMeshLive || pick.bernoulli(kMeshExtraReleaseProb))) {
      const std::size_t victim = pick.pick_index(live.size());
      client.release(live[victim], timed);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    if (const auto id = client.admit(app, {}, timed)) live.push_back(*id);
  };
  for (const auto& app : warm_apps) churn(rng, app, false);
  result.setup_s = us_between(setup_start, Clock::now()) / 1e6;

  const LayerCounters before = LayerCounters::read({&manager}, *library);
  if (config.traced) config.tracer->set_recording(true);
  const auto timed_start = Clock::now();
  for (const auto& app : apps) churn(rng, app, true);
  result.e2e.timed_s = us_between(timed_start, Clock::now()) / 1e6;
  if (config.traced) config.tracer->set_recording(false);
  const LayerCounters after = LayerCounters::read({&manager}, *library);
  check_tallies(Tally::of(result.e2e), before, after, false, "mesh-churn",
                checks);
  result.layers.counters = after.since(before);
  result.layers.passes = 1;
  result.digest = client.digest();

  check_replay(manager, *platform, "mesh-churn", checks);
  return result;
}

// -------------------------------------------------------- hiperlan-modes --

namespace {

/// Replays @p schedule wave by wave through submit/release/switch_mode.
/// Departures and switches of slots that are no longer running (rejected
/// arrival, preempted victim) are skipped, as runtime/scenario.hpp does.
void replay_schedule(const runtime::Schedule& schedule,
                     ClosedLoopClient& client, bool timed) {
  std::map<std::size_t, AppId> live;
  for (const runtime::ScenarioEvent& ev : schedule.events) {
    switch (ev.kind) {
      case runtime::ScenarioEvent::Kind::Arrive:
        if (const auto id = client.admit(ev.app, ev.cls, timed)) {
          live[ev.slot] = *id;
        }
        break;
      case runtime::ScenarioEvent::Kind::Depart: {
        const auto it = live.find(ev.slot);
        if (it == live.end()) break;
        if (client.is_running(it->second)) client.release(it->second, timed);
        live.erase(it);
        break;
      }
      case runtime::ScenarioEvent::Kind::SwitchMode: {
        const auto it = live.find(ev.slot);
        if (it == live.end()) break;
        if (!client.is_running(it->second)) {
          live.erase(it);
          break;
        }
        client.switch_mode(it->second, ev.next, timed);
        break;
      }
    }
  }
}

}  // namespace

PassResult run_hiperlan_modes(const PassConfig& config, Checks& checks) {
  PassResult result;
  const auto setup_start = Clock::now();
  const auto platform = make_hiperlan_platform();
  const runtime::Schedule schedule =
      runtime::make_mode_churn_schedule(x7_mix(), config.seed);
  const auto mapper = make_mapper(config, platform);
  const auto library = std::make_shared<shapes::ShapeLibrary>(*platform);
  {
    // Warm-up: one replay on a throwaway manager fills the verify, route
    // and shape caches the timed replay shares.
    runtime::ConcurrentRuntimeManager warm(
        *platform, {.mapper = mapper, .shapes = library}, {.workers = 0});
    PassResult warm_result;
    ClosedLoopClient client(warm, config, warm_result, checks);
    replay_schedule(schedule, client, false);
    result.failed += warm_result.failed;
  }
  result.setup_s = us_between(setup_start, Clock::now()) / 1e6;

  // Timed: the same schedule replayed on fresh managers sharing the warm
  // caches; each replay is deterministic given the one before it.
  Digest digest;
  for (std::size_t replay = 0; replay < kHiperlanTimedReplays; ++replay) {
    runtime::ConcurrentRuntimeManager manager(
        *platform, {.mapper = mapper, .shapes = library}, {.workers = 0});
    ClosedLoopClient client(manager, config, result, checks);
    const Tally client_before = Tally::of(result.e2e);
    const LayerCounters before = LayerCounters::read({&manager}, *library);
    if (config.traced) config.tracer->set_recording(true);
    const auto timed_start = Clock::now();
    replay_schedule(schedule, client, true);
    result.e2e.timed_s += us_between(timed_start, Clock::now()) / 1e6 -
                          client.bookkeeping_s();
    if (config.traced) config.tracer->set_recording(false);
    const LayerCounters after = LayerCounters::read({&manager}, *library);
    check_tallies(Tally::of(result.e2e).minus(client_before), before, after,
                  false, "hiperlan-modes", checks);
    result.layers.counters.merge(after.since(before));
    digest.add(client.digest());
    check_replay(manager, *platform, "hiperlan-modes", checks);
  }
  result.layers.passes = 1;
  result.digest = digest.value();
  return result;
}

// ------------------------------------------------------------ fleet-open --

namespace {

struct Arrival {
  double due_s = 0.0;
  double hold_s = 0.0;
  std::shared_ptr<const kpn::Application> app;
  runtime::RequestClass cls;
};

struct InFlight {
  std::future<runtime::AdmitOutcome> future;
  Clock::time_point due;
  const Arrival* arrival = nullptr;
};

double exponential(Rng& rng, double mean) {
  return -mean * std::log(1.0 - rng.uniform01());
}

LayerCounters fleet_counters(runtime::FleetManager& fleet,
                             const shapes::ShapeLibrary& library) {
  std::vector<runtime::ConcurrentRuntimeManager*> managers;
  for (std::size_t p = 0; p < fleet.platform_count(); ++p) {
    managers.push_back(&fleet.manager(p));
  }
  LayerCounters c = LayerCounters::read(managers, library);
  const runtime::FleetStats s = fleet.fleet_stats();
  c.dispatches = s.dispatches;
  c.spills = s.spills;
  c.spill_failures = s.spill_failures;
  c.max_imbalance = s.max_imbalance;
  return c;
}

}  // namespace

PassResult run_fleet_open(const PassConfig& config, Checks& checks) {
  PassResult result;
  const auto setup_start = Clock::now();
  const auto platform = make_hiperlan_platform();
  // Seeded Poisson arrivals drawn from the pool, each its own application
  // object, each with a seeded hold time.
  Rng catalogue(kCatalogueSeed);
  const std::vector<PoolApp> pool = make_x11_pool(catalogue);
  Rng rng(config.seed);
  std::vector<Arrival> arrivals;
  for (double t = exponential(rng, 1.0 / config.rate_per_s);
       t < kFleetOpenSeconds;
       t += exponential(rng, 1.0 / config.rate_per_s)) {
    const PoolApp& pick = pool[rng.pick_index(pool.size())];
    arrivals.push_back({t, exponential(rng, kFleetMeanHoldS),
                        std::make_shared<const kpn::Application>(*pick.app),
                        pick.cls});
  }

  const auto library = std::make_shared<shapes::ShapeLibrary>(*platform);
  runtime::FleetOptions options;
  options.platforms = kFleetPlatforms;
  options.workers = kFleetDispatchers;
  options.manager.mapper = make_mapper(config, platform);
  options.manager.shapes = library;
  runtime::FleetManager fleet(*platform, options);

  // Warm-up: the catalogue admitted kFleetWarmupRounds times over, so
  // shapes are learned at rising occupancy. The apps stay running, each
  // with a seeded residual hold (exponential, memoryless like the holds
  // themselves): the timed phase starts near the steady occupancy, rate x
  // mean hold (60 apps at 100/s), instead of ramping up from an empty fleet.
  std::vector<std::pair<double, AppId>> prefill;
  for (std::size_t round = 0; round < kFleetWarmupRounds; ++round) {
    for (const PoolApp& p : pool) {
      const double residual_hold_s = exponential(rng, kFleetMeanHoldS);
      const runtime::AdmitOutcome out = fleet.admit(*p.app, 0.0, p.cls);
      check_outcome(*p.app, out, checks);
      if (out.status == runtime::AdmitStatus::Admitted) {
        prefill.emplace_back(residual_hold_s, out.app_id);
      }
    }
  }
  result.setup_s = us_between(setup_start, Clock::now()) / 1e6;

  // Timed phase: this thread is the generator. It submits each arrival
  // when due, notes when each future resolves, and releases each admitted
  // app, the warm-up ones included, once its hold time has passed.
  const LayerCounters before = fleet_counters(fleet, *library);
  std::vector<InFlight> in_flight;
  std::multimap<Clock::time_point, AppId> holds;
  if (config.traced) config.tracer->set_recording(true);
  const auto start = Clock::now();
  for (const auto& [hold_s, id] : prefill) {
    holds.emplace(start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(hold_s)),
                  id);
  }
  // A request still unresolved this long after the last arrival was due
  // will not resolve: fail the run instead of spinning forever.
  const auto give_up = start + std::chrono::seconds(60) +
                       std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kFleetOpenSeconds));
  std::size_t next = 0;
  while (next < arrivals.size() || !in_flight.empty()) {
    bool idle = true;
    auto now = Clock::now();
    if (now > give_up) {
      result.failed += in_flight.size();
      checks.fail(std::to_string(in_flight.size()) +
                  " fleet admission futures never resolved");
      break;
    }
    while (next < arrivals.size()) {
      const Arrival& a = arrivals[next];
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(a.due_s));
      if (due > now) break;
      result.e2e.generator_lag_us.push_back(us_between(due, now));
      in_flight.push_back({fleet.submit(a.app, 0.0, a.cls), due, &a});
      ++next;
      idle = false;
      now = Clock::now();
    }
    for (std::size_t i = 0; i < in_flight.size();) {
      InFlight& f = in_flight[i];
      if (f.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const auto resolved = Clock::now();
      const runtime::AdmitOutcome out = f.future.get();
      const kpn::Application& app = *f.arrival->app;
      check_outcome(app, out, checks);
      const double latency_us = us_between(f.due, resolved);
      account_admission(app, out, latency_us, result, checks, nullptr);
      (f.arrival->due_s < kFleetOpenSeconds / 2
           ? result.layers.queue_wait_early_us
           : result.layers.queue_wait_late_us)
          .push_back(std::max(0.0, latency_us - out.mapping_us));
      if (config.traced) {
        config.tracer->record("request", f.due, resolved, &app,
                              out.status == runtime::AdmitStatus::Admitted);
      }
      if (out.status == runtime::AdmitStatus::Admitted) {
        holds.emplace(resolved + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         f.arrival->hold_s)),
                      out.app_id);
      }
      in_flight[i] = std::move(in_flight.back());
      in_flight.pop_back();
      idle = false;
    }
    now = Clock::now();
    while (!holds.empty() && holds.begin()->first <= now) {
      const auto t0 = Clock::now();
      const bool ok = fleet.release(holds.begin()->second);
      const auto t1 = Clock::now();
      holds.erase(holds.begin());
      ++result.attempted;
      ++result.e2e.releases;
      result.layers.release_us.push_back(us_between(t0, t1));
      if (config.traced) config.tracer->record("release", t0, t1);
      if (!ok) {
        ++result.failed;
        checks.fail("fleet release of an admitted application returned false");
      }
      idle = false;
    }
    if (idle) std::this_thread::yield();
  }
  result.e2e.timed_s = us_between(start, Clock::now()) / 1e6;
  if (config.traced) config.tracer->set_recording(false);
  const LayerCounters after = fleet_counters(fleet, *library);
  check_tallies(Tally::of(result.e2e), before, after, true, "fleet-open",
                checks);
  result.layers.counters = after.since(before);
  result.layers.passes = 1;

  fleet.wait_idle();
  check_fleet(fleet, checks);
  return result;
}

// -------------------------------------------------------------- registry --

const WorkloadSpec* find_workload(const std::string& name) {
  static const WorkloadSpec kWorkloads[] = {
      {"mesh-churn", true, 2.5, &run_mesh_churn},
      {"hiperlan-modes", true, 0.8, &run_hiperlan_modes},
      {"fleet-open", false, kFleetOpenSeconds + 0.55, &run_fleet_open},
  };
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::uint64_t pass_seed(std::uint64_t seed, std::uint64_t pass) {
  std::uint64_t z = seed + (pass + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace bench
