#include "measure.hpp"

namespace bench {

namespace {

rtsm::verify::EngineStats minus(const rtsm::verify::EngineStats& a,
                                const rtsm::verify::EngineStats& b) {
  rtsm::verify::EngineStats d;
  d.lookups = a.lookups - b.lookups;
  d.hits = a.hits - b.hits;
  d.misses = a.misses - b.misses;
  d.evictions = a.evictions - b.evictions;
  d.evicted_while_hot = a.evicted_while_hot - b.evicted_while_hot;
  d.warm_started = a.warm_started - b.warm_started;
  d.simulations = a.simulations - b.simulations;
  d.events_simulated = a.events_simulated - b.events_simulated;
  d.simulations_saved = a.simulations_saved - b.simulations_saved;
  d.events_saved = a.events_saved - b.events_saved;
  return d;
}

rtsm::noc::RouteCacheStats minus(const rtsm::noc::RouteCacheStats& a,
                                 const rtsm::noc::RouteCacheStats& b) {
  rtsm::noc::RouteCacheStats d;
  d.lookups = a.lookups - b.lookups;
  d.hits = a.hits - b.hits;
  d.misses = a.misses - b.misses;
  d.fallbacks = a.fallbacks - b.fallbacks;
  d.evictions = a.evictions - b.evictions;
  return d;
}

rtsm::shapes::ShapeLibraryStats minus(const rtsm::shapes::ShapeLibraryStats& a,
                                      const rtsm::shapes::ShapeLibraryStats& b) {
  rtsm::shapes::ShapeLibraryStats d;
  d.lookups = a.lookups - b.lookups;
  d.hits = a.hits - b.hits;
  d.misses = a.misses - b.misses;
  d.inserts = a.inserts - b.inserts;
  d.duplicates = a.duplicates - b.duplicates;
  d.evictions = a.evictions - b.evictions;
  d.anchor_probes = a.anchor_probes - b.anchor_probes;
  d.full_fit_checks = a.full_fit_checks - b.full_fit_checks;
  return d;
}

}  // namespace

LayerCounters LayerCounters::read(
    const std::vector<rtsm::runtime::ConcurrentRuntimeManager*>& managers,
    const rtsm::shapes::ShapeLibrary& library) {
  LayerCounters c;
  for (const auto* manager : managers) {
    const rtsm::runtime::AdmissionStats s = manager->stats();
    c.admissions.offered += s.offered;
    c.admissions.admitted += s.admitted;
    c.admissions.rejected += s.rejected;
    c.admissions.deadline_missed += s.deadline_misses;
    c.preemption_evictions += s.preemption_evictions;
    c.parked += manager->waiting_count();
    c.conflicts += s.conflicts;
    c.preemption_grants += s.preemption_grants;
    c.delta_refreshes += s.snapshot_delta_refreshes;
    c.full_copies += s.snapshot_full_copies;
    c.gated_commits += s.gated_commits;
    c.validated_commits += s.validated_commits;
    c.snapshot_us += s.snapshot_time_us;
    c.validate_us += s.validate_time_us;
    c.commit_us += s.commit_time_us;
  }
  // Every manager shares one mapper, hence one engine and one route cache.
  const rtsm::core::Mapper& mapper = managers.front()->mapper();
  if (const auto engine = mapper.verification_engine()) {
    c.engine = engine->stats();
  }
  if (const auto routes = mapper.route_cache()) c.routes = routes->stats();
  c.shapes = library.stats();
  return c;
}

LayerCounters LayerCounters::since(const LayerCounters& before) const {
  LayerCounters d;
  d.admissions = admissions.minus(before.admissions);
  d.preemption_evictions = preemption_evictions - before.preemption_evictions;
  d.parked = before.parked;
  d.conflicts = conflicts - before.conflicts;
  d.preemption_grants = preemption_grants - before.preemption_grants;
  d.delta_refreshes = delta_refreshes - before.delta_refreshes;
  d.full_copies = full_copies - before.full_copies;
  d.gated_commits = gated_commits - before.gated_commits;
  d.validated_commits = validated_commits - before.validated_commits;
  d.snapshot_us = snapshot_us - before.snapshot_us;
  d.validate_us = validate_us - before.validate_us;
  d.commit_us = commit_us - before.commit_us;
  d.engine = minus(engine, before.engine);
  d.routes = minus(routes, before.routes);
  d.shapes = minus(shapes, before.shapes);
  d.dispatches = dispatches - before.dispatches;
  d.spills = spills - before.spills;
  d.spill_failures = spill_failures - before.spill_failures;
  d.max_imbalance = max_imbalance;
  return d;
}

void LayerCounters::merge(const LayerCounters& o) {
  admissions.offered += o.admissions.offered;
  admissions.admitted += o.admissions.admitted;
  admissions.rejected += o.admissions.rejected;
  admissions.deadline_missed += o.admissions.deadline_missed;
  preemption_evictions += o.preemption_evictions;
  parked += o.parked;
  conflicts += o.conflicts;
  preemption_grants += o.preemption_grants;
  delta_refreshes += o.delta_refreshes;
  full_copies += o.full_copies;
  gated_commits += o.gated_commits;
  validated_commits += o.validated_commits;
  snapshot_us += o.snapshot_us;
  validate_us += o.validate_us;
  commit_us += o.commit_us;
  engine.lookups += o.engine.lookups;
  engine.hits += o.engine.hits;
  engine.misses += o.engine.misses;
  engine.evictions += o.engine.evictions;
  engine.evicted_while_hot += o.engine.evicted_while_hot;
  engine.warm_started += o.engine.warm_started;
  engine.simulations += o.engine.simulations;
  engine.events_simulated += o.engine.events_simulated;
  engine.simulations_saved += o.engine.simulations_saved;
  engine.events_saved += o.engine.events_saved;
  routes.lookups += o.routes.lookups;
  routes.hits += o.routes.hits;
  routes.misses += o.routes.misses;
  routes.fallbacks += o.routes.fallbacks;
  routes.evictions += o.routes.evictions;
  shapes.lookups += o.shapes.lookups;
  shapes.hits += o.shapes.hits;
  shapes.misses += o.shapes.misses;
  shapes.inserts += o.shapes.inserts;
  shapes.duplicates += o.shapes.duplicates;
  shapes.evictions += o.shapes.evictions;
  shapes.anchor_probes += o.shapes.anchor_probes;
  shapes.full_fit_checks += o.shapes.full_fit_checks;
  dispatches += o.dispatches;
  spills += o.spills;
  spill_failures += o.spill_failures;
  max_imbalance = std::max(max_imbalance, o.max_imbalance);
}

}  // namespace bench
