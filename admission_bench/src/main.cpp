// Admission benchmark of the run-time manager: one workload per call, as
// many passes as fill --seconds on the reference host, pass k seeded from
// --seed and k.
//
//   admission_bench --workload mesh-churn|hiperlan-modes|fleet-open
//                   --seed N --seconds S --trace 0|1
//                   [--rate R] [--trace-out PATH]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs each pass seed twice, untraced then traced: the traced passes run
// the mapper through TracingMapper and give the per-layer metrics, the
// difference between the two kinds is the tracing overhead, and on the
// closed-loop workloads each traced pass must decide exactly as its
// untraced twin. Human-readable lines start with '#'; the last line is
// one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A failed correctness check prints its reason, reports "correct": false
// and exits with code 1.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "measure.hpp"
#include "probe.hpp"
#include "tracing.hpp"
#include "workloads.hpp"

namespace {

using namespace bench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double rate = 0.0;
  std::string trace_out = "admission_trace.json";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "admission_bench: %s\n", why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      a.trace = std::strcmp(value, "1") == 0;
    } else if (key == "--rate") {
      a.rate = std::strtod(value, nullptr);
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      usage(("unknown flag " + key).c_str());
    }
  }
  if (find_workload(a.workload) == nullptr) {
    usage("--workload must be mesh-churn, hiperlan-modes or fleet-open");
  }
  if (a.workload == "fleet-open" && a.rate <= 0.0) {
    usage("fleet-open needs --rate > 0");
  }
  if (a.seconds <= 0.0) usage("--seconds must be > 0");
  return a;
}

/// Passes of one kind (untraced or traced), merged.
struct Aggregate {
  EndToEnd e2e;
  LayerSamples layers;
  std::vector<double> setup_s;
  std::size_t passes = 0;

  void add(const PassResult& r) {
    e2e.merge(r.e2e);
    layers.merge(r.layers);
    setup_s.push_back(r.setup_s);
    ++passes;
  }
};

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

/// Peak resident set of this process image, MiB. VmHWM, not ru_maxrss:
/// the latter keeps the high-water mark of the process that exec'd us.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The end-to-end metrics BENCHMARK.json gates, in its order: the ones
/// that stay steady across seeds on every workload (measured on a shared
/// 4-core x86-64 VM). setup_s includes each pass's cold-mapper warm-up.
std::vector<Metric> end_to_end(const Aggregate& a) {
  const EndToEnd& e = a.e2e;
  return {
      {"reject_rate",
       ratio(static_cast<double>(e.rejected + e.deadline_missed),
             static_cast<double>(e.offered)),
       "share"},
      {"energy_nj_per_symbol",
       ratio(e.energy_sum, static_cast<double>(e.admitted)), "nJ"},
      {"setup_s", median(a.setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// End-to-end figures reported but not gated, because on some workload
/// they vary across seeds by about the largest bound allowed (0.25):
/// fleet-open's latency percentiles from run to run of one seed, and
/// hiperlan-modes' throughput with the rare mode-switch storms a seed's
/// schedules hold. Also the switch figures on hiperlan-modes (no other
/// workload switches modes) and the generator lag on fleet-open (a
/// validity figure).
std::vector<Metric> report_only(const Aggregate& a,
                                const WorkloadSpec& workload) {
  const EndToEnd& e = a.e2e;
  std::vector<Metric> m = {
      {"admit_p50_us", percentile(e.admit_us, 50), "us"},
      {"admit_p99_us", percentile(e.admit_us, 99), "us"},
      {"decisions_per_s", ratio(static_cast<double>(e.offered), e.timed_s),
       "1/s"},
  };
  if (std::string_view(workload.name) == "fleet-open") {
    m.push_back({"bench.generator_lag_us_p99",
                 percentile(e.generator_lag_us, 99), "us"});
  }
  if (std::string_view(workload.name) != "hiperlan-modes") return m;
  const auto switches = static_cast<double>(e.switches);
  const std::vector<Metric> s = {
      {"switch_p50_us", percentile(e.switch_us, 50), "us"},
      {"switch_p99_us", percentile(e.switch_us, 99), "us"},
      {"switch_fail_rate",
       ratio(static_cast<double>(e.switches_rolled_back +
                                 e.switches_deadline_missed +
                                 e.switches_unknown_id),
             switches),
       "share"},
  };
  m.insert(m.end(), s.begin(), s.end());
  return m;
}

std::vector<Metric> per_layer(const Aggregate& t,
                              const std::vector<Span>& spans,
                              const ProbeFigures& probe) {
  const LayerCounters& c = t.layers.counters;
  const EndToEnd& e = t.e2e;
  const auto admits = static_cast<double>(e.offered);
  const auto passes = static_cast<double>(t.passes);

  std::vector<double> map_us;
  double rounds = 0.0;
  double failed_calls = 0.0;
  double failed_us = 0.0;
  double total_us = 0.0;
  for (const Span& s : spans) {
    if (std::string_view(s.name) != "mapper.map") continue;
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    map_us.push_back(us);
    rounds += s.rounds;
    total_us += us;
    if (!s.ok) {
      failed_calls += 1.0;
      failed_us += us;
    }
  }
  const auto calls = static_cast<double>(map_us.size());
  const auto switches = static_cast<double>(e.switches);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  return {
      {"core.mapper.calls_per_admit", ratio(calls, admits), "count"},
      {"core.mapper.map_us_p50", percentile(map_us, 50), "us"},
      {"core.mapper.map_us_p99", percentile(map_us, 99), "us"},
      {"core.mapper.rounds_per_call", ratio(rounds, calls), "count"},
      {"core.mapper.failed_call_share", ratio(failed_calls, calls), "share"},
      {"core.mapper.failed_time_share", ratio(failed_us, total_us), "share"},
      {"core.step1_us", median(probe.step1_us), "us"},
      {"core.step2_us", median(probe.step2_us), "us"},
      {"core.step2_iterations", median(probe.step2_iterations), "count"},
      {"core.step3_us", median(probe.step3_us), "us"},
      {"core.step3_hops", median(probe.step3_hops), "count"},
      {"core.step4_cold_us", median(probe.step4_cold_us), "us"},
      {"verify.hit_rate", c.engine.hit_rate(), "share"},
      {"verify.simulations_per_miss",
       ratio(d(c.engine.simulations), d(c.engine.misses)), "count"},
      {"verify.events_per_miss",
       ratio(d(c.engine.events_simulated), d(c.engine.misses)), "count"},
      {"verify.evicted_while_hot", ratio(d(c.engine.evicted_while_hot), passes),
       "count"},
      {"noc.route_cache_hit_rate", c.routes.hit_rate(), "share"},
      {"noc.route_fallback_share",
       ratio(d(c.routes.fallbacks), d(c.routes.lookups)), "share"},
      {"shapes.hit_rate", c.shapes.hit_rate(), "share"},
      {"shapes.probes_per_lookup",
       ratio(d(c.shapes.anchor_probes), d(c.shapes.lookups)), "count"},
      {"shapes.hit_admit_us_p50", percentile(t.layers.shape_hit_admit_us, 50),
       "us"},
      {"shapes.miss_admit_us_p50",
       percentile(t.layers.shape_miss_admit_us, 50), "us"},
      {"core.state.snapshot_us_per_admit", ratio(c.snapshot_us, admits), "us"},
      {"core.state.delta_refresh_share",
       ratio(d(c.delta_refreshes), d(c.delta_refreshes + c.full_copies)),
       "share"},
      {"core.state.validate_us_per_admit", ratio(c.validate_us, admits), "us"},
      {"core.state.commit_us_per_admit", ratio(c.commit_us, admits), "us"},
      {"runtime.manager.gated_share",
       ratio(d(c.gated_commits), d(c.gated_commits + c.validated_commits)),
       "share"},
      {"runtime.manager.queue_wait_us_p50",
       percentile(t.layers.queue_wait_us, 50), "us"},
      {"runtime.manager.queue_wait_us_p99",
       percentile(t.layers.queue_wait_us, 99), "us"},
      {"runtime.manager.conflicts_per_admit", ratio(d(c.conflicts), admits),
       "count"},
      {"runtime.manager.release_us_p50", percentile(t.layers.release_us, 50),
       "us"},
      {"runtime.manager.preemption_grants",
       ratio(d(c.preemption_grants), passes), "count"},
      {"runtime.mode_switch.in_place_share",
       ratio(d(e.switches_in_place), switches), "share"},
      {"runtime.mode_switch.replanned_share",
       ratio(d(e.switches_replanned), switches), "share"},
      {"runtime.mode_switch.rollback_share",
       ratio(d(e.switches_rolled_back), switches), "share"},
      {"runtime.fleet.spills_per_admit",
       ratio(d(c.spills), d(c.dispatches)), "count"},
      {"runtime.fleet.spill_failure_share",
       ratio(d(c.spill_failures), d(c.dispatches)), "share"},
      {"runtime.fleet.max_imbalance", c.max_imbalance, "share"},
  };
}

void print_metrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("# %s\n", heading);
  for (const Metric& m : metrics) {
    std::printf("#   %-36s %14.3f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_samples(const Aggregate& a) {
  const EndToEnd& e = a.e2e;
  std::printf(
      "# samples: %zu passes, %llu admission requests (%llu admitted, %llu "
      "rejected, %llu deadline-missed), p99 has %zu samples beyond it; "
      "%llu releases; %llu switches; %.3f s timed\n",
      a.passes, static_cast<unsigned long long>(e.offered),
      static_cast<unsigned long long>(e.admitted),
      static_cast<unsigned long long>(e.rejected),
      static_cast<unsigned long long>(e.deadline_missed),
      e.admit_us.size() / 100, static_cast<unsigned long long>(e.releases),
      static_cast<unsigned long long>(e.switches), e.timed_s);
}

/// Whether fleet-open keeps up with its arrival rate: queue wait of the
/// requests due in the first half of the timed window against the second.
void print_backlog(const Aggregate& a) {
  const LayerSamples& l = a.layers;
  std::printf(
      "# backlog check: queue wait p50 %.1f -> %.1f us, p99 %.1f -> %.1f us "
      "(requests due in the first half of the window -> the second half; "
      "%zu -> %zu requests)\n",
      percentile(l.queue_wait_early_us, 50),
      percentile(l.queue_wait_late_us, 50),
      percentile(l.queue_wait_early_us, 99),
      percentile(l.queue_wait_late_us, 99), l.queue_wait_early_us.size(),
      l.queue_wait_late_us.size());
}

/// What the traced fleet-open run says about where the wall-clock goes:
/// failed mapper calls (first choices and spill-over retries that found
/// no placement) against queue wait.
void print_fleet_split(const Aggregate& t, const std::vector<Span>& spans,
                       double dispatchers) {
  double failed_ms = 0.0;
  double map_ms = 0.0;
  for (const Span& s : spans) {
    if (std::string_view(s.name) != "mapper.map") continue;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    map_ms += ms;
    if (!s.ok) failed_ms += ms;
  }
  double latency_ms = 0.0;
  double wait_ms = 0.0;
  for (const double us : t.e2e.admit_us) latency_ms += us / 1e3;
  for (const double us : t.layers.queue_wait_us) wait_ms += us / 1e3;
  const double dispatcher_ms = t.e2e.timed_s * 1e3 * dispatchers;
  std::printf(
      "# fleet split: failed mapper calls %.1f ms = %.1f%% of dispatcher "
      "wall-clock (%.0f ms), %.1f%% of mapper time; queue wait %.1f ms = "
      "%.1f%% of summed submit->resolve time (%.1f ms)\n",
      failed_ms, 100.0 * ratio(failed_ms, dispatcher_ms), dispatcher_ms,
      100.0 * ratio(failed_ms, map_ms), wait_ms,
      100.0 * ratio(wait_ms, latency_ms), latency_ms);
}

/// {"name": {"value": v, "unit": u}, ...} with every digit of each value.
std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[96];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "{\"value\": %.17g, \"unit\": ",
                  metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": " + buf + "\"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(metrics).c_str());
}

int run(const Args& args) {
  const WorkloadSpec& workload = *find_workload(args.workload);
  const auto run_start = Clock::now();
  Tracer tracer(run_start);
  ProbeSampler sampler(12, args.seed);
  Checks checks;
  Aggregate untraced;
  Aggregate traced;
  Digest run_digest;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // A fixed pass count (not a deadline) keeps the work of a seed the same
  // on any host. A traced run spends the same time on pairs: each pass
  // seed once untraced, once traced.
  const double per_seed = args.trace ? 2.0 : 1.0;
  const auto seeds = static_cast<std::size_t>(std::max(
      1.0, std::round(args.seconds / (workload.nominal_pass_s * per_seed))));
  for (std::size_t k = 0; k < seeds && checks.ok(); ++k) {
    std::uint64_t digest = 0;
    for (const bool traced_pass : {false, true}) {
      if (traced_pass && !args.trace) break;
      PassConfig config;
      config.seed = pass_seed(args.seed, k);
      config.traced = traced_pass;
      config.tracer = &tracer;
      config.sampler = &sampler;
      config.rate_per_s = args.rate;
      const PassResult r = workload.run(config, checks);
      (traced_pass ? traced : untraced).add(r);
      attempted += r.attempted;
      failed += r.failed;
      if (!traced_pass) {
        digest = r.digest;
        run_digest.add(r.digest);
      } else if (workload.deterministic && r.digest != digest) {
        checks.fail("traced pass " + std::to_string(k) +
                    " decided differently from its untraced twin");
      }
    }
  }

  std::printf("# workload %s, seed %llu, %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced run" : "untraced run");
  print_samples(untraced);
  const std::vector<Metric> e2e = end_to_end(untraced);
  const std::vector<Metric> extra = report_only(untraced, workload);
  print_metrics("end-to-end, gated (untraced passes)", e2e);
  print_metrics("end-to-end, reported (untraced passes)", extra);
  if (args.workload == "fleet-open") print_backlog(untraced);
  std::vector<Metric> all = extra;
  all.insert(all.end(), e2e.begin(), e2e.end());
  std::printf("# all-metrics %s\n", metrics_json(all).c_str());
  if (workload.deterministic) {
    std::printf("# decision digest %016llx over %zu pass seeds%s\n",
                static_cast<unsigned long long>(run_digest.value()),
                untraced.passes,
                args.trace ? "; traced twins decided identically" : "");
  }

  std::vector<Metric> reported = e2e;
  if (args.trace) {
    const std::vector<Span> spans = tracer.spans();
    const ProbeFigures probe = run_step_probe(sampler.take());
    print_samples(traced);
    // admit_p50_us, admit_p99_us, decisions_per_s: traced - untraced.
    const std::vector<Metric> with = report_only(traced, workload);
    std::printf("# tracing overhead (traced - untraced):\n");
    for (std::size_t i = 0; i < 3; ++i) {
      std::printf("#   %-36s %+14.3f %s\n", extra[i].name.c_str(),
                  with[i].value - extra[i].value, extra[i].unit.c_str());
    }
    std::printf("# self time per span (traced passes):\n");
    for (const SelfTime& s : self_times(spans)) {
      std::printf("#   %-14s %8llu spans %12.3f ms total %12.3f ms self\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.count),
                  s.total_ms, s.self_ms);
    }
    std::printf("# step probe over %zu sampled mapper inputs (probe figures, "
                "step 4 cold)\n",
                probe.step1_us.size());
    if (args.workload == "fleet-open") {
      print_fleet_split(traced, spans, kFleetDispatchers);
    }
    reported = per_layer(traced, spans, probe);
    print_metrics("per-layer (traced passes)", reported);
    if (!write_chrome_trace(args.trace_out, spans)) {
      checks.fail("cannot write trace file " + args.trace_out);
    } else {
      std::printf("# wrote %zu spans to %s\n", spans.size(),
                  args.trace_out.c_str());
    }
  }

  for (const std::string& f : checks.failures) {
    std::printf("# CHECK FAILED: %s\n", f.c_str());
  }
  print_json(checks.ok(), attempted, failed, reported);
  if (!checks.ok()) {
    std::fprintf(stderr, "admission_bench: %zu correctness check(s) failed\n",
                 checks.failures.size());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "admission_bench: %s\n", e.what());
    return 1;
  }
}
