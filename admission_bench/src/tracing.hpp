#pragma once

// Tracing for the traced run: spans recorded in memory around calls into
// the program's public functions, written at the end as Chrome
// trace-event JSON, plus the core::Mapper decorator that records every
// mapper.map call and samples (app, base) inputs for the step probe.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "arch/platform.hpp"
#include "core/mapper.hpp"
#include "core/resource_state.hpp"
#include "kpn/application.hpp"
#include "measure.hpp"
#include "util/rng.hpp"

namespace bench {

/// One timed call. Spans of one admission request share @p key (the
/// address of the application object the manager maps), which is how a
/// mapper.map span on a dispatcher thread finds the request that caused
/// it; spans without a key nest by thread and time.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;
  const void* key = nullptr;
  /// mapper.map: the call found a mapping. request: admitted.
  bool ok = true;
  /// mapper.map: refinement rounds the call ran.
  std::uint32_t rounds = 0;
};

/// Thread-safe in-memory span log.
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  /// Spans are kept only while recording (the timed phase of a traced
  /// pass), so warm-up calls do not count.
  void set_recording(bool on) { recording_.store(on); }
  [[nodiscard]] bool recording() const { return recording_.load(); }

  void record(const char* name, Clock::time_point start, Clock::time_point end,
              const void* key = nullptr, bool ok = true,
              std::uint32_t rounds = 0);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Small dense id of the calling thread (Chrome "tid").
  static std::uint32_t thread_index();

 private:
  Clock::time_point epoch_;
  std::atomic<bool> recording_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// A mapper input kept for the step probe. The platform is held so the
/// copied ResourceState's platform reference stays valid after its pass.
struct ProbeInput {
  std::shared_ptr<const rtsm::arch::Platform> platform;
  rtsm::kpn::Application app;
  rtsm::core::ResourceState base;
};

/// Seeded uniform reservoir of mapper inputs (Vitter's algorithm R).
class ProbeSampler {
 public:
  ProbeSampler(std::size_t capacity, std::uint64_t seed)
      : capacity_(capacity), rng_(seed) {}

  void offer(const std::shared_ptr<const rtsm::arch::Platform>& platform,
             const rtsm::kpn::Application& app,
             const rtsm::core::ResourceState& base);

  [[nodiscard]] std::vector<ProbeInput> take();

 private:
  std::size_t capacity_;
  std::mutex mutex_;
  rtsm::Rng rng_;
  std::uint64_t seen_ = 0;
  std::vector<ProbeInput> inputs_;
};

/// core::Mapper decorator passed in as ManagerOptions.mapper: forwards
/// every virtual to the wrapped mapper, so admissions, mode switches,
/// preemption re-plans and the stats surfaces all see the same engine and
/// route cache, and records one mapper.map span per call.
class TracingMapper final : public rtsm::core::Mapper {
 public:
  TracingMapper(std::shared_ptr<const rtsm::core::Mapper> inner,
                std::shared_ptr<const rtsm::arch::Platform> platform,
                Tracer& tracer, ProbeSampler& sampler)
      : inner_(std::move(inner)),
        platform_(std::move(platform)),
        tracer_(&tracer),
        sampler_(&sampler) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::string describe() const override {
    return inner_->describe();
  }

  using Mapper::map;
  [[nodiscard]] rtsm::core::MappingResult map(
      const rtsm::kpn::Application& app,
      const rtsm::core::ResourceState& base) const override;
  [[nodiscard]] rtsm::core::MappingResult map(
      const rtsm::kpn::Application& app, const rtsm::core::ResourceState& base,
      const rtsm::core::CancelToken* cancel) const override;

  [[nodiscard]] std::shared_ptr<rtsm::verify::Engine> verification_engine()
      const override {
    return inner_->verification_engine();
  }
  [[nodiscard]] std::shared_ptr<rtsm::noc::RouteCache> route_cache()
      const override {
    return inner_->route_cache();
  }

 private:
  void after_call(const rtsm::kpn::Application& app,
                  const rtsm::core::ResourceState& base, Clock::time_point start,
                  const rtsm::core::MappingResult& result) const;

  std::shared_ptr<const rtsm::core::Mapper> inner_;
  std::shared_ptr<const rtsm::arch::Platform> platform_;
  Tracer* tracer_;
  ProbeSampler* sampler_;
};

/// Self time of one span kind: its durations minus the part of each
/// interval its child spans cover.
struct SelfTime {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Attributes every mapper.map span to the request, release or switch
/// span that caused it (same key, else same thread, containing interval)
/// and sums self time per span name.
[[nodiscard]] std::vector<SelfTime> self_times(const std::vector<Span>& spans);

/// Writes @p spans as Chrome trace-event JSON ("X" complete events).
/// Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans);

}  // namespace bench
