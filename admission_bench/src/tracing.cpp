#include "tracing.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace bench {

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, const void* key, bool ok,
                    std::uint32_t rounds) {
  if (!recording()) return;
  Span span;
  span.name = name;
  span.start_ns = ns(start);
  span.end_ns = ns(end);
  span.tid = thread_index();
  span.key = key;
  span.ok = ok;
  span.rounds = rounds;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::uint32_t Tracer::thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

void ProbeSampler::offer(
    const std::shared_ptr<const rtsm::arch::Platform>& platform,
    const rtsm::kpn::Application& app, const rtsm::core::ResourceState& base) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++seen_;
  if (inputs_.size() < capacity_) {
    inputs_.push_back({platform, app, base});
    return;
  }
  const auto slot = static_cast<std::uint64_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(seen_) - 1));
  if (slot < capacity_) inputs_[slot] = ProbeInput{platform, app, base};
}

std::vector<ProbeInput> ProbeSampler::take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::move(inputs_);
}

rtsm::core::MappingResult TracingMapper::map(
    const rtsm::kpn::Application& app,
    const rtsm::core::ResourceState& base) const {
  const auto start = Clock::now();
  rtsm::core::MappingResult result = inner_->map(app, base);
  after_call(app, base, start, result);
  return result;
}

rtsm::core::MappingResult TracingMapper::map(
    const rtsm::kpn::Application& app, const rtsm::core::ResourceState& base,
    const rtsm::core::CancelToken* cancel) const {
  const auto start = Clock::now();
  rtsm::core::MappingResult result = inner_->map(app, base, cancel);
  after_call(app, base, start, result);
  return result;
}

void TracingMapper::after_call(const rtsm::kpn::Application& app,
                               const rtsm::core::ResourceState& base,
                               Clock::time_point start,
                               const rtsm::core::MappingResult& result) const {
  const auto end = Clock::now();
  if (!tracer_->recording()) return;
  tracer_->record("mapper.map", start, end, &app, result.success,
                  result.rounds);
  sampler_->offer(platform_, app, base);
}

std::vector<SelfTime> self_times(const std::vector<Span>& spans) {
  // Parent candidates per key and per thread, sorted by start time.
  std::vector<const Span*> parents;
  std::vector<const Span*> children;
  for (const Span& s : spans) {
    (std::string_view(s.name) == "mapper.map" ? children : parents)
        .push_back(&s);
  }
  std::multimap<const void*, const Span*> by_key;
  std::map<std::uint32_t, std::vector<const Span*>> by_thread;
  for (const Span* p : parents) {
    if (p->key != nullptr) by_key.emplace(p->key, p);
    by_thread[p->tid].push_back(p);
  }
  for (auto& [tid, list] : by_thread) {
    std::sort(list.begin(), list.end(), [](const Span* a, const Span* b) {
      return a->start_ns < b->start_ns;
    });
  }
  const auto contains = [](const Span* parent, const Span* child) {
    return parent->start_ns <= child->start_ns &&
           child->end_ns <= parent->end_ns;
  };

  std::map<const Span*, double> covered_ns;
  for (const Span* c : children) {
    const Span* owner = nullptr;
    auto [lo, hi] = by_key.equal_range(c->key);
    for (auto it = lo; it != hi && owner == nullptr; ++it) {
      if (contains(it->second, c)) owner = it->second;
    }
    if (owner == nullptr) {
      const auto found = by_thread.find(c->tid);
      if (found != by_thread.end()) {
        const auto& list = found->second;
        auto it = std::upper_bound(
            list.begin(), list.end(), c->start_ns,
            [](std::int64_t t, const Span* s) { return t < s->start_ns; });
        if (it != list.begin() && contains(*(it - 1), c)) owner = *(it - 1);
      }
    }
    if (owner != nullptr) {
      covered_ns[owner] += static_cast<double>(c->end_ns - c->start_ns);
    }
  }

  std::map<std::string, SelfTime> by_name;
  for (const Span& s : spans) {
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    const auto covered = covered_ns.find(&s);
    const double child = covered == covered_ns.end() ? 0.0 : covered->second;
    t.total_ms += dur / 1e6;
    t.self_ms += std::max(0.0, dur - child) / 1e6;
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"key\": \"%p\", "
                 "\"ok\": %s, \"rounds\": %u}}%s\n",
                 s.name, s.tid, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.key,
                 s.ok ? "true" : "false", s.rounds,
                 i + 1 == spans.size() ? "" : ",");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace bench
