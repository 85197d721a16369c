#include "probe.hpp"

#include "core/channel_routing.hpp"
#include "core/feasibility.hpp"
#include "core/feedback.hpp"
#include "core/implementation_selection.hpp"
#include "core/mapping_context.hpp"
#include "core/spatial_mapper.hpp"
#include "core/tile_assignment.hpp"

namespace bench {

ProbeFigures run_step_probe(const std::vector<ProbeInput>& inputs) {
  const rtsm::core::MapperConfig config;  // default step options
  ProbeFigures f;
  for (const ProbeInput& input : inputs) {
    rtsm::core::ResourceState state = input.base;
    rtsm::core::Mapping mapping(input.app.process_count(),
                                input.app.channel_count());
    const rtsm::core::FeedbackSet feedback;
    rtsm::core::MappingTrace trace;
    rtsm::core::MappingTrace::Round& round = trace.rounds.emplace_back();
    rtsm::core::MappingContext ctx{input.app, *input.platform, state,
                                   feedback,  config.energy,   mapping,
                                   round};

    auto start = Clock::now();
    const rtsm::core::Step1Outcome s1 = rtsm::core::run_step1(ctx, config.step1);
    f.step1_us.push_back(us_between(start, Clock::now()));
    if (!s1.success) continue;

    start = Clock::now();
    rtsm::core::run_step2(ctx, config.step2);
    f.step2_us.push_back(us_between(start, Clock::now()));
    f.step2_iterations.push_back(static_cast<double>(round.step2.records.size()));

    start = Clock::now();
    const rtsm::core::Step3Outcome s3 = rtsm::core::run_step3(ctx, config.step3);
    f.step3_us.push_back(us_between(start, Clock::now()));
    double hops = 0.0;
    for (const rtsm::core::Step3Record& r : round.step3) {
      hops += static_cast<double>(r.rr_hops);
    }
    f.step3_hops.push_back(hops);
    if (!s3.success) continue;

    start = Clock::now();
    (void)rtsm::core::run_step4(ctx, config.step4);
    f.step4_cold_us.push_back(us_between(start, Clock::now()));
  }
  return f;
}

}  // namespace bench
