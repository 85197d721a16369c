#pragma once

// Step probe: times the public core::run_step1 .. run_step4 once each on
// a private copy of sampled mapper inputs. Probe figures are not a copy of
// the mapper's refinement loop (one round, no feedback, no verify engine
// or route cache, so step 4 runs cold) and are never compared with mapper
// output.

#include <vector>

#include "tracing.hpp"

namespace bench {

struct ProbeFigures {
  std::vector<double> step1_us;
  std::vector<double> step2_us;
  std::vector<double> step2_iterations;
  std::vector<double> step3_us;
  std::vector<double> step3_hops;
  std::vector<double> step4_cold_us;
};

[[nodiscard]] ProbeFigures run_step_probe(const std::vector<ProbeInput>& inputs);

}  // namespace bench
