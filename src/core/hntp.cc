#include "core/hntp.h"

namespace atpm {

Result<HntpResult> RunHntp(const ProfitProblem& problem,
                           const HatpOptions& options, Rng* rng,
                           SamplingEngine* engine) {
  // Builds the options' backend unless an engine was injected.
  SamplingEngineHandle handle;
  handle.Use(engine);
  return RunHybridDoubleGreedy("HNTP", options, problem, /*env=*/nullptr,
                               &handle, rng);
}

}  // namespace atpm
