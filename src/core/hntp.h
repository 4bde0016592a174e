#ifndef ATPM_CORE_HNTP_H_
#define ATPM_CORE_HNTP_H_

#include "common/rng.h"
#include "common/status.h"
#include "core/hatp.h"
#include "core/policy.h"
#include "core/profit.h"

namespace atpm {

/// HNTP shares HATP's option set (including the embedded SamplingOptions);
/// the alias names the nonadaptive tailoring at call sites.
using HntpOptions = HatpOptions;

/// Output of RunHntp: the adaptive result shape. `seeds` is the batch to
/// deploy all at once; nothing is observed, so the realized_* fields stay
/// 0 and no step is kSkippedActivated.
using HntpResult = AdaptiveRunResult;

/// HNTP — the nonadaptive tailoring of HATP (Section VI-A). Identical
/// estimation machinery (fresh hybrid-error RR pools per candidate — one
/// shared batched pool per round by default, C'1/C'2 stopping, adaptive ε/ζ
/// schedule), but no seeding feedback: the graph is
/// never updated, previously *selected* seeds stay in the graph, so the
/// front estimate is the true conditional coverage Cov(u_i | S_{i-1}) and
/// the rear base T_{i-1} \ {u_i} includes the selected seeds. The whole
/// batch is returned for one-shot deployment.
///
/// Reuses HatpOptions; n_i = n throughout. Samples through `engine` when
/// given (must be bound to problem.graph and options.model), otherwise
/// through the backend selected by options.sampling.
Result<HntpResult> RunHntp(const ProfitProblem& problem,
                           const HatpOptions& options, Rng* rng,
                           SamplingEngine* engine = nullptr);

}  // namespace atpm

#endif  // ATPM_CORE_HNTP_H_
