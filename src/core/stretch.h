// Maximum stretch for DAG jobs (paper Section 7, Remarks).
//
// For sequential jobs, max stretch is max weighted flow with weight =
// 1/processing-time.  For DAG jobs "processing time" has two natural
// readings, both captured by weighted flow time and hence by BWF:
//   * by-work: w_i = 1/W_i   (stretch relative to total computation),
//   * by-span: w_i = 1/P_i   (stretch relative to the job's inherent
//     critical-path length — the best possible flow on any machine).
// Since BWF is (1+eps)-speed O(1/eps^2)-competitive for weighted max flow
// and strong lower bounds exist without augmentation, running BWF with
// these weights is essentially the best possible online strategy for
// maximum stretch in either interpretation.
#pragma once

#include "src/core/job_source.h"
#include "src/core/types.h"

namespace pjsched::core {

enum class StretchKind {
  kByWork,  ///< F_i / W_i
  kBySpan,  ///< F_i / P_i
};

/// The stretch denominator of one job under the chosen interpretation.
double stretch_denominator(const JobSpec& job, StretchKind kind);

/// Overwrites every job's weight with 1/denominator so that BWF (or any
/// weighted-flow scheduler) optimizes max stretch of the given kind.
void apply_stretch_weights(Instance& instance, StretchKind kind);

/// max_i F_i / denom_i for a finished schedule (uses the instance's DAGs,
/// not its weights, so it is meaningful regardless of what weights the
/// scheduler saw).
double max_stretch(const Instance& instance, const StreamRunResult& result,
                   StretchKind kind);

}  // namespace pjsched::core
