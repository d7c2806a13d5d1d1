#ifndef CCUBE_OBS_REPORT_H_
#define CCUBE_OBS_REPORT_H_

/**
 * @file
 * Human-readable analysis report over a trace capture.
 *
 * `writeAnalysisReport` runs the full obs::TraceAnalyzer pipeline —
 * channel utilization, idle intervals, α-β fit, critical path — and
 * renders the result as an aligned text report. It is what
 * `--report-out=FILE` produces at the end of an instrumented run, and
 * what the integration tests assert against.
 */

#include <iosfwd>

#include "model/alpha_beta.h"

namespace ccube {
namespace obs {

class MetricRegistry;
class TraceAnalyzer;

/**
 * Writes the full analysis report for @p analyzer to @p out. When
 * @p registry is non-null its counters are appended as a final
 * section (trace drop accounting, rank counters, ...). When
 * @p reference is set, the α-β fit section reports relative error
 * against this configured model (sim-vs-model divergence).
 */
void writeAnalysisReport(std::ostream& out,
                         const TraceAnalyzer& analyzer,
                         const MetricRegistry* registry = nullptr,
                         const model::AlphaBeta* reference = nullptr);

} // namespace obs
} // namespace ccube

#endif // CCUBE_OBS_REPORT_H_
