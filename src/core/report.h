#ifndef CCUBE_CORE_REPORT_H_
#define CCUBE_CORE_REPORT_H_

/**
 * @file
 * Report helpers shared by the benchmark harnesses: uniform table
 * rows for iteration results and communication schedules.
 */

#include <string>
#include <vector>

#include "core/ccube_engine.h"
#include "util/table.h"

namespace ccube {

namespace obs {
class TraceAnalyzer;
struct CriticalPath;
}

namespace core {

/** Column headers for iteration-result tables. */
util::Table makeIterationTable();

/** Appends one iteration result as a row. */
void addIterationRow(util::Table& table, const std::string& workload,
                     const std::string& bandwidth, int batch, Mode mode,
                     const IterationResult& result);

/** Column headers for communication-schedule tables. */
util::Table makeCommTable();

/** Appends one communication result as a row. */
void addCommRow(util::Table& table, const std::string& algorithm,
                double bytes, const simnet::ScheduleResult& schedule);

/**
 * Column headers for channel-class utilization tables (one row per
 * direction class of a schedule — e.g. the up- and down-channels of a
 * tree — from a trace analysis).
 */
util::Table makeChannelClassTable();

/**
 * Appends the aggregate utilization of @p channel_ids (a direction
 * class of @p schedule) over the analyzer's channel window. Channels
 * that carried no traffic are skipped, matching
 * obs::TraceAnalyzer::idleFraction.
 */
void addChannelClassRow(util::Table& table, const std::string& schedule,
                        const std::string& channel_class,
                        const obs::TraceAnalyzer& analyzer,
                        const std::vector<int>& channel_ids);

/**
 * Column headers for latency-quantile tables (one row per labeled
 * sample set — e.g. recovery times across fault scenarios).
 */
util::Table makeQuantileTable();

/**
 * Appends count/min/p50/p90/p99/max of @p samples_ms as a row.
 * Sorts @p samples_ms in place (one sort serves every quantile —
 * no per-quantile copies).
 */
void addQuantileRow(util::Table& table, const std::string& label,
                    std::vector<double>& samples_ms);

/** Column headers for critical-path cost-breakdown tables. */
util::Table makeCostBreakdownTable();

/** Appends one extracted critical path's attribution as a row. */
void addCostBreakdownRow(util::Table& table, const std::string& label,
                         const obs::CriticalPath& path);

} // namespace core
} // namespace ccube

#endif // CCUBE_CORE_REPORT_H_
