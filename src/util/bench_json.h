#ifndef CCUBE_UTIL_BENCH_JSON_H_
#define CCUBE_UTIL_BENCH_JSON_H_

/**
 * @file
 * Machine-readable benchmark output (BENCH_ccl.json).
 *
 * Records performance samples in a stable, diff- and before/after-
 * friendly schema so CI can archive the perf trajectory:
 *
 *   {"schema": "bench_ccl/v1",
 *    "records": [
 *      {"source": "micro_primitives", "kind": "allreduce_latency",
 *       "name": "double_tree", "mode": "persistent", "bytes": 65536,
 *       "ns_per_op": 123456.0, "extra": {...}},
 *      ...]}
 *
 * Several binaries contribute to one file: writeBenchRecords() in
 * append mode splices new records into the existing array (the file
 * format is fully controlled by this writer, so the splice is exact).
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ccube {
namespace util {

/** One benchmark sample. */
struct BenchRecord {
    std::string source; ///< emitting binary, e.g. "micro_primitives"
    std::string kind;   ///< e.g. "allreduce_latency"
    std::string name;   ///< algorithm / strategy under test
    std::string mode;   ///< engine, e.g. "persistent" or "statemachine"
    std::int64_t bytes = 0;  ///< message size (0 when not applicable)
    double ns_per_op = 0.0;  ///< nanoseconds per operation
    std::map<std::string, double> extra; ///< free-form numeric fields
};

/**
 * Writes @p records to @p path in the bench_ccl/v1 schema. With
 * @p append true and an existing bench_ccl/v1 file at @p path, the
 * records are merged into its array; otherwise the file is replaced.
 */
void writeBenchRecords(const std::string& path,
                       const std::vector<BenchRecord>& records,
                       bool append);

/**
 * Reads a bench_ccl/v1 file back into records. Tolerates whitespace
 * variations but expects this writer's schema; unknown keys are
 * ignored. Returns an empty vector (with a warning) when @p path is
 * missing or not bench_ccl/v1.
 */
std::vector<BenchRecord> readBenchRecords(const std::string& path);

/** Resolves the output path: $CCUBE_BENCH_OUT or "BENCH_ccl.json". */
std::string benchOutputPath();

/** Resolves the output path: $CCUBE_BENCH_OUT or @p fallback. */
std::string benchOutputPath(const std::string& fallback);

} // namespace util
} // namespace ccube

#endif // CCUBE_UTIL_BENCH_JSON_H_
