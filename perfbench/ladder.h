#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

/**
 * @file
 * Helpers of the perf ladder that carry no workload logic, so the
 * self-test can check them in isolation: sample statistics (median and
 * the tail-percentile rule), seeded integer-valued AllReduce inputs with
 * an exact-sum oracle, the simulated-timestamp digest, the host
 * fingerprint, and a minimal JSON writer.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Median of @p samples (mean of the middle pair when even); 0 if empty. */
double median(std::vector<double> samples);

/**
 * The reported tail: the highest percentile from a fixed ladder
 * (99.9, 99, 95, 90, 75, 50) whose nearest-rank sample has at least
 * ten samples strictly beyond it. With fewer than 20 samples no
 * percentile qualifies and the median is reported with `beyond` < 10.
 */
struct TailPick {
    double percentile = 0.0; ///< e.g. 99.0
    double value = 0.0;      ///< the sample at that percentile
    std::size_t beyond = 0;  ///< samples strictly above its rank
    std::size_t n = 0;       ///< sample count
};

TailPick pickTail(std::vector<double> samples);

/**
 * Seeded integer-valued AllReduce inputs: every element of every rank
 * is an integer in [-8, 8], so any summation order is exact in float
 * and the expected result is known element by element.
 */
class ExactInputs
{
  public:
    /**
     * Refills @p buffers (ranks × elems, already sized) from @p seed and
     * records the elementwise sum the AllReduce must produce.
     */
    void fill(std::vector<std::vector<float>>& buffers, std::uint64_t seed);

    /**
     * Number of (rank, element) positions of @p buffers that differ from
     * the recorded sum, or that have the wrong shape; 0 means exact.
     */
    std::size_t mismatches(
        const std::vector<std::vector<float>>& buffers) const;

  private:
    std::vector<float> expected_;
};

/** FNV-1a digest over the exact bit patterns of simulated results. */
class Digest
{
  public:
    void add(double value);
    void add(std::uint64_t value);
    std::uint64_t value() const { return hash_; }
    std::string hex() const;

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** What a result was measured on; absolute numbers compare only within
 *  one fingerprint. */
struct Fingerprint {
    int cores = 0;
    std::string cpu;
    std::string compiler;
    std::string build_type;

    static Fingerprint current(const char* build_type);
    std::string json() const;
};

/** JSON string literal for @p text (quotes and escapes included). */
std::string jsonString(const std::string& text);

/** Number with all significant digits ("null" if not finite). */
std::string jsonNumber(double value);

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** CPU seconds consumed by the whole process so far. */
double processCpuSeconds();

/** CPU seconds consumed by the calling thread so far. */
double threadCpuSeconds();

/** CPU seconds the hypervisor has taken from this machine's CPUs
 *  (steal time, all CPUs summed; 0 where /proc/stat is missing). */
double hostStealSeconds();

} // namespace perfbench

#endif // PERFBENCH_LADDER_H_
