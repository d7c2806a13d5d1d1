#ifndef CCUBE_UTIL_UNITS_H_
#define CCUBE_UTIL_UNITS_H_

/**
 * @file
 * Strongly named unit helpers for bytes, seconds, and bandwidth.
 *
 * The α-β cost model (§II-C of the paper) mixes latencies in
 * microseconds, sizes in MB, and bandwidths in GB/s; these helpers keep
 * the arithmetic in base SI units (bytes, seconds, bytes/second) and
 * provide readable constructors and formatters.
 */

#include <cstdint>
#include <string>

namespace ccube {
namespace util {

/** Number of bytes in one kibibyte. */
inline constexpr double kKiB = 1024.0;
/** Number of bytes in one mebibyte. */
inline constexpr double kMiB = 1024.0 * 1024.0;
/** Number of bytes in one gibibyte. */
inline constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

/** Converts kibibytes to bytes. */
constexpr double kib(double v) { return v * kKiB; }
/** Converts mebibytes to bytes. */
constexpr double mib(double v) { return v * kMiB; }
/** Converts gibibytes to bytes. */
constexpr double gib(double v) { return v * kGiB; }

/** Converts microseconds to seconds. */
constexpr double usec(double v) { return v * 1e-6; }

/** Converts GB/s (decimal, as vendors quote NVLink) to bytes/second. */
constexpr double gbps(double v) { return v * 1e9; }

/** Formats a byte count with a binary suffix, e.g. "64.0 MiB". */
std::string formatBytes(double bytes);

/** Formats a duration with an appropriate suffix, e.g. "12.3 us". */
std::string formatSeconds(double seconds);

/** Formats a bandwidth in GB/s with 2 decimals, e.g. "23.41 GB/s". */
std::string formatBandwidth(double bytes_per_second);

} // namespace util
} // namespace ccube

#endif // CCUBE_UTIL_UNITS_H_
