#ifndef CCUBE_UTIL_LOGGING_H_
#define CCUBE_UTIL_LOGGING_H_

/**
 * @file
 * Lightweight logging and error-reporting facilities.
 *
 * Follows the gem5 convention of separating fatal (user-visible
 * configuration errors) from panic (internal invariant violations).
 */

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

namespace ccube {
namespace util {

/** Severity levels for log messages. */
enum class LogLevel {
    kDebug = 0,
    kInfo = 1,
    kWarn = 2,
    kError = 3,
    kNone = 4,
};

/**
 * Global logging configuration.
 *
 * Minimal by design: a single process-wide level gate plus an optional
 * sink override used by the tests to capture output. Thread-safe: the
 * level/sink are atomics and line emission is serialized, so rank
 * threads may log concurrently with a reconfiguration.
 */
class Logger
{
  public:
    /** Returns the process-wide logger instance. */
    static Logger& instance();

    /** Sets the minimum severity that will be emitted. */
    void setLevel(LogLevel level)
    {
        level_.store(level, std::memory_order_relaxed);
    }

    /** Redirects output to the given stream (not owned); null restores
     *  std::cerr. */
    void setSink(std::ostream* sink)
    {
        sink_.store(sink, std::memory_order_release);
    }

    /** Emits one formatted log line if @p level passes the gate. */
    void log(LogLevel level, std::string_view tag, std::string_view msg);

  private:
    Logger() = default;

    std::atomic<LogLevel> level_{LogLevel::kWarn};
    std::atomic<std::ostream*> sink_{nullptr};
};

/** Emits a debug-level message under @p tag. */
void logDebug(std::string_view tag, std::string_view msg);

/** Emits an info-level message under @p tag. */
void logInfo(std::string_view tag, std::string_view msg);

/** Emits a warning-level message under @p tag. */
void logWarn(std::string_view tag, std::string_view msg);

/**
 * Reports an unrecoverable user-level error (bad configuration,
 * invalid arguments) and exits with status 1.
 */
[[noreturn]] void fatal(std::string_view msg);

/**
 * Reports an internal invariant violation (a library bug) and aborts.
 */
[[noreturn]] void panic(std::string_view msg);

/**
 * Checks a library invariant; panics with location info when violated.
 *
 * Unlike assert(), stays active in release builds: the collective
 * schedules rely on these checks to detect protocol violations.
 */
#define CCUBE_CHECK(cond, msg)                                              \
    do {                                                                    \
        if (!(cond)) {                                                      \
            std::ostringstream oss_;                                        \
            oss_ << __FILE__ << ":" << __LINE__ << ": CHECK failed: "       \
                 << #cond << " — " << msg;                                  \
            ::ccube::util::panic(oss_.str());                               \
        }                                                                   \
    } while (0)

} // namespace util
} // namespace ccube

#endif // CCUBE_UTIL_LOGGING_H_
