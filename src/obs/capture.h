#ifndef CCUBE_OBS_CAPTURE_H_
#define CCUBE_OBS_CAPTURE_H_

/**
 * @file
 * obs::Capture — where the calling thread's telemetry goes: one trace
 * recorder, one metric registry and one monitor. `TraceRecorder::
 * global()` and its metrics and monitor twins resolve through
 * Capture::current(): the capture the innermost ScopedCapture
 * installed on this thread, else the process capture. A sink left
 * unset (null) resolves to the enclosing capture's when installed, so
 * a trace-only capture still sends metrics and monitor data on.
 *
 * fork() and absorb() are the sweep protocol: each task records into
 * a child with private copies of the parent's enabled sinks, and the
 * parent absorbs the children in task order, reproducing a serial run
 * byte for byte.
 */

#include <memory>

namespace ccube {
namespace obs {

class MetricRegistry;
class Monitor;
class TraceRecorder;

class Capture
{
  public:
    /** Borrows the given sinks; a null sink is unset. */
    explicit Capture(TraceRecorder* trace = nullptr,
                     MetricRegistry* metrics = nullptr,
                     Monitor* monitor = nullptr);
    ~Capture();
    Capture(Capture&&) noexcept;
    Capture& operator=(Capture&&) noexcept;

    /**
     * The innermost capture installed on the calling thread, else the
     * process capture. Every sink of the result is set.
     */
    static const Capture& current();

    TraceRecorder& trace() const { return *trace_; }
    MetricRegistry& metrics() const { return *metrics_; }
    Monitor& monitor() const { return *monitor_; }

    /**
     * A child capture for one sweep task: a private, enabled sink
     * configured like this capture's for every enabled sink, and this
     * capture's own sink for every other one. Call it on a resolved
     * capture, such as current().
     */
    Capture fork() const;

    /** Merges the private sinks of @p child (from fork()) into this
     *  capture's sinks: trace, then metrics, then monitor. */
    void absorb(const Capture& child) const;

  private:
    friend class ScopedCapture;

    TraceRecorder* trace_;
    MetricRegistry* metrics_;
    Monitor* monitor_;
    std::unique_ptr<TraceRecorder> own_trace_;
    std::unique_ptr<MetricRegistry> own_metrics_;
    std::unique_ptr<Monitor> own_monitor_;
};

/**
 * RAII install: while alive, Capture::current() on this thread is
 * @p capture, its unset sinks resolved to the enclosing capture's.
 * Scopes nest. The sinks, not @p capture itself, must outlive the
 * scope.
 */
class ScopedCapture
{
  public:
    explicit ScopedCapture(const Capture& capture);
    ~ScopedCapture();

    ScopedCapture(const ScopedCapture&) = delete;
    ScopedCapture& operator=(const ScopedCapture&) = delete;

  private:
    Capture resolved_;
    const Capture* previous_;
};

} // namespace obs
} // namespace ccube

#endif // CCUBE_OBS_CAPTURE_H_
