#include "obs/capture.h"

#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/trace.h"

namespace ccube {
namespace obs {

namespace {

/** Innermost capture installed by ScopedCapture on this thread. */
thread_local const Capture* t_current = nullptr;

/**
 * The process-wide sinks. Never destroyed: pool threads and objects
 * torn down during static destruction (the profiler, the shared
 * state-machine engine) may still reach them.
 */
const Capture&
processCapture()
{
    static const Capture* capture = new Capture(
        new TraceRecorder(), new MetricRegistry(), new Monitor());
    return *capture;
}

} // namespace

Capture::Capture(TraceRecorder* trace, MetricRegistry* metrics,
                 Monitor* monitor)
    : trace_(trace), metrics_(metrics), monitor_(monitor)
{
}

Capture::~Capture() = default;
Capture::Capture(Capture&&) noexcept = default;
Capture& Capture::operator=(Capture&&) noexcept = default;

const Capture&
Capture::current()
{
    return t_current ? *t_current : processCapture();
}

Capture
Capture::fork() const
{
    Capture child(trace_, metrics_, monitor_);
    if (trace_->enabled()) {
        child.own_trace_ = std::make_unique<TraceRecorder>();
        child.own_trace_->setCapacity(trace_->capacity());
        child.own_trace_->enable();
        child.trace_ = child.own_trace_.get();
    }
    if (metrics_->enabled()) {
        child.own_metrics_ = std::make_unique<MetricRegistry>();
        child.own_metrics_->enable();
        child.metrics_ = child.own_metrics_.get();
    }
    if (monitor_->enabled()) {
        child.own_monitor_ = std::make_unique<Monitor>();
        child.own_monitor_->setInterval(monitor_->interval());
        child.own_monitor_->setSlo(monitor_->slo());
        child.own_monitor_->enable();
        child.monitor_ = child.own_monitor_.get();
    }
    return child;
}

void
Capture::absorb(const Capture& child) const
{
    if (child.own_trace_)
        trace_->absorb(*child.own_trace_);
    if (child.own_metrics_)
        metrics_->absorb(*child.own_metrics_);
    if (child.own_monitor_)
        monitor_->absorb(*child.own_monitor_);
}

ScopedCapture::ScopedCapture(const Capture& capture)
    : previous_(t_current)
{
    const Capture& enclosing = Capture::current();
    resolved_.trace_ = capture.trace_ ? capture.trace_ : enclosing.trace_;
    resolved_.metrics_ =
        capture.metrics_ ? capture.metrics_ : enclosing.metrics_;
    resolved_.monitor_ =
        capture.monitor_ ? capture.monitor_ : enclosing.monitor_;
    t_current = &resolved_;
}

ScopedCapture::~ScopedCapture()
{
    t_current = previous_;
}

} // namespace obs
} // namespace ccube
