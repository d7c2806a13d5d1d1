#ifndef CCUBE_CORE_TIMELINE_H_
#define CCUBE_CORE_TIMELINE_H_

/**
 * @file
 * Iteration timeline reconstruction — the data behind Fig. 2/8-style
 * diagrams: when backward ran, when each collective chunk became
 * available, and when each chained forward layer executed.
 *
 * The timeline is recorded as spans into an obs::TraceRecorder (the
 * unified observability substrate), from which the CSV rows, the
 * ASCII Gantt view, and Chrome/Perfetto traces are all derived —
 * `TimelineBuilder::record` into the global recorder is how the
 * iteration phases land in a `--trace-out=` capture.
 */

#include <iosfwd>
#include <string>
#include <vector>

#include "core/ccube_engine.h"
#include "obs/trace.h"

namespace ccube {
namespace core {

/** One bar on the timeline. */
struct TimelineEvent {
    std::string track; ///< "backward" | "allreduce" | "forward"
    std::string label; ///< e.g. "chunk 12", "layer conv3_2"
    double start = 0.0;
    double end = 0.0;
};

/**
 * Builds the steady-state iteration timeline for one mode.
 */
class TimelineBuilder
{
  public:
    /** Trace tracks (tids) the iteration phases record under. */
    enum Track : int {
        kBackwardTrack = 0,
        kAllReduceTrack = 1,
        kForwardTrack = 2,
    };

    /**
     * Records the steady-state timeline of @p mode as complete spans
     * into @p recorder under @p pid (simulated time): backward
     * [0, bwd] on the backward track; one span per collective chunk
     * (start = previous chunk's availability, end = this chunk's) on
     * the allreduce track; one span per forward layer (chained modes
     * gate each layer on its gradients) on the forward track. No-op
     * when the recorder is disabled.
     */
    static void record(obs::TraceRecorder& recorder,
                       const CCubeEngine& engine, Mode mode,
                       const IterationConfig& config,
                       int pid = obs::pids::core());

    /**
     * Reconstructs the timeline as a flat event list (seconds) — the
     * recorder-derived view the CSV/ASCII renderers consume.
     */
    static std::vector<TimelineEvent>
    build(const CCubeEngine& engine, Mode mode,
          const IterationConfig& config);

    /** Writes "track,label,start,end" rows. */
    static void writeCsv(std::ostream& out,
                         const std::vector<TimelineEvent>& events);

    /**
     * Renders an ASCII Gantt chart: one row per track, @p width
     * character columns across the iteration.
     */
    static void printAscii(std::ostream& out,
                           const std::vector<TimelineEvent>& events,
                           int width = 72);
};

} // namespace core
} // namespace ccube

#endif // CCUBE_CORE_TIMELINE_H_
