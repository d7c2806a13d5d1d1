#include "core/timeline.h"

#include <algorithm>
#include <map>
#include <ostream>

#include "util/logging.h"
#include "util/table.h"

namespace ccube {
namespace core {

namespace {

/** Display name of a timeline track. */
const char*
trackName(int tid)
{
    switch (tid) {
      case TimelineBuilder::kBackwardTrack: return "backward";
      case TimelineBuilder::kAllReduceTrack: return "allreduce";
      case TimelineBuilder::kForwardTrack: return "forward";
    }
    return "?";
}

} // namespace

void
TimelineBuilder::record(obs::TraceRecorder& recorder,
                        const CCubeEngine& engine, Mode mode,
                        const IterationConfig& config, int pid)
{
    if (!recorder.enabled())
        return;

    const dnn::NetworkModel& network = engine.network();
    const simnet::ScheduleResult schedule = engine.commOnly(
        mode, network.totalParamBytes(), config.bandwidth_scale);
    const ComposedIteration iteration =
        engine.compose(mode, config.batch, schedule);
    const double bwd = iteration.result.backward_time;

    recorder.setProcessName(pid, std::string("core iteration ") +
                                     modeName(mode));
    for (int tid : {kBackwardTrack, kAllReduceTrack, kForwardTrack})
        recorder.setThreadName(pid, tid, trackName(tid));

    const std::string cat = "core.iteration";
    recorder.completeEvent("backward", cat, pid, kBackwardTrack, 0.0,
                           bwd * 1e6);

    // AllReduce: one span per chunk, from the previous chunk's
    // availability (per tree) to this one's. For the multi-ring all
    // chunks share the collective span.
    const int chunks = schedule.num_chunks;
    std::vector<double> sorted_ready = schedule.chunk_ready;
    std::sort(sorted_ready.begin(), sorted_ready.end());
    double prev = 0.0;
    for (int c = 0; c < chunks; ++c) {
        const double ready = sorted_ready[static_cast<std::size_t>(c)];
        recorder.completeEvent("chunk " + std::to_string(c), cat, pid,
                               kAllReduceTrack, (bwd + prev) * 1e6,
                               (ready - prev) * 1e6);
        prev = ready;
    }

    // Forward: one span per layer as the engine composed it.
    for (int l = 0; l < network.numLayers(); ++l) {
        const double start =
            iteration.forward_start[static_cast<std::size_t>(l)];
        const double end =
            iteration.forward_end[static_cast<std::size_t>(l)];
        recorder.completeEvent(network.layer(l).name, cat, pid,
                               kForwardTrack, start * 1e6,
                               (end - start) * 1e6);
    }
}

std::vector<TimelineEvent>
TimelineBuilder::build(const CCubeEngine& engine, Mode mode,
                       const IterationConfig& config)
{
    // The recorder is the single source of truth: record into a local
    // one and project its spans back onto the flat event list.
    obs::TraceRecorder recorder;
    recorder.enable();
    record(recorder, engine, mode, config);

    std::vector<TimelineEvent> events;
    for (const obs::TraceEvent& e : recorder.snapshot()) {
        events.push_back(TimelineEvent{trackName(e.tid), e.name,
                                       e.ts_us / 1e6,
                                       (e.ts_us + e.dur_us) / 1e6});
    }
    return events;
}

void
TimelineBuilder::writeCsv(std::ostream& out,
                          const std::vector<TimelineEvent>& events)
{
    out << "track,label,start_s,end_s\n";
    for (const TimelineEvent& e : events) {
        out << e.track << ',' << e.label << ',' << e.start << ','
            << e.end << "\n";
    }
}

void
TimelineBuilder::printAscii(std::ostream& out,
                            const std::vector<TimelineEvent>& events,
                            int width)
{
    CCUBE_CHECK(width >= 10, "ascii timeline too narrow");
    if (events.empty())
        return;
    double horizon = 0.0;
    for (const TimelineEvent& e : events)
        horizon = std::max(horizon, e.end);
    CCUBE_CHECK(horizon > 0.0, "empty timeline horizon");

    // Merge each track's events into one occupancy row.
    std::map<std::string, std::string> rows;
    for (const TimelineEvent& e : events) {
        auto& row = rows[e.track];
        if (row.empty())
            row.assign(static_cast<std::size_t>(width), ' ');
        int lo = static_cast<int>(e.start / horizon * width);
        int hi = static_cast<int>(e.end / horizon * width);
        lo = std::clamp(lo, 0, width - 1);
        hi = std::clamp(hi, lo + 1, width);
        for (int i = lo; i < hi; ++i)
            row[static_cast<std::size_t>(i)] = '#';
    }
    std::size_t name_width = 0;
    for (const auto& [track, row] : rows)
        name_width = std::max(name_width, track.size());
    for (const auto& [track, row] : rows) {
        out << track;
        for (std::size_t p = track.size(); p < name_width + 2; ++p)
            out << ' ';
        out << '|' << row << "|\n";
    }
    out << "0" << std::string(static_cast<std::size_t>(name_width) + 2 +
                                  static_cast<std::size_t>(width) - 8,
                              ' ')
        << util::formatDouble(horizon * 1e3, 2) << " ms\n";
}

} // namespace core
} // namespace ccube
