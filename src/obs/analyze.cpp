#include "obs/analyze.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

namespace ccube {
namespace obs {

namespace {

/** Tolerance for matching DES hand-off times (µs). Simulated stamps
 *  are exact doubles scaled by 1e6, so only rounding noise remains. */
constexpr double kHandoffEpsUs = 0.05;

/** Numeric argument of @p event, or @p fallback. */
double
argOf(const TraceEvent& event, const char* key, double fallback = 0.0)
{
    for (const auto& [name, value] : event.args) {
        if (name == key)
            return value;
    }
    return fallback;
}

/** Request time of a span: channel spans subtract their queue wait. */
double
readyTimeUs(const TraceEvent& event)
{
    if (event.cat == "simnet.channel")
        return event.ts_us - argOf(event, "queue_wait_us");
    return event.ts_us;
}

double
endUs(const TraceEvent& event)
{
    return event.ts_us + event.dur_us;
}

} // namespace

// --- ChannelTimeline -------------------------------------------------

double
ChannelTimeline::busyWithinUs(const TimeInterval& window) const
{
    double total = 0.0;
    for (const TimeInterval& interval : busy) {
        const double lo = std::max(interval.start_us, window.start_us);
        const double hi = std::min(interval.end_us, window.end_us);
        if (hi > lo)
            total += hi - lo;
    }
    return total;
}

double
ChannelTimeline::utilization(const TimeInterval& window) const
{
    const double span = window.durationUs();
    return span > 0.0 ? busyWithinUs(window) / span : 0.0;
}

double
ChannelTimeline::idleFraction(const TimeInterval& window) const
{
    const double span = window.durationUs();
    return span > 0.0 ? 1.0 - busyWithinUs(window) / span : 0.0;
}

std::vector<TimeInterval>
ChannelTimeline::idleIntervals(const TimeInterval& window,
                               double min_gap_us) const
{
    std::vector<TimeInterval> gaps;
    double cursor = window.start_us;
    for (const TimeInterval& interval : busy) {
        if (interval.end_us <= window.start_us)
            continue;
        if (interval.start_us >= window.end_us)
            break;
        const double lo = std::max(interval.start_us, window.start_us);
        if (lo - cursor > min_gap_us)
            gaps.push_back({cursor, lo});
        cursor = std::max(cursor, std::min(interval.end_us,
                                           window.end_us));
    }
    if (window.end_us - cursor > min_gap_us)
        gaps.push_back({cursor, window.end_us});
    return gaps;
}

// --- AlphaBetaFit ----------------------------------------------------

double
AlphaBetaFit::alphaRelError(const model::AlphaBeta& reference) const
{
    return reference.alpha != 0.0
               ? std::fabs(alpha_s - reference.alpha) /
                     std::fabs(reference.alpha)
               : std::fabs(alpha_s);
}

double
AlphaBetaFit::betaRelError(const model::AlphaBeta& reference) const
{
    return reference.beta != 0.0
               ? std::fabs(beta_s_per_byte - reference.beta) /
                     std::fabs(reference.beta)
               : std::fabs(beta_s_per_byte);
}

// --- classification --------------------------------------------------

CostKind
classifySpan(const TraceEvent& event)
{
    if (event.cat == "simnet.channel")
        return CostKind::kSerialization;
    if (event.cat == "ccl.mailbox" || event.cat == "ccl.sync")
        return CostKind::kSyncStall;
    if (event.name.find("reduce") != std::string::npos)
        return CostKind::kReduction;
    return CostKind::kOther;
}

const char*
costKindName(CostKind kind)
{
    switch (kind) {
      case CostKind::kStartup: return "startup";
      case CostKind::kSerialization: return "serialization";
      case CostKind::kSyncStall: return "sync_stall";
      case CostKind::kReduction: return "reduction";
      case CostKind::kOther: return "other";
    }
    return "?";
}

// --- TraceAnalyzer ---------------------------------------------------

TraceAnalyzer::TraceAnalyzer(std::vector<TraceEvent> events)
    : events_(std::move(events))
{
    std::map<int, ChannelTimeline> by_channel;
    double window_lo = std::numeric_limits<double>::infinity();
    double window_hi = -std::numeric_limits<double>::infinity();

    for (const TraceEvent& event : events_) {
        if (event.phase != 'X' || event.cat != "simnet.channel")
            continue;
        TransferSample sample;
        sample.channel = event.tid;
        sample.ts_us = event.ts_us;
        sample.dur_us = event.dur_us;
        sample.bytes = argOf(event, "bytes");
        sample.queue_wait_us = argOf(event, "queue_wait_us");
        transfers_.push_back(sample);

        ChannelTimeline& timeline = by_channel[event.tid];
        if (timeline.channel < 0) {
            timeline.channel = event.tid;
            timeline.pid = event.pid;
            timeline.name = event.name;
        }
        timeline.busy.push_back({event.ts_us, endUs(event)});
        timeline.bytes += sample.bytes;
        ++timeline.transfers;

        window_lo = std::min(window_lo, readyTimeUs(event));
        window_hi = std::max(window_hi, endUs(event));
    }

    for (auto& [id, timeline] : by_channel) {
        std::sort(timeline.busy.begin(), timeline.busy.end(),
                  [](const TimeInterval& a, const TimeInterval& b) {
                      return a.start_us < b.start_us;
                  });
        // Merge overlapping or touching intervals (FIFO channels never
        // overlap within one run; epoch-offset runs never touch).
        std::vector<TimeInterval> merged;
        for (const TimeInterval& interval : timeline.busy) {
            if (!merged.empty() &&
                interval.start_us <= merged.back().end_us) {
                merged.back().end_us =
                    std::max(merged.back().end_us, interval.end_us);
            } else {
                merged.push_back(interval);
            }
        }
        timeline.busy = std::move(merged);
        timeline.busy_us = 0.0;
        for (const TimeInterval& interval : timeline.busy)
            timeline.busy_us += interval.durationUs();
        channels_.push_back(std::move(timeline));
    }

    if (window_lo < window_hi)
        channel_window_ = {window_lo, window_hi};
}

TraceAnalyzer
TraceAnalyzer::fromRecorder(const TraceRecorder& recorder)
{
    return TraceAnalyzer(recorder.snapshot());
}

const ChannelTimeline*
TraceAnalyzer::channelById(int channel) const
{
    const auto it = std::lower_bound(
        channels_.begin(), channels_.end(), channel,
        [](const ChannelTimeline& timeline, int id) {
            return timeline.channel < id;
        });
    if (it == channels_.end() || it->channel != channel)
        return nullptr;
    return &*it;
}

double
TraceAnalyzer::idleFraction(const std::vector<int>& channel_ids,
                            const TimeInterval& window) const
{
    const double span = window.durationUs();
    if (span <= 0.0)
        return 0.0;
    double busy = 0.0;
    int counted = 0;
    for (int id : channel_ids) {
        const ChannelTimeline* timeline = channelById(id);
        if (!timeline)
            continue; // carried no traffic: not part of the schedule
        busy += timeline->busyWithinUs(window);
        ++counted;
    }
    if (counted == 0)
        return 0.0;
    return 1.0 - busy / (static_cast<double>(counted) * span);
}

double
TraceAnalyzer::idleFraction(const std::vector<int>& channel_ids) const
{
    return idleFraction(channel_ids, channel_window_);
}

AlphaBetaFit
TraceAnalyzer::fitAlphaBeta() const
{
    AlphaBetaFit fit;
    fit.samples = static_cast<int>(transfers_.size());
    if (transfers_.size() < 2)
        return fit;

    double mean_x = 0.0, mean_y = 0.0;
    for (const TransferSample& sample : transfers_) {
        mean_x += sample.bytes;
        mean_y += sample.dur_us * 1e-6;
    }
    const double n = static_cast<double>(transfers_.size());
    mean_x /= n;
    mean_y /= n;

    double sxx = 0.0, sxy = 0.0, syy = 0.0;
    for (const TransferSample& sample : transfers_) {
        const double dx = sample.bytes - mean_x;
        const double dy = sample.dur_us * 1e-6 - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    if (sxx <= 0.0)
        return fit; // a single transfer size cannot anchor the line

    fit.valid = true;
    fit.beta_s_per_byte = sxy / sxx;
    fit.alpha_s = mean_y - fit.beta_s_per_byte * mean_x;
    fit.r2 = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
    return fit;
}

CriticalPath
TraceAnalyzer::criticalPath(double alpha_us) const
{
    CriticalPath path;

    // --- Node selection: leaf 'X' spans (containers excluded). ------
    // Flow spans duplicate their per-hop channel spans end to end, so
    // they are skipped outright.
    std::vector<const TraceEvent*> nodes;
    for (const TraceEvent& event : events_) {
        if (event.phase != 'X' || event.cat == "simnet.flow")
            continue;
        nodes.push_back(&event);
    }
    if (nodes.empty())
        return path;

    // Containers: spans that strictly enclose another span on their
    // own (pid, tid) track — phase spans around mailbox spans, say.
    // The enclosed leaves carry the time; the container is context.
    std::map<std::pair<int, int>, std::vector<std::size_t>> tracks;
    for (std::size_t i = 0; i < nodes.size(); ++i)
        tracks[{nodes[i]->pid, nodes[i]->tid}].push_back(i);
    std::vector<bool> container(nodes.size(), false);
    constexpr double kNestEps = 1e-6;
    for (auto& [track, members] : tracks) {
        std::sort(members.begin(), members.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (nodes[a]->ts_us != nodes[b]->ts_us)
                          return nodes[a]->ts_us < nodes[b]->ts_us;
                      return endUs(*nodes[a]) > endUs(*nodes[b]);
                  });
        std::vector<std::size_t> stack;
        for (std::size_t index : members) {
            while (!stack.empty() &&
                   endUs(*nodes[stack.back()]) <=
                       nodes[index]->ts_us + kNestEps)
                stack.pop_back();
            if (!stack.empty() &&
                endUs(*nodes[stack.back()]) >=
                    endUs(*nodes[index]) - kNestEps)
                container[stack.back()] = true;
            stack.push_back(index);
        }
    }

    std::vector<std::size_t> keep;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (!container[i])
            keep.push_back(i);
    }

    // --- Edge construction (indices into `keep`). -------------------
    const auto node = [&](std::size_t k) -> const TraceEvent& {
        return *nodes[keep[k]];
    };
    std::vector<std::vector<std::size_t>> preds(keep.size());
    const auto addEdge = [&](std::size_t from, std::size_t to) {
        if (from != to && endUs(node(from)) <= endUs(node(to)))
            preds[to].push_back(from);
    };

    // 1. FIFO order per (pid, tid) track.
    std::map<std::pair<int, int>, std::vector<std::size_t>> leaf_tracks;
    for (std::size_t k = 0; k < keep.size(); ++k)
        leaf_tracks[{node(k).pid, node(k).tid}].push_back(k);
    for (auto& [track, members] : leaf_tracks) {
        std::sort(members.begin(), members.end(),
                  [&](std::size_t a, std::size_t b) {
                      return node(a).ts_us < node(b).ts_us;
                  });
        for (std::size_t i = 1; i < members.size(); ++i)
            addEdge(members[i - 1], members[i]);
    }

    // 2. DES hand-offs: a span whose request time equals another
    //    span's completion depends on it (chained transfers).
    std::vector<std::pair<double, std::size_t>> ends;
    ends.reserve(keep.size());
    for (std::size_t k = 0; k < keep.size(); ++k)
        ends.emplace_back(endUs(node(k)), k);
    std::sort(ends.begin(), ends.end());
    for (std::size_t k = 0; k < keep.size(); ++k) {
        const double ready = readyTimeUs(node(k));
        auto lo = std::lower_bound(
            ends.begin(), ends.end(),
            std::make_pair(ready - kHandoffEpsUs, std::size_t{0}));
        for (auto it = lo;
             it != ends.end() && it->first <= ready + kHandoffEpsUs;
             ++it)
            addEdge(it->second, k);
    }

    // 3. Mailbox post → wait, matched by label + sequence number.
    std::map<std::pair<std::string, std::int64_t>, std::size_t> posts;
    for (std::size_t k = 0; k < keep.size(); ++k) {
        const TraceEvent& event = node(k);
        if (event.cat != "ccl.mailbox" ||
            event.name.rfind("post ", 0) != 0)
            continue;
        const auto seq =
            static_cast<std::int64_t>(argOf(event, "seq", -1.0));
        if (seq >= 0)
            posts[{event.name.substr(5), seq}] = k;
    }
    for (std::size_t k = 0; k < keep.size(); ++k) {
        const TraceEvent& event = node(k);
        if (event.cat != "ccl.mailbox" ||
            event.name.rfind("wait ", 0) != 0)
            continue;
        const auto seq =
            static_cast<std::int64_t>(argOf(event, "seq", -1.0));
        if (seq < 0)
            continue;
        const auto it = posts.find({event.name.substr(5), seq});
        if (it != posts.end())
            addEdge(it->second, k);
    }

    // --- Longest busy chain (DP in completion order). ---------------
    std::vector<std::size_t> order(keep.size());
    for (std::size_t k = 0; k < keep.size(); ++k)
        order[k] = k;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (endUs(node(a)) != endUs(node(b)))
                      return endUs(node(a)) < endUs(node(b));
                  return node(a).ts_us < node(b).ts_us;
              });
    std::vector<std::size_t> position(keep.size());
    for (std::size_t p = 0; p < order.size(); ++p)
        position[order[p]] = p;

    std::vector<double> best(keep.size(), 0.0);
    std::vector<std::ptrdiff_t> came_from(keep.size(), -1);
    std::size_t best_tail = 0;
    for (std::size_t p = 0; p < order.size(); ++p) {
        const std::size_t k = order[p];
        double incoming = 0.0;
        std::ptrdiff_t chosen = -1;
        for (std::size_t pred : preds[k]) {
            if (position[pred] >= p)
                continue; // tie on completion time: keep it acyclic
            if (best[pred] > incoming) {
                incoming = best[pred];
                chosen = static_cast<std::ptrdiff_t>(pred);
            }
        }
        best[k] = incoming + node(k).dur_us;
        came_from[k] = chosen;
        if (best[k] > best[best_tail])
            best_tail = k;
    }

    std::vector<std::size_t> chain;
    for (std::ptrdiff_t k = static_cast<std::ptrdiff_t>(best_tail);
         k >= 0; k = came_from[static_cast<std::size_t>(k)])
        chain.push_back(static_cast<std::size_t>(k));
    std::reverse(chain.begin(), chain.end());

    // --- Attribution. -----------------------------------------------
    if (alpha_us < 0.0) {
        const AlphaBetaFit fit = fitAlphaBeta();
        alpha_us = fit.valid ? fit.alpha_s * 1e6 : 0.0;
    }
    alpha_us = std::max(alpha_us, 0.0);

    // Stall accounting uses wall-clock gaps between consecutive path
    // spans: a queue wait that overlaps the predecessor's occupancy is
    // NOT a critical-path stall (the channel was busy doing critical
    // work), so queue_wait args deliberately don't feed this sum.
    double previous_end = node(chain.front()).ts_us;
    for (std::size_t k : chain) {
        const TraceEvent& event = node(k);
        PathStep step;
        step.span = event;
        step.kind = classifySpan(event);
        step.stall_before_us =
            std::max(0.0, event.ts_us - previous_end);
        path.breakdown.sync_stall_us += step.stall_before_us;
        switch (step.kind) {
          case CostKind::kSerialization: {
            const double startup = std::min(alpha_us, event.dur_us);
            path.breakdown.startup_us += startup;
            path.breakdown.serialization_us += event.dur_us - startup;
            break;
          }
          case CostKind::kSyncStall:
            path.breakdown.sync_stall_us += event.dur_us;
            break;
          case CostKind::kReduction:
            path.breakdown.reduction_us += event.dur_us;
            break;
          default:
            path.breakdown.other_us += event.dur_us;
            break;
        }
        path.busy_us += event.dur_us;
        previous_end = endUs(event);
        path.steps.push_back(std::move(step));
    }
    path.start_us = readyTimeUs(node(chain.front()));
    path.end_us = endUs(node(chain.back()));
    return path;
}

} // namespace obs
} // namespace ccube
