#include "simnet/transfer_engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "util/logging.h"

namespace ccube {
namespace simnet {

int
laneChannel(const topo::Graph& graph, topo::NodeId src, topo::NodeId dst,
            int lane)
{
    const std::vector<int> ids = graph.channelIds(src, dst);
    CCUBE_CHECK(!ids.empty(), "no channel " << src << " → " << dst);
    return ids[static_cast<std::size_t>(
        std::clamp(lane, 0, static_cast<int>(ids.size()) - 1))];
}

TransferEngine::TransferEngine(Network& network, ccl::Protocol proto)
    : net_(network), costs_(ccl::protocolCosts(proto))
{
}

int
TransferEngine::compile(const topo::Route& route, int lane)
{
    const std::vector<topo::NodeId>& hops = route.hops;
    CCUBE_CHECK(hops.size() >= 2, "route needs at least two hops");
    const topo::Graph& graph = net_.graph();
    routes_.push_back(RouteInfo{static_cast<int>(steps_.size()),
                                hops.front(), hops.back(),
                                static_cast<int>(hops.size() - 1), lane});
    for (std::size_t index = 0; index + 1 < hops.size();) {
        // A cut-through run spans consecutive switch transits.
        std::size_t end = index + 1;
        while (end + 1 < hops.size() && graph.isSwitch(hops[end]))
            ++end;
        steps_.push_back(
            Step{laneChannel(graph, hops[index], hops[index + 1], lane)});
        if (end > index + 1) {
            // Switch-to-switch channels: their first channel's latency.
            double delay = 0.0;
            for (std::size_t m = index + 1; m + 1 < end; ++m)
                delay +=
                    graph.channel(laneChannel(graph, hops[m], hops[m + 1], 0))
                        .latency;
            steps_.push_back(Step{kWait, delay * costs_.alpha_factor});
            steps_.push_back(
                Step{laneChannel(graph, hops[end - 1], hops[end], lane)});
        }
        index = end;
    }
    steps_.push_back(Step{kArrive});
    return static_cast<int>(routes_.size()) - 1;
}

void
TransferEngine::send(int route, double bytes, ArrivalFn done)
{
    CCUBE_CHECK(route >= 0 && route < static_cast<int>(routes_.size()),
                "bad route handle " << route);
    const RouteInfo& info = routes_[static_cast<std::size_t>(route)];
    // Wire bytes: LL carries one flag word per payload word, so every
    // step moves payload_factor × the logical size.
    Flight flight{this, info.first_step, -1, bytes * costs_.payload_factor,
                  std::move(done)};
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (info.hops > 1 && recorder.enabled()) {
        // End-to-end flow span for multi-hop routes (a single-channel
        // send is already covered by the channel occupancy span).
        const FlowStart start{route, net_.simulation().now(),
                              recorder.simOffsetUs()};
        if (free_flows_.empty()) {
            flight.flow = static_cast<int>(flows_.size());
            flows_.push_back(start);
        } else {
            flight.flow = free_flows_.back();
            free_flows_.pop_back();
            flows_[static_cast<std::size_t>(flight.flow)] = start;
        }
    }
    advance(std::move(flight));
}

void
TransferEngine::advance(Flight flight)
{
    const Step step = steps_[static_cast<std::size_t>(flight.step++)];
    if (step.channel != kArrive) {
        const int flow = flight.flow;
        const double bytes = flight.bytes;
        sim::EventFn next = [flight = std::move(flight)]() mutable {
            flight.engine->advance(std::move(flight));
        };
        if (step.channel == kWait) {
            // An event even for a zero delay (a leaf-only run):
            // dropping it would reorder same-time events, and so move
            // tie-broken timestamps.
            net_.simulation().after(step.delay, std::move(next));
        } else if (!net_.transferOnChannel(step.channel, bytes,
                                           std::move(next),
                                           costs_.alpha_factor) &&
                   flow >= 0) {
            free_flows_.push_back(flow); // dropped: the span never ends
        }
        return;
    }
    if (flight.flow >= 0) {
        const FlowStart& start =
            flows_[static_cast<std::size_t>(flight.flow)];
        const RouteInfo& route =
            routes_[static_cast<std::size_t>(start.route)];
        const topo::Graph& graph = net_.graph();
        obs::TraceRecorder::global().completeEvent(
            "flow " + graph.nodeLabel(route.src) + "->" +
                graph.nodeLabel(route.dst),
            "simnet.flow", obs::pids::simNode(route.src),
            obs::kFlowTrackBase + route.lane,
            start.offset_us + start.start * 1e6,
            (net_.simulation().now() - start.start) * 1e6,
            {{"bytes", flight.bytes}, {"hops", route.hops}});
        free_flows_.push_back(flight.flow);
    }
    if (flight.done)
        flight.done();
}

} // namespace simnet
} // namespace ccube
