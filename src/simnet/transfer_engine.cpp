#include "simnet/transfer_engine.h"

#include <string>
#include <utility>

#include "obs/trace.h"
#include "util/logging.h"

namespace ccube {
namespace simnet {

void
TransferEngine::sendAlongRoute(const topo::Route& route, double bytes,
                               DoneFn done, int lane)
{
    CCUBE_CHECK(route.hops.size() >= 2, "route needs at least two hops");
    ++sends_issued_;
    // Wire bytes: LL carries one flag word per payload word, so the
    // fabric sees payload_factor × the logical size (inflated once
    // here — runStage re-sends the same wire bytes on every segment).
    bytes *= costs_.payload_factor;

    if (route.hops.size() > 2 &&
        obs::TraceRecorder::global().enabled()) {
        // End-to-end flow span for multi-hop routes (single-channel
        // sends are already covered by the channel occupancy span).
        obs::TraceRecorder& recorder = obs::TraceRecorder::global();
        const topo::NodeId src = route.hops.front();
        const topo::NodeId dst = route.hops.back();
        const double start = net_.simulation().now();
        const double offset = recorder.simOffsetUs();
        const int hops = static_cast<int>(route.hops.size() - 1);
        done = [this, src, dst, start, offset, bytes, hops, lane,
                inner = std::move(done), &recorder]() mutable {
            const double end = net_.simulation().now();
            recorder.completeEvent(
                "flow " + net_.graph().nodeLabel(src) + "->" +
                    net_.graph().nodeLabel(dst),
                "simnet.flow", obs::pids::simNode(src),
                obs::kFlowTrackBase + lane, offset + start * 1e6,
                (end - start) * 1e6,
                {{"bytes", bytes}, {"hops", hops}});
            if (inner)
                inner();
        };
    }
    runStage(route, 0, bytes, std::move(done), lane);
}

void
TransferEngine::runStage(const topo::Route& route, std::size_t index,
                         double bytes, DoneFn done, int lane)
{
    const topo::Graph& graph = net_.graph();
    // Extend the stage across consecutive switch transits.
    std::size_t end = index + 1;
    while (end + 1 < route.hops.size() && graph.isSwitch(route.hops[end]))
        ++end;

    if (end == index + 1 && end + 1 == route.hops.size()) {
        // Final single-channel stage: the channel invokes done
        // directly — no continuation wrapper (and no callback heap
        // fallback) for the common single-hop send.
        net_.transfer(route.hops[index], route.hops[index + 1], bytes,
                      std::move(done), lane, costs_.alpha_factor);
        return;
    }

    auto continuation = [this, route, end, bytes,
                         done = std::move(done), lane]() mutable {
        if (end + 1 == route.hops.size()) {
            if (done)
                done();
        } else {
            // A non-switch transit: store-and-forward into the next
            // stage (the paper's GPU forwarding kernels).
            runStage(route, end, bytes, std::move(done), lane);
        }
    };

    if (end == index + 1) {
        // Single channel.
        net_.transfer(route.hops[index], route.hops[index + 1], bytes,
                      std::move(continuation), lane,
                      costs_.alpha_factor);
        return;
    }

    // Cut-through across switches: occupy the entry channel, add the
    // intermediate switch latencies as pure delay, then occupy the
    // exit channel (the receiver's port is a real contention point).
    double mid_latency = 0.0;
    for (std::size_t m = index + 1; m + 1 < end; ++m) {
        const auto ids = graph.channelIds(route.hops[m],
                                          route.hops[m + 1]);
        CCUBE_CHECK(!ids.empty(), "broken route");
        mid_latency += graph.channel(ids.front()).latency;
    }
    mid_latency *= costs_.alpha_factor;
    net_.transfer(
        route.hops[index], route.hops[index + 1], bytes,
        [this, route, index, end, bytes, mid_latency,
         continuation = std::move(continuation), lane]() mutable {
            net_.simulation().after(
                mid_latency,
                [this, route, end, bytes,
                 continuation = std::move(continuation), lane]() mutable {
                    net_.transfer(route.hops[end - 1], route.hops[end],
                                  bytes, std::move(continuation), lane,
                                  costs_.alpha_factor);
                });
        },
        lane);
}

} // namespace simnet
} // namespace ccube
