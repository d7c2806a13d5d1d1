#ifndef CCUBE_SIMNET_TRANSFER_ENGINE_H_
#define CCUBE_SIMNET_TRANSFER_ENGINE_H_

/**
 * @file
 * Multi-hop transfers along routes compiled once.
 *
 * compile() splits a route into steps over resolved channel ids. A
 * GPU transit (a §IV-A detour) stores and forwards: the chunk lands in
 * the transit GPU's memory and is re-sent, like the paper's forwarding
 * kernels, so each of its channels is a step. A run across
 * consecutive switches cuts through: only its entry and exit channels
 * (the endpoint ports) are occupied, with one wait step between them
 * for the switch-to-switch latencies. send() walks the steps with
 * continuations that carry only the send's flight (engine, step, wire
 * bytes, the caller's small arrival callback): no route copy, no
 * channel lookup, no heap closure.
 */

#include <utility>
#include <vector>

#include "ccl/protocol.h"
#include "simnet/channel.h"
#include "topo/tree_embedding.h"
#include "util/inline_function.h"

namespace ccube {
namespace simnet {

/**
 * The channel a send on @p lane takes from @p src to the adjacent
 * @p dst: channelIds(src, dst)[lane], the lane clamped to the
 * parallel-channel count (so each tree of a double tree can claim a
 * private channel of a double-NVLink pair). The timed world's one
 * lane pick.
 */
int laneChannel(const topo::Graph& graph, topo::NodeId src,
                topo::NodeId dst, int lane);

/** What a send runs when it arrives: move-only, 16 bytes in place —
 *  e.g. (driver, thread, edge); a bigger capture allocates. */
using ArrivalFn = util::InlineFunction<void(), 16>;

/**
 * Issues chunk transfers along compiled physical routes.
 */
class TransferEngine
{
  public:
    /**
     * Binds the engine to @p network. @p proto is the wire protocol
     * every send models (ccl::protocolCosts): LL inflates the payload
     * by its payload_factor once per send — one inline flag word per
     * data word — and scales every fixed latency term (each occupied
     * channel's α, the switch cut-through delay) by its alpha_factor,
     * because the receiver spins on the flags directly instead of
     * taking the fenced semaphore round-trip. Simple is the identity.
     */
    explicit TransferEngine(Network& network,
                            ccl::Protocol proto = ccl::Protocol::kSimple);

    // Scheduled continuations hold `this`.
    TransferEngine(const TransferEngine&) = delete;
    TransferEngine& operator=(const TransferEngine&) = delete;

    /** Compiles @p route (at least two hops) on @p lane; returns its
     *  handle for send(). Handles count up from 0 in compile order. */
    int compile(const topo::Route& route, int lane = 0);

    /**
     * Sends @p bytes along compiled route @p route; @p done fires when
     * its last channel drains. A failed channel drops the send (@p done
     * never fires). While tracing, a multi-hop send also emits one
     * end-to-end flow span (src pid, flow track of its lane).
     */
    void send(int route, double bytes, ArrivalFn done);

    /** compile(), then send(): for a route sent once. */
    void sendAlongRoute(const topo::Route& route, double bytes,
                        ArrivalFn done, int lane = 0)
    {
        send(compile(route, lane), bytes, std::move(done));
    }

  private:
    /** One step of a compiled route: occupy a channel, wait out a
     *  switch run's cut-through delay (× alpha_factor), or arrive. */
    struct Step {
        int channel = kArrive; ///< channel id, kWait or kArrive
        double delay = 0.0;    ///< kWait only
    };
    static constexpr int kWait = -1;
    static constexpr int kArrive = -2;

    /** A compiled route's first step and what its flow span names. */
    struct RouteInfo {
        int first_step = 0;
        topo::NodeId src = 0;
        topo::NodeId dst = 0;
        int hops = 0;
        int lane = 0;
    };

    /** A traced send in flight: its route and flow span start. */
    struct FlowStart {
        int route = 0;
        double start = 0.0;     ///< simulated seconds
        double offset_us = 0.0; ///< trace epoch offset
    };

    /** One send's whole state, moved from continuation to
     *  continuation; sized to ride in an event's inline buffer. */
    struct Flight {
        TransferEngine* engine = nullptr;
        int step = 0;       ///< index into steps_
        int flow = -1;      ///< slot in flows_; -1 = untraced
        double bytes = 0.0; ///< wire bytes
        ArrivalFn done;
    };
    static_assert(sizeof(Flight) <= sim::EventFn::kCapacity,
                  "a flight must fit an event's inline buffer");

    /** Runs the flight's next step. */
    void advance(Flight flight);

    Network& net_;
    ccl::ProtocolCosts costs_;
    std::vector<Step> steps_;
    std::vector<RouteInfo> routes_;
    std::vector<FlowStart> flows_;
    std::vector<int> free_flows_;
};

} // namespace simnet
} // namespace ccube

#endif // CCUBE_SIMNET_TRANSFER_ENGINE_H_
