#ifndef CCUBE_SIMNET_CHANNEL_H_
#define CCUBE_SIMNET_CHANNEL_H_

/**
 * @file
 * Timed network: binds a physical topology to the discrete-event
 * simulator. Every unidirectional channel is a FIFO resource occupied
 * for α + N/bw per transfer, matching the linear cost model the paper
 * builds on (§II-C) while capturing contention when two logical flows
 * share a physical channel.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/monitor.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "topo/graph.h"

namespace ccube {
namespace simnet {

/** Completion callback of a transfer (move-only, inline small-buffer
 *  storage — see sim::EventFn). */
using DoneFn = sim::EventFn;

/**
 * The simulated network fabric.
 */
class Network
{
  public:
    /**
     * Binds @p graph to @p simulation. @p bandwidth_scale scales every
     * channel's bandwidth (the paper's "low-bandwidth" configuration
     * divides the AllReduce kernel's thread allocation by 4, modeled
     * here as bandwidth_scale = 0.25).
     */
    Network(sim::Simulation& simulation, const topo::Graph& graph,
            double bandwidth_scale = 1.0);

    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;

    /** The driving simulation. */
    sim::Simulation& simulation() { return sim_; }

    /** The physical topology. */
    const topo::Graph& graph() const { return graph_; }

    /**
     * Queues a transfer of @p bytes on channel @p channel_id; @p done
     * fires at completion. Transfers on one channel serialize FIFO.
     * @p latency_factor scales the channel's fixed latency term — the
     * wire-protocol knob (LL skips the fenced sync round-trip, so its
     * transfers pay only a fraction of α; bytes are inflated by the
     * caller). Returns false when the channel has failed and the
     * transfer was dropped (see failChannel()).
     */
    bool transferOnChannel(int channel_id, double bytes, DoneFn done,
                           double latency_factor = 1.0);

    /** Cumulative busy time of a channel (utilization telemetry). */
    double channelBusyTime(int channel_id) const;

    /** Total transfers granted on a channel. */
    std::uint64_t channelGrants(int channel_id) const;

    /** Total bytes granted on a channel. */
    double channelBytes(int channel_id) const;

    /** Time one transfer of @p bytes occupies channel @p channel_id;
     *  @p latency_factor as in transferOnChannel(). */
    double occupancy(int channel_id, double bytes,
                     double latency_factor = 1.0) const;

    // ---- live fault state (driven by simnet::FaultPlan) ----

    /**
     * Marks @p channel_id failed: new transfer requests on it are
     * dropped — the done callback never fires, so dependent flows
     * stall exactly like traffic into a dead NVLink. Transfers already
     * holding or queued on the channel complete normally (they were on
     * the wire).
     */
    void failChannel(int channel_id);

    /** Clears a failure; subsequent transfers proceed normally. */
    void restoreChannel(int channel_id);

    /**
     * Scales @p channel_id's effective bandwidth by @p factor (> 0;
     * multiplies onto any previous factor, so repeated degradations
     * compound). Affects transfers requested after the call.
     */
    void setChannelBandwidthFactor(int channel_id, double factor);

    /**
     * Degrades every channel into or out of @p node by @p factor — a
     * straggling GPU slows all of its links, not one of them.
     */
    void slowNode(topo::NodeId node, double factor);

    /** Whether @p channel_id is currently failed. */
    bool channelFailed(int channel_id) const;

    /** Current bandwidth factor of @p channel_id (1.0 = healthy). */
    double channelBandwidthFactor(int channel_id) const;

    /** Transfers dropped on failed channels. */
    std::uint64_t droppedTransfers() const { return dropped_transfers_; }

    /** Bytes dropped on failed channels. */
    double droppedBytes() const { return dropped_bytes_; }

    /** Total transfers issued on the fabric. */
    std::uint64_t totalTransfers() const { return net_transfers_; }

    /**
     * Exports per-channel telemetry into @p registry under @p prefix:
     * gauges `<prefix>.channel.<id>.{bytes,busy_s,grants,utilization}`
     * (utilization = busy / @p horizon), histogram
     * `<prefix>.queue_wait_s` pooled over all channels, and histogram
     * `<prefix>.channel_utilization` over channels that carried
     * traffic — the numbers `bench/ext_link_utilization` prints.
     */
    void exportMetrics(obs::MetricRegistry& registry, double horizon,
                       const std::string& prefix = "simnet") const;

    /**
     * Registers this network's nodes/channels as named processes and
     * tracks in the global trace recorder (no-op while disabled).
     * Called from the constructor; call again after enabling tracing
     * if the network outlives the ObsSession setup.
     */
    void announceTraceTopology() const;

    /** Closes the current trace epoch after a finished simulation run
     *  ending at @p run_end (simulated seconds), so the next run's
     *  spans land after this one on the trace timeline. */
    void closeTraceEpoch(double run_end) const;

  private:
    /**
     * obs::Monitor gauge source: per-channel busy fraction over the
     * window since this network's previous sample (from
     * sim::FifoResource::takeWindowBusy), plus live queue depth.
     * Registered at construction while the monitor is enabled.
     */
    void sampleMonitorGauges(
        double t_s,
        std::vector<std::pair<std::string, double>>& out);

    /** @p channel_id as an index, checked against the channel count. */
    std::size_t checkedChannel(int channel_id) const;

    /** Per-channel mutable fault state (indexed by channel id). */
    struct ChannelState {
        bool failed = false;
        double factor = 1.0; ///< live bandwidth multiplier
    };

    sim::Simulation& sim_;
    const topo::Graph& graph_;
    double bandwidth_scale_;
    std::vector<std::unique_ptr<sim::FifoResource>> resources_;
    std::vector<ChannelState> channel_state_;
    std::uint64_t net_transfers_ = 0;
    std::uint64_t dropped_transfers_ = 0;
    double dropped_bytes_ = 0.0;
    double monitor_last_t_ = 0.0;
    /// Live-monitor gauge source; last, so it goes first.
    obs::Monitor::SourceHandle monitor_source_;
};

} // namespace simnet
} // namespace ccube

#endif // CCUBE_SIMNET_CHANNEL_H_
