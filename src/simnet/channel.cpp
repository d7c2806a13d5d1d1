#include "simnet/channel.h"

#include <algorithm>
#include <string>

#include "obs/trace.h"
#include "util/logging.h"

namespace ccube {
namespace simnet {

Network::Network(sim::Simulation& simulation, const topo::Graph& graph,
                 double bandwidth_scale)
    : sim_(simulation), graph_(graph), bandwidth_scale_(bandwidth_scale)
{
    CCUBE_CHECK(bandwidth_scale > 0.0, "bandwidth scale must be positive");
    channel_state_.resize(static_cast<std::size_t>(graph.channelCount()));
    resources_.reserve(static_cast<std::size_t>(graph.channelCount()));
    for (int id = 0; id < graph.channelCount(); ++id) {
        const topo::ChannelDesc& desc = graph.channel(id);
        resources_.push_back(std::make_unique<sim::FifoResource>(
            simulation, graph.nodeLabel(desc.src) + "->" +
                            graph.nodeLabel(desc.dst) + "#" +
                            std::to_string(id)));
        resources_.back()->setTraceIdentity(
            obs::pids::simNode(desc.src), id);
    }
    announceTraceTopology();

    obs::Monitor& monitor = obs::Monitor::global();
    if (monitor.enabled()) {
        monitor_source_ = monitor.addSource(
            [this](double t_s,
                   std::vector<std::pair<std::string, double>>& out) {
                sampleMonitorGauges(t_s, out);
            });
    }
}

void
Network::sampleMonitorGauges(
    double t_s, std::vector<std::pair<std::string, double>>& out)
{
    // Gauge names depend only on the channel id, so they are built
    // once per worker thread and shared by every Network that thread
    // simulates — the per-heartbeat path never formats strings.
    static thread_local std::vector<std::pair<std::string, std::string>>
        names;
    while (names.size() <
           static_cast<std::size_t>(graph_.channelCount())) {
        const std::string base =
            "chan." + std::to_string(names.size());
        names.emplace_back(base + ".busy_frac", base + ".queue");
    }

    const double window = t_s - monitor_last_t_;
    for (int id = 0; id < graph_.channelCount(); ++id) {
        sim::FifoResource& res =
            *resources_[static_cast<std::size_t>(id)];
        const double busy = res.takeWindowBusy(t_s);
        const std::size_t queue = res.queueLength();
        if (busy <= 0.0 && queue == 0)
            continue; // idle channel: keep the snapshot row sparse
        const auto& name_pair = names[static_cast<std::size_t>(id)];
        if (window > 0.0)
            out.emplace_back(name_pair.first, busy / window);
        if (queue > 0)
            out.emplace_back(name_pair.second,
                             static_cast<double>(queue));
    }
    monitor_last_t_ = t_s;
}

void
Network::announceTraceTopology() const
{
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (!recorder.enabled())
        return;
    for (int id = 0; id < graph_.channelCount(); ++id) {
        const topo::ChannelDesc& desc = graph_.channel(id);
        recorder.setProcessName(obs::pids::simNode(desc.src),
                                "simnet node " +
                                    graph_.nodeLabel(desc.src));
        recorder.setThreadName(obs::pids::simNode(desc.src), id,
                               resources_[static_cast<std::size_t>(id)]
                                   ->name());
    }
}

void
Network::closeTraceEpoch(double run_end) const
{
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled())
        recorder.advanceSimEpoch(run_end * 1e6);
}

std::size_t
Network::checkedChannel(int channel_id) const
{
    CCUBE_CHECK(channel_id >= 0 &&
                    channel_id < static_cast<int>(resources_.size()),
                "bad channel id " << channel_id);
    return static_cast<std::size_t>(channel_id);
}

bool
Network::transferOnChannel(int channel_id, double bytes, DoneFn done,
                           double latency_factor)
{
    const std::size_t id = checkedChannel(channel_id);
    CCUBE_CHECK(bytes > 0.0, "non-positive transfer size");
    if (channel_state_[id].failed) {
        // Dead link: the transfer is lost and its completion callback
        // never fires, so everything downstream of it stalls — the
        // DES analog of traffic into a failed NVLink. The schedule
        // ends with pending arrivals; see partialResult().
        ++dropped_transfers_;
        dropped_bytes_ += bytes;
        obs::TraceRecorder& recorder = obs::TraceRecorder::global();
        if (recorder.enabled()) {
            const topo::ChannelDesc& desc = graph_.channel(channel_id);
            recorder.instantEvent("fault.transfer_dropped",
                                  "simnet.fault",
                                  obs::pids::simNode(desc.src),
                                  channel_id,
                                  recorder.simOffsetUs() +
                                      sim_.now() * 1e6);
        }
        return false;
    }
    const double hold = occupancy(channel_id, bytes, latency_factor);
    ++net_transfers_;
    resources_[id]->request([hold]() { return hold; }, std::move(done),
                            bytes);
    return true;
}

double
Network::channelBusyTime(int channel_id) const
{
    return resources_[checkedChannel(channel_id)]->busyTime();
}

std::uint64_t
Network::channelGrants(int channel_id) const
{
    return resources_[checkedChannel(channel_id)]->grants();
}

double
Network::channelBytes(int channel_id) const
{
    return resources_[checkedChannel(channel_id)]->totalPayload();
}

void
Network::exportMetrics(obs::MetricRegistry& registry, double horizon,
                       const std::string& prefix) const
{
    CCUBE_CHECK(horizon > 0.0, "metrics horizon must be positive");
    for (int id = 0; id < graph_.channelCount(); ++id) {
        const sim::FifoResource& res =
            *resources_[static_cast<std::size_t>(id)];
        if (res.grants() == 0)
            continue; // channel unused by the embedding
        const std::string base =
            prefix + ".channel." + std::to_string(id);
        const double utilization = res.busyTime() / horizon;
        registry.setGauge(base + ".bytes", res.totalPayload());
        registry.setGauge(base + ".busy_s", res.busyTime());
        registry.setGauge(base + ".grants",
                          static_cast<double>(res.grants()));
        registry.setGauge(base + ".utilization", utilization);
        registry.mergeHistogram(prefix + ".queue_wait_s",
                                res.queueWaitStats());
        registry.observe(prefix + ".channel_utilization", utilization);
    }
    registry.setGauge(prefix + ".horizon_s", horizon);
    if (dropped_transfers_ > 0) {
        registry.setGauge(prefix + ".dropped_transfers",
                          static_cast<double>(dropped_transfers_));
        registry.setGauge(prefix + ".dropped_bytes", dropped_bytes_);
    }
}

double
Network::occupancy(int channel_id, double bytes,
                   double latency_factor) const
{
    const topo::ChannelDesc& desc = graph_.channel(channel_id);
    const double factor =
        channel_state_[static_cast<std::size_t>(channel_id)].factor;
    return desc.latency * latency_factor +
           bytes / (desc.bandwidth * bandwidth_scale_ * factor);
}

void
Network::failChannel(int channel_id)
{
    channel_state_[checkedChannel(channel_id)].failed = true;
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled()) {
        const topo::ChannelDesc& desc = graph_.channel(channel_id);
        // Endpoints ride along as args so root-cause analysis can
        // blame the starved receiver even when the channel never
        // carried traffic (no timeline to parse endpoints from).
        obs::TraceEvent event;
        event.name = "fault.channel_fail";
        event.cat = "simnet.fault";
        event.phase = 'i';
        event.pid = obs::pids::simNode(desc.src);
        event.tid = channel_id;
        event.ts_us = recorder.simOffsetUs() + sim_.now() * 1e6;
        event.args.emplace_back("src", static_cast<double>(desc.src));
        event.args.emplace_back("dst", static_cast<double>(desc.dst));
        recorder.record(std::move(event));
    }
}

void
Network::restoreChannel(int channel_id)
{
    channel_state_[checkedChannel(channel_id)].failed = false;
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled()) {
        const topo::ChannelDesc& desc = graph_.channel(channel_id);
        recorder.instantEvent("fault.channel_restore", "simnet.fault",
                              obs::pids::simNode(desc.src), channel_id,
                              recorder.simOffsetUs() +
                                  sim_.now() * 1e6);
    }
}

void
Network::setChannelBandwidthFactor(int channel_id, double factor)
{
    const std::size_t id = checkedChannel(channel_id);
    CCUBE_CHECK(factor > 0.0, "bandwidth factor must be positive");
    channel_state_[id].factor *= factor;
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled() && factor != 1.0) {
        const topo::ChannelDesc& desc = graph_.channel(channel_id);
        obs::TraceEvent event;
        event.name = "fault.channel_degrade";
        event.cat = "simnet.fault";
        event.phase = 'i';
        event.pid = obs::pids::simNode(desc.src);
        event.tid = channel_id;
        event.ts_us = recorder.simOffsetUs() + sim_.now() * 1e6;
        event.args.emplace_back("factor", factor);
        recorder.record(std::move(event));
    }
}

void
Network::slowNode(topo::NodeId node, double factor)
{
    CCUBE_CHECK(factor > 0.0, "bandwidth factor must be positive");
    for (int id = 0; id < graph_.channelCount(); ++id) {
        const topo::ChannelDesc& desc = graph_.channel(id);
        if (desc.src == node || desc.dst == node)
            setChannelBandwidthFactor(id, factor);
    }
}

bool
Network::channelFailed(int channel_id) const
{
    return channel_state_[checkedChannel(channel_id)].failed;
}

double
Network::channelBandwidthFactor(int channel_id) const
{
    return channel_state_[checkedChannel(channel_id)].factor;
}

} // namespace simnet
} // namespace ccube
