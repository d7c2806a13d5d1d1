#include "simnet/chaos.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "util/logging.h"
#include "util/rng.h"

namespace ccube {
namespace simnet {

namespace {

/**
 * The reverse channel paired with @p channel_id: the channel at the
 * same position in the dst→src list as @p channel_id holds in the
 * src→dst list. On multi-link pairs this pairs each directed channel
 * with one fixed twin, so killing "a link" kills exactly one lane in
 * each direction.
 */
int
pairedReverse(const topo::Graph& graph, int channel_id)
{
    const topo::ChannelDesc& desc = graph.channel(channel_id);
    const std::vector<int> forward =
        graph.channelIds(desc.src, desc.dst);
    const std::vector<int> reverse =
        graph.channelIds(desc.dst, desc.src);
    if (reverse.empty())
        return -1; // one-way channel; nothing to pair
    std::size_t index = 0;
    for (std::size_t i = 0; i < forward.size(); ++i) {
        if (forward[i] == channel_id) {
            index = i;
            break;
        }
    }
    return reverse[std::min(index, reverse.size() - 1)];
}

/** Fewest independent fault draws per scenario. */
constexpr int kMinFaults = 1;

/** Relative draw weights of the fault kinds. */
constexpr double kLinkFailWeight = 0.5; ///< kill a link (maybe restore)
constexpr double kDegradeWeight = 0.3;  ///< degrade a link's bandwidth
constexpr double kSlowNodeWeight = 0.2; ///< slow every link of one node

/** Probability a killed link restores within the horizon. */
constexpr double kRestoreProbability = 0.6;

/** Probability a restored link immediately flaps (fails again, then
 *  restores again); applied repeatedly, so flap cycles have
 *  geometrically distributed length. */
constexpr double kFlapProbability = 0.35;

/** Bandwidth factor range for degrade / slowdown draws. */
constexpr double kMinFactor = 0.25;
constexpr double kMaxFactor = 0.85;

} // namespace

ChaosPlan::ChaosPlan(const topo::Graph& graph, std::uint64_t seed,
                     ChaosOptions options)
    : seed_(seed)
{
    CCUBE_CHECK(graph.channelCount() > 0,
                "chaos plan needs a topology with channels");
    CCUBE_CHECK(options.horizon_s > 0.0, "chaos horizon must be > 0");
    CCUBE_CHECK(options.max_faults >= kMinFaults,
                "chaos max_faults must be at least " << kMinFaults);

    util::Rng rng(seed);
    const int draws = static_cast<int>(
        rng.uniformInt(kMinFaults, options.max_faults));
    const double total_weight =
        kLinkFailWeight + kDegradeWeight + kSlowNodeWeight;

    // Live failed-state per channel id, replayed as events are drawn,
    // so deadAtHorizon() reflects the net effect of flap cycles.
    std::set<int> down;

    auto fail_link = [&](double at, int channel) {
        plan_.failChannel(at, channel);
        down.insert(channel);
        ++fails_;
        const int twin = pairedReverse(graph, channel);
        if (twin >= 0 && twin != channel) {
            plan_.failChannel(at, twin);
            down.insert(twin);
        }
    };
    auto restore_link = [&](double at, int channel) {
        plan_.restoreChannel(at, channel);
        down.erase(channel);
        ++restores_;
        const int twin = pairedReverse(graph, channel);
        if (twin >= 0 && twin != channel) {
            plan_.restoreChannel(at, twin);
            down.erase(twin);
        }
    };

    for (int d = 0; d < draws; ++d) {
        const double pick = rng.uniform(0.0, total_weight);
        const int channel = static_cast<int>(
            rng.uniformInt(0, graph.channelCount() - 1));
        double at = rng.uniform(0.0, options.horizon_s);

        if (pick < kLinkFailWeight) {
            // Link kill, with optional restore and flap cycles. Each
            // follow-up lands strictly later within the horizon.
            fail_link(at, channel);
            while (rng.uniform() < kRestoreProbability &&
                   at < options.horizon_s) {
                at = rng.uniform(at, options.horizon_s);
                restore_link(at, channel);
                if (rng.uniform() >= kFlapProbability ||
                    at >= options.horizon_s)
                    break;
                at = rng.uniform(at, options.horizon_s);
                fail_link(at, channel);
            }
        } else if (pick < kLinkFailWeight + kDegradeWeight) {
            const double factor = rng.uniform(kMinFactor, kMaxFactor);
            plan_.degradeChannel(at, channel, factor);
            const int twin = pairedReverse(graph, channel);
            if (twin >= 0 && twin != channel)
                plan_.degradeChannel(at, twin, factor);
            ++degrades_;
        } else {
            const topo::NodeId node = static_cast<topo::NodeId>(
                rng.uniformInt(0, graph.nodeCount() - 1));
            plan_.slowNode(at, node, rng.uniform(kMinFactor, kMaxFactor));
            ++slowdowns_;
        }
    }

    dead_.assign(down.begin(), down.end());
}

std::string
ChaosPlan::summary() const
{
    std::ostringstream out;
    out << "seed=" << seed_ << " events=" << eventCount()
        << " fail=" << fails_ << " restore=" << restores_
        << " degrade=" << degrades_ << " slow=" << slowdowns_
        << " dead=" << dead_.size();
    return out.str();
}

} // namespace simnet
} // namespace ccube
