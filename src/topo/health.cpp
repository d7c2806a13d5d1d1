#include "topo/health.h"

#include "util/logging.h"

namespace ccube {
namespace topo {

namespace {

/** EWMA step: score ← score + alpha·(target − score). */
constexpr double kEwmaAlpha = 0.35;

/** Score below which an up channel is still quarantined. */
constexpr double kQuarantineThreshold = 0.5;

/** Fail events at or above this count mark the channel flapping (its
 *  probation is doubled on every subsequent restore). */
constexpr int kFlapLimit = 3;

} // namespace

ChannelHealthTracker::ChannelHealthTracker(int num_channels,
                                           int probation_runs)
    : probation_runs_(probation_runs),
      channels_(static_cast<std::size_t>(num_channels))
{
    CCUBE_CHECK(num_channels >= 0, "negative channel count");
}

void
ChannelHealthTracker::noteFail(int channel)
{
    if (channel < 0 || channel >= numChannels())
        return;
    Channel& c = channels_[static_cast<std::size_t>(channel)];
    c.up = false;
    c.probation_left = 0;
    ++c.fail_count;
    c.score += kEwmaAlpha * (0.0 - c.score);
}

void
ChannelHealthTracker::noteRestore(int channel)
{
    if (channel < 0 || channel >= numChannels())
        return;
    Channel& c = channels_[static_cast<std::size_t>(channel)];
    if (c.up)
        return; // spurious restore
    c.up = true;
    // A flapping link earns a longer sit-out: probation doubles once
    // the fail count crosses the flap limit.
    const bool flap = c.fail_count >= kFlapLimit;
    c.probation_left = probation_runs_ * (flap ? 2 : 1);
}

void
ChannelHealthTracker::noteDegrade(int channel, double factor)
{
    if (channel < 0 || channel >= numChannels())
        return;
    if (factor >= 1.0)
        return; // speed-up / restore-to-nominal is not suspicious
    Channel& c = channels_[static_cast<std::size_t>(channel)];
    c.score += 0.5 * kEwmaAlpha * (factor - c.score);
    if (c.score < 0.0)
        c.score = 0.0;
}

void
ChannelHealthTracker::noteRunSuccess()
{
    for (Channel& c : channels_) {
        if (!c.up)
            continue;
        if (c.probation_left > 0)
            --c.probation_left;
        c.score += kEwmaAlpha * (1.0 - c.score);
    }
}

bool
ChannelHealthTracker::excludedLocked(const Channel& channel) const
{
    return !channel.up || channel.probation_left > 0 ||
           channel.score < kQuarantineThreshold;
}

std::vector<int>
ChannelHealthTracker::excludedChannels() const
{
    std::vector<int> out;
    for (std::size_t id = 0; id < channels_.size(); ++id) {
        if (excludedLocked(channels_[id]))
            out.push_back(static_cast<int>(id));
    }
    return out;
}

bool
ChannelHealthTracker::anyReadmittable(
    const std::vector<int>& previous_excluded) const
{
    for (int id : previous_excluded) {
        if (id < 0 || id >= numChannels())
            continue;
        if (!excludedLocked(channels_[static_cast<std::size_t>(id)]))
            return true;
    }
    return false;
}

} // namespace topo
} // namespace ccube
