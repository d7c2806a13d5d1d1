#ifndef CCUBE_TOPO_HEALTH_H_
#define CCUBE_TOPO_HEALTH_H_

/**
 * @file
 * Per-channel health scoring for fault churn.
 *
 * A single failure is easy: remove the channel, re-plan. Real fabrics
 * *flap* — a marginal NVLink fails, restores, and fails again — and a
 * planner that eagerly re-admits every restored link thrashes between
 * embeddings. This tracker keeps an EWMA health score per channel fed
 * by fail/restore/degrade events plus a probation window on restore,
 * so the resilience supervisor can (a) exclude flapping links from
 * re-embedding even while they are nominally up, and (b) climb the
 * recovery ladder back to the C-Cube embedding only once a restored
 * link has stayed healthy through a given number of successful
 * collectives (its probation).
 *
 * Channel ids are the ids of the ORIGINAL graph the tracker was sized
 * for. topo::withoutChannels re-densifies ids on the survivor graph,
 * so callers must score/exclude in original-id space and only then
 * translate into a failed-channel list for recoverSchedule.
 */

#include <vector>

namespace ccube {
namespace topo {

/**
 * EWMA health score + probation state for every channel of a graph.
 * Not thread-safe; the supervisor serializes event feeds and runs.
 */
class ChannelHealthTracker
{
  public:
    /** @p probation_runs: successful collectives a restored channel
     *  must sit out before it becomes eligible for re-admission. */
    ChannelHealthTracker(int num_channels, int probation_runs);

    int numChannels() const
    {
        return static_cast<int>(channels_.size());
    }

    // ---- event feed (fabric side) ----

    /** Channel went down. Score decays toward 0. */
    void noteFail(int channel);

    /** Channel came back. Starts the probation window (doubled from
     *  the channel's third fail on: a flapping link); the score is NOT
     *  restored — only successful runs rebuild it. */
    void noteRestore(int channel);

    /** Channel degraded to @p factor of nominal bandwidth (< 1). The
     *  score decays half a step — degraded-but-alive is suspicious,
     *  not fatal. */
    void noteDegrade(int channel, double factor);

    /** One collective completed successfully. Advances probation and
     *  rebuilds the score of every channel that is up. */
    void noteRunSuccess();

    // ---- queries (planner side) ----

    /**
     * Channels the planner must avoid: down ∪ on-probation ∪
     * quarantined (up and past probation, but with an EWMA health
     * score — 1 = never faulted — still below 0.5: a flapping link
     * the planner must keep avoiding). This is the failed-channel
     * list handed to core::recoverSchedule (original-graph ids, both
     * directions — callers feed both directed ids of a failed link).
     */
    std::vector<int> excludedChannels() const;

    /** True when a channel left the excluded set since the last call
     *  to excludedChannels() was taken — i.e. a re-plan could climb
     *  the ladder. Purely a convenience for the supervisor. */
    bool anyReadmittable(const std::vector<int>& previous_excluded)
        const;

  private:
    struct Channel {
        bool up = true;
        double score = 1.0;
        int probation_left = 0;
        int fail_count = 0;
    };

    bool excludedLocked(const Channel& channel) const;

    int probation_runs_;
    std::vector<Channel> channels_;
};

} // namespace topo
} // namespace ccube

#endif // CCUBE_TOPO_HEALTH_H_
