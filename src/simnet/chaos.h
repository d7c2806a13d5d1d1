#ifndef CCUBE_SIMNET_CHAOS_H_
#define CCUBE_SIMNET_CHAOS_H_

/**
 * @file
 * Seeded chaos engine: deterministic fault-churn scenario generation.
 *
 * A FaultPlan is hand-authored; a ChaosPlan is drawn from a seed — the
 * fuzzing side of the resilience story. Given a topology and a seed it
 * generates a randomized but fully reproducible churn scenario (link
 * kills, flapping fail/restore cycles, bandwidth degradations, node
 * slowdowns) expressed as an ordinary simnet::FaultPlan, so the same
 * scenario can drive both the DES fabric (applyFaultPlan) and, via
 * deadAtHorizon(), the functional supervisor's event feed.
 *
 * Determinism contract: two ChaosPlans built from the same graph,
 * seed, and options are identical event-for-event. The chaos fuzz
 * harness (tests/chaos_fuzz_test.cpp) leans on this to rerun any
 * failing seed exactly.
 *
 * Link granularity: faults hit *links* (both directed channels of a
 * pair), matching how a physical NVLink dies. On multi-link pairs the
 * paired reverse channel is chosen by position, so one link of a
 * double-NVLink pair can fail while its twin stays up — the scenario
 * the C-Cube double tree is most sensitive to.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "simnet/fault_plan.h"
#include "topo/graph.h"

namespace ccube {
namespace simnet {

/** Knobs for ChaosPlan generation. */
struct ChaosOptions {
    /** Simulated window fault events land in: every event time is
     *  drawn uniformly from (0, horizon_s). */
    double horizon_s = 0.05;

    /** Scenario size: the number of independent fault draws is
     *  uniform in [1, max_faults] (each draw may expand into several
     *  events, e.g. a flap cycle). */
    int max_faults = 3;
};

/**
 * One deterministic chaos scenario over a fixed topology.
 */
class ChaosPlan
{
  public:
    /** Draws the scenario. @p graph is only read (channel structure);
     *  ids in the plan are @p graph's channel ids. */
    ChaosPlan(const topo::Graph& graph, std::uint64_t seed,
              ChaosOptions options = {});

    /** The generating seed. */
    std::uint64_t seed() const { return seed_; }

    /** The scenario as a timed fault plan for applyFaultPlan(). */
    const FaultPlan& plan() const { return plan_; }

    /** Directed channel ids still failed once every event has fired —
     *  the persistent damage a re-planner must route around (empty
     *  when every kill restored within the horizon). */
    const std::vector<int>& deadAtHorizon() const { return dead_; }

    /** Event count of the underlying plan. */
    int eventCount() const
    {
        return static_cast<int>(plan_.events().size());
    }

    /** One-line description for logs / failure reports, e.g.
     *  "seed=42 events=7 fail=3 restore=2 degrade=1 slow=1 dead=2". */
    std::string summary() const;

  private:
    std::uint64_t seed_ = 0;
    FaultPlan plan_;
    std::vector<int> dead_;
    int fails_ = 0;
    int restores_ = 0;
    int degrades_ = 0;
    int slowdowns_ = 0;
};

} // namespace simnet
} // namespace ccube

#endif // CCUBE_SIMNET_CHAOS_H_
