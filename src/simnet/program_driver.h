#ifndef CCUBE_SIMNET_PROGRAM_DRIVER_H_
#define CCUBE_SIMNET_PROGRAM_DRIVER_H_

/**
 * @file
 * The timed interpreter of sched::Program — the one entry point of
 * every DES collective: callers build the program with a sched::
 * builder and hand it to runProgram (or, under a fault plan, to
 * runProgramWithFaults in simnet/fault_plan.h).
 *
 * Construction compiles every edge's route on the edge's lane into
 * TransferEngine steps (route handle = edge index); an edge that
 * names no route takes the shortest NVLink path, or the shortest PCIe
 * path when no NVLink path exists (so a fallback ring over PCIe peer
 * links simulates too). Each program thread then walks its steps at
 * simulated time: a send hands the engine the edge's handle, the
 * part's chunk bytes and a (driver, thread, edge) arrival — no route,
 * lane or channel is looked up per send. A send carries on without
 * waiting, unless the step is marked after_drain; recv, recvReduce
 * and forward wait for the edge's next arrival; a final marker stamps
 * chunk_at_rank with the landing time of the latest chunk the thread
 * has taken (a ring rank still waiting for its own send to drain has
 * the chunk from the moment it lands). A transfer's completion first
 * resumes its sender if it waits for the drain, then delivers the
 * arrival and resumes the thread waiting on that edge — all inside the
 * completion event, so a forwarder re-sends a detour chunk exactly
 * when store-and-forward would.
 */

#include <vector>

#include "sched/program.h"
#include "simnet/collective_schedule.h"
#include "simnet/transfer_engine.h"

namespace ccube {
namespace simnet {

/**
 * One timed run of a program. Usage: construct, start(), run the
 * simulation, read result(). Two drivers may share a Network.
 */
class ProgramDriver
{
  public:
    /** @p total_bytes is split evenly over the program's parts, and
     *  each part evenly over its chunks; the result reports that
     *  split as the program's geometry. */
    ProgramDriver(Network& network, const sched::Program& program,
                  double total_bytes,
                  ccl::Protocol proto = ccl::Protocol::kSimple);

    // The driver borrows the program: it must outlive the run.
    ProgramDriver(Network&, sched::Program&&, double,
                  ccl::Protocol = ccl::Protocol::kSimple) = delete;

    // Scheduled completions hold `this`.
    ProgramDriver(const ProgramDriver&) = delete;
    ProgramDriver& operator=(const ProgramDriver&) = delete;

    /** Starts every thread at simulated time @p at. */
    void start(double at);

    /** True once every rank has every chunk the skip mask keeps. */
    bool finished() const { return pending_ == 0; }

    /** Result; valid once the simulation drained with finished(). */
    ScheduleResult result() const;

    /**
     * Like result() but tolerates an unfinished run (a faulted run
     * whose transfers died on a failed channel): chunks that never
     * arrived keep the -1.0 sentinel in chunk_at_rank / chunk_ready,
     * and completion_time is @p stalled_at.
     */
    ScheduleResult partialResult(double stalled_at) const;

  private:
    struct ThreadState {
        sched::Cursor cursor;
        int in_flight = 0;       ///< sends not yet drained
        bool awaits_drain = false;
        double landed = 0.0;     ///< latest landing time taken
    };

    /** Landing times of the chunks an edge delivered, not yet taken. */
    struct Inbox {
        std::vector<double> landed;
        std::size_t head = 0;

        bool empty() const { return head == landed.size(); }
        void push(double at);
        double pop() { return landed[head++]; }
    };

    void resume(int thread);
    void issue(int thread, int edge);
    void onComplete(int thread, int edge);

    Network& net_;
    TransferEngine engine_;
    const sched::Program& program_;
    double total_bytes_;
    std::vector<double> chunk_bytes_; ///< per part
    std::vector<ThreadState> threads_;
    std::vector<Inbox> inbox_; ///< per edge
    std::vector<int> waiter_;  ///< per edge: thread waiting, or -1
    std::vector<std::vector<double>> available_at_; ///< [rank][chunk]
    int pending_ = 0;
    double completion_time_ = 0.0; ///< latest stamp so far
};

/**
 * Runs @p program to completion on @p simulation's clock and reports
 * it to obs::Monitor under program.op.
 */
ScheduleResult runProgram(sim::Simulation& simulation, Network& network,
                          const sched::Program& program, double total_bytes,
                          ccl::Protocol proto = ccl::Protocol::kSimple);

/**
 * The physical channel ids a tree program on @p embedding occupies in
 * one direction: laneChannel() on @p lane for every hop, the lane
 * pick the driver's route compiler makes. @p down selects
 * broadcast-direction (parent → child) routes; false selects
 * reduction-direction (child → parent). Sorted, deduped.
 * Channels inside switch cut-through runs are included even though the
 * engine models them as pure delay; analyzers that skip traffic-less
 * channels are unaffected.
 */
std::vector<int> treeChannelIds(const topo::Graph& graph,
                                const topo::TreeEmbedding& embedding,
                                int lane, bool down);

} // namespace simnet
} // namespace ccube

#endif // CCUBE_SIMNET_PROGRAM_DRIVER_H_
