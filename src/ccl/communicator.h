#ifndef CCUBE_CCL_COMMUNICATOR_H_
#define CCUBE_CCL_COMMUNICATOR_H_

/**
 * @file
 * Communicator: the rank/"GPU" execution context of the functional
 * collective library.
 *
 * One persistent thread per rank plays the role of one GPU running
 * persistent kernels (ccl::RankExecutor, see ccl/state_machine.h),
 * driving that rank's RankTasks of every collective; mailboxes play
 * the role of NVLink P2P receive buffers. Mailboxes are keyed by
 * (src, dst, flow) because one physical link may carry several
 * logical flows (e.g. the two trees of a double tree, or a detour
 * passing through a transit GPU) with independent buffer pools —
 * exactly as NCCL allocates per-channel buffers.
 *
 * The communicator holds exactly the mailboxes its bound programs use:
 * ccl::bindProgram resolves each program edge to its mailbox once,
 * creating it on first use, and the per-chunk loops never look one up
 * — the paper's statically built channel plan. Flow ids are assigned
 * by the sched:: program builders (sched/program.cpp).
 */

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "ccl/allreduce.h"
#include "ccl/fault.h"
#include "ccl/mailbox.h"
#include "ccl/state_machine.h"

namespace ccube {

namespace topo {
class Graph;
} // namespace topo

namespace ccl {

class AllReducePlan;
class RankTask;

/**
 * A group of ranks that communicate through mailboxes.
 */
class Communicator
{
  public:
    /**
     * Creates a communicator of @p num_ranks ranks whose mailboxes
     * have @p mailbox_slots receive buffers each. @p exec_mode selects
     * the engine runTasks() drives collectives on: this communicator's
     * persistent rank threads (default) or the process-wide pool.
     */
    explicit Communicator(int num_ranks, int mailbox_slots = 4,
                          RankExecutor::Mode exec_mode =
                              RankExecutor::defaultMode());

    ~Communicator();

    /** Number of participating ranks. */
    int numRanks() const { return num_ranks_; }

    /**
     * The mailbox carrying flow @p flow (>= 0) from @p src to @p dst,
     * created on first use. Thread-safe: every call takes the
     * registry mutex, so callers resolve a mailbox once (bindProgram)
     * rather than per chunk. Its address never changes for the
     * communicator's lifetime.
     */
    Mailbox& mailbox(int src, int dst, int flow);

    /**
     * Runs @p body concurrently on every rank's persistent thread (in
     * either mode) and waits for all of them: one single-step task
     * per rank, so a body may block on its peers. The collective
     * algorithms use runTasks().
     *
     * @p op names the collective for watchdog/abort attribution (a
     * string literal; stored by pointer). When a deadline is set (see
     * setDeadline) the calling thread watches the whole run while it
     * waits for it (StateMachineEngine::run): if any rank wedges past
     * the deadline the abort epoch trips, every bounded spin
     * unblocks, and run() throws a structured CollectiveError naming
     * the failed rank, op, and blocked mailbox — instead of hanging.
     * A rank killed by the FaultInjector trips the same abort,
     * blaming that rank, even when no peer waited for it. An
     * abort poisons the communicator (like NCCL after ncclCommAbort):
     * further run() calls rethrow until clearAbort().
     *
     * @p proto is the wire protocol the collective's mailbox traffic
     * uses — recorded as a `ccl.proto.<name>` telemetry counter so
     * traces show which protocol each collective ran (the body itself
     * passes the protocol to its mailbox ops).
     */
    void run(const std::function<void(int rank)>& body,
             const char* op = "collective",
             Protocol proto = Protocol::kSimple);

    /** Execution engine this communicator was created with. */
    RankExecutor::Mode engineMode() const { return exec_mode_; }

    /**
     * Drives @p tasks to completion on this communicator's engine —
     * the persistent rank threads, or the shared StateMachineEngine
     * pool under Mode::kStateMachine — under the same envelope as
     * run(): poison check, deadline, monitor collective edge,
     * abort-wins error surfacing. @p op as in run().
     */
    void runTasks(std::vector<std::unique_ptr<RankTask>> tasks,
                  const char* op = "collective",
                  Protocol proto = Protocol::kSimple);

    /**
     * Auto-tuned AllReduce: consults the ccl::Tuner's cached selection
     * table for (topology shape, P, message size) and runs the chosen
     * (algorithm × protocol × chunking) cell — the NCCL-style "just
     * give me the fastest schedule" entry point. Defined in
     * tuner.cpp.
     *
     * The cell's program comes from this communicator's plan
     * (AllReducePlan, ccl/tuner.h), kept for the graph of the last
     * call: the embeddings are searched once per graph and each
     * (algorithm, chunk count) program is built and bound to its
     * mailboxes once, then shared by every later call (a
     * `ccl.plan.hit`; a build counts `ccl.plan.miss`). A @p graph
     * whose content (name, switch flags, any channel's endpoints,
     * kind, bandwidth or latency) differs from the plan's drops the
     * plan and starts a new one. The plan survives clearAbort().
     */
    AllReduceTrace runAuto(RankBuffers& buffers,
                           const topo::Graph& graph);

    /** runAuto's current plan (null before the first runAuto). */
    const AllReducePlan* autoPlan() const { return plan_.get(); }

    // ---- fault tolerance ----

    /**
     * Sets the per-collective watchdog deadline; zero disables the
     * watchdog (the default unless CCUBE_CCL_DEADLINE_MS is set).
     */
    void setDeadline(std::chrono::nanoseconds deadline);

    /** Process default: CCUBE_CCL_DEADLINE_MS, else zero (disabled). */
    static std::chrono::nanoseconds defaultDeadline();

    /** Attaches a fault injector (borrowed; null detaches). */
    void setFaultInjector(FaultInjector* injector);

    /**
     * Trips the abort epoch with @p info: every rank blocked in a
     * bounded spin throws AbortedWait, the in-flight (or next) run()
     * surfaces a CollectiveError. Callable from any thread — this is
     * the ncclCommAbort analog a deadline overrun also uses.
     */
    void abort(CollectiveError::Info info);

    /** Whether the abort epoch is tripped. */
    bool aborted() const { return fault_.abortState().aborted(); }

    /**
     * Re-arms an aborted communicator for further collectives:
     * flushes every mailbox the dead collective may have left chunks
     * in, then retires the abort generation. An abort that trips
     * concurrently (Communicator::abort is callable from any thread)
     * is NOT silently erased: the clear is epoch-checked, and a
     * generation that tripped mid-flush gets its own flush before
     * being retired — clearAbort() returns with the communicator
     * clean and every generation it retired actually flushed.
     */
    void clearAbort();

    /**
     * Test-only: @p hook runs after each mailbox flush inside
     * clearAbort(), before the epoch-checked clear — the window the
     * abort-during-clear regression test races an abort into. Null
     * removes the hook.
     */
    void setClearAbortHook(std::function<void()> hook);

    /** The fault runtime shared with the sync primitives. */
    CommFaultContext& faultContext() { return fault_; }

  private:
    /** The persistent rank threads (created on first use; one
     *  long-lived thread per rank). */
    RankExecutor& executor();

    /** Shared collective envelope of run()/runTasks(): poison check,
     *  monitor edge, abort-wins surfacing around @p engine running
     *  @p tasks under this communicator's deadline. */
    void runEnvelope(const char* op, StateMachineEngine& engine,
                     std::vector<std::unique_ptr<RankTask>> tasks);

    const int num_ranks_;
    const int mailbox_slots_;
    const RankExecutor::Mode exec_mode_;

    /** Every mailbox created so far, keyed by (src·P + dst) << 32 |
     *  flow; guarded by mailboxes_mutex_. */
    std::unordered_map<std::uint64_t, std::unique_ptr<Mailbox>>
        mailboxes_;
    std::mutex mailboxes_mutex_;

    std::once_flag executor_once_;
    std::unique_ptr<RankExecutor> executor_;

    // Fault tolerance: abort epoch + per-rank progress table, and the
    // per-collective deadline.
    CommFaultContext fault_;
    std::chrono::nanoseconds deadline_ = defaultDeadline();

    // Test-only interposition point inside clearAbort() (see
    // setClearAbortHook).
    std::function<void()> clear_abort_hook_;

    /** runAuto's plan for the graph of its last call. */
    std::unique_ptr<AllReducePlan> plan_;
};

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_COMMUNICATOR_H_
