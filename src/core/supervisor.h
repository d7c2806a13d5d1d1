#ifndef CCUBE_CORE_SUPERVISOR_H_
#define CCUBE_CORE_SUPERVISOR_H_

/**
 * @file
 * Self-healing resilience supervisor.
 *
 * The recovery ladder (core::recoverSchedule) answers "what schedule
 * still works after THIS failure" — a one-shot re-plan that returns
 * the rung's sched::Program. The supervisor runs exactly that program
 * (the fault benches time the same one in the DES). Real training
 * runs face *churn*: links flap, a retry hits a second fault, a
 * restored link must not be trusted immediately. The supervisor is the
 * long-lived state machine that owns a Communicator + schedule across
 * many collectives under ongoing faults:
 *
 *   - retry with exponential backoff and deterministic jitter on
 *     CollectiveError, within a bounded retry budget;
 *   - transient-vs-persistent fault distinction: an abort with no
 *     pending channel events (a stall or delay) retries the SAME
 *     topology; an abort with un-replanned fail events descends the
 *     recovery ladder (kCCube → kDoubleTree → kRing) before retrying;
 *   - chunk-granularity resume: a ccl::ChunkCheckpoint commits every
 *     chunk that became final at all ranks, so a same-geometry retry
 *     skips finished chunks (ccl::SkipMask) instead of redoing the
 *     whole message — after restoring partially-summed slices from the
 *     input snapshot;
 *   - re-admission: a topo::ChannelHealthTracker scores every channel;
 *     a restored link sits out a probation window (doubled for
 *     flapping links), and once it is readmittable the supervisor
 *     re-plans and climbs the ladder back toward the C-Cube embedding.
 *
 * Observability: every attempt emits a `supervisor.rung` trace instant
 * (args: rung, attempt), and every recovery that needed at least one
 * retry or re-plan reports (MTTR, retries) to obs::Monitor as
 * `recovery.mttr_ms` / `recovery.retries` under the --slo-mttr-ms
 * budget.
 *
 * Threading: the supervisor itself is single-threaded (one training
 * loop drives it); the collectives it launches are internally
 * concurrent. Channel events may be fed between allReduce() calls or
 * from another thread *while* one runs — feeds are mutex-guarded.
 */

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "ccl/checkpoint.h"
#include "ccl/communicator.h"
#include "ccl/mailbox.h"
#include "core/recovery.h"
#include "topo/graph.h"
#include "topo/health.h"
#include "util/rng.h"

namespace ccube {
namespace core {

/** Knobs for ResilienceSupervisor. */
struct SupervisorOptions {
    /** Retry budget per allReduce() call (attempts = retries + 1). */
    int max_retries = 4;

    /** Backoff before retry r (1-based): min(base·2^(r−1), max) plus
     *  a deterministic jitter in [0, base). */
    double backoff_base_s = 0.002;
    double backoff_max_s = 0.05;

    /** Successful collectives a restored channel sits out before it
     *  may be re-admitted (topo::ChannelHealthTracker). */
    int probation_runs = 3;

    /** Re-plan budget and chunking of the rung's program. */
    RecoveryOptions recovery;

    /** Wire protocol of every supervised collective. */
    ccl::Protocol proto = ccl::Protocol::kSimple;
};

/** Outcome of one supervised allReduce() call. */
struct SupervisorReport {
    /** Whether the collective completed (possibly after retries). */
    bool completed = false;

    /** Attempts launched (1 = clean first try). */
    int attempts = 0;

    /** Re-plans performed during this call. */
    int replans = 0;

    /** Ladder rung the final attempt ran on. */
    RecoveryKind rung = RecoveryKind::kNone;

    /** Wall seconds from the first failure of this call to completion
     *  (0 when the first attempt succeeded; detect + backoff +
     *  re-plan + rerun — the MTTR the monitor records). */
    double mttr_s = 0.0;

    /** Chunks the successful attempt skipped via checkpoint resume. */
    int chunks_resumed = 0;

    /** what() of the last CollectiveError when !completed (or when
     *  retries were needed); empty on a clean run. */
    std::string error;
};

/** Lifetime counters across all allReduce() calls. */
struct SupervisorStats {
    std::uint64_t collectives = 0;   ///< allReduce() calls
    std::uint64_t completions = 0;   ///< calls that completed
    std::uint64_t failures = 0;      ///< calls that exhausted budget
    std::uint64_t retries = 0;       ///< retried attempts
    std::uint64_t replans = 0;       ///< recoverSchedule invocations
    std::uint64_t demotions = 0;     ///< re-plans that moved DOWN-ladder
    std::uint64_t promotions = 0;    ///< re-plans that moved UP-ladder
    std::uint64_t chunks_resumed = 0;///< chunks skipped via checkpoint
};

/**
 * Long-lived fault-churn supervisor for one communicator + topology.
 */
class ResilienceSupervisor
{
  public:
    /**
     * Binds @p comm (must have numRanks() == @p graph.nodeCount()) to
     * @p graph and plans the initial schedule — the C-Cube embedding
     * when the healthy graph admits one. @p graph is copied.
     */
    ResilienceSupervisor(ccl::Communicator& comm,
                         const topo::Graph& graph,
                         SupervisorOptions options = {});

    // ---- fault event feed (fabric-manager side) ----
    // Channel ids are ORIGINAL graph ids; feed both directed ids of a
    // bidirectional link. Events are queued and consumed at the next
    // allReduce() (or replanNow()).

    /** Channel went down: marks the topology dirty (next abort is
     *  classified persistent; next run re-plans first). */
    void noteChannelFail(int channel_id);

    /** Channel came back: starts its probation window. */
    void noteChannelRestore(int channel_id);

    /** Channel degraded to @p factor of nominal bandwidth. Scoring
     *  only — degraded-but-alive links stay in the schedule. */
    void noteChannelDegrade(int channel_id, double factor);

    /**
     * Runs one supervised AllReduce over @p buffers (summed in place).
     * Never throws on collective failure — the report carries the
     * structured outcome; throws only on programmer error (size
     * mismatch). On completed=false the buffers are restored to their
     * ORIGINAL input values (no partial sums leak out).
     */
    SupervisorReport allReduce(ccl::RankBuffers& buffers);

    /**
     * Consumes pending channel events and re-plans immediately from
     * the tracker's excluded set (normally lazy at the next
     * allReduce()): updates the plan and the rung bookkeeping.
     * Returns true when the plan changed rung.
     */
    bool replanNow();

    /** Current ladder rung. */
    RecoveryKind rung() const { return plan_.kind; }

    /** Current schedule (graph, embeddings, the rung's program). */
    const RecoveryResult& plan() const { return plan_; }

    /** Lifetime counters. */
    const SupervisorStats& stats() const { return stats_; }

  private:
    /** Arms the checkpoint from plan_.program (drops it on an
     *  unroutable plan, which runs nothing). */
    void armCheckpoint(const ccl::RankBuffers& buffers);

    /** Emits the `supervisor.rung` trace instant. */
    void traceRung(int attempt) const;

    /** Backoff delay before retry @p retry (1-based). */
    double backoffDelay(int retry);

    ccl::Communicator& comm_;
    const topo::Graph graph_; ///< original healthy topology
    SupervisorOptions options_;

    topo::ChannelHealthTracker health_;
    util::Rng jitter_;

    /** The current plan; every attempt runs a copy of its program
     *  with the checkpoint's mask. */
    RecoveryResult plan_;
    std::vector<int> plan_excluded_; ///< excluded set plan_ was built on

    // Event feed state (guarded; everything else is caller-serialized).
    mutable std::mutex events_mutex_;
    bool topology_dirty_ = false;   ///< un-replanned fail events pending
    bool restore_pending_ = false;  ///< restore events since last plan

    ccl::ChunkCheckpoint checkpoint_;
    SupervisorStats stats_;
};

} // namespace core
} // namespace ccube

#endif // CCUBE_CORE_SUPERVISOR_H_
