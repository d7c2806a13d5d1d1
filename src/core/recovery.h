#ifndef CCUBE_CORE_RECOVERY_H_
#define CCUBE_CORE_RECOVERY_H_

/**
 * @file
 * Degraded-topology schedule recovery.
 *
 * When a channel fails mid-training (detected by the ccl watchdog on
 * the runtime side, or by a dead flow in the simnet DES), the C-Cube
 * embedding that assumed the full topology is no longer valid. This
 * module re-plans over the surviving graph, walking a fallback ladder
 * from best to worst:
 *
 *   1. kCCube      — embedding_search finds a conflict-free double
 *                    tree on the survivors: full overlapped C-Cube
 *                    performance is retained.
 *   2. kDoubleTree — no conflict-free embedding, but every pair is
 *                    still NVLink-reachable: a mirrored double tree
 *                    with channel contention (run two-phase, like the
 *                    paper's baseline B).
 *   3. kRing       — disjoint rings still exist: classic ring
 *                    AllReduce bandwidth.
 *   4. kNone       — the surviving graph cannot route a collective
 *                    at all (e.g. a partitioned fabric).
 *
 * The ladder also turns the rung into the sched::Program that runs
 * it, in one place: the supervisor runs that program on the
 * functional runtime, and the fault benches time the same program in
 * the DES (simnet::runProgram), so both worlds run one schedule.
 *
 * bench/abl_fault_recovery drives this end-to-end: fail a link →
 * detect → recoverSchedule → re-run the collective, reporting
 * time-to-recover and post-recovery bandwidth per fault scenario.
 */

#include <optional>
#include <vector>

#include "sched/program.h"
#include "topo/double_tree.h"
#include "topo/embedding_search.h"
#include "topo/graph.h"
#include "topo/ring_embedding.h"

namespace ccube {
namespace core {

/** Rung of the recovery ladder a re-plan landed on. */
enum class RecoveryKind {
    kCCube,      ///< conflict-free double tree (full performance)
    kDoubleTree, ///< routable mirrored double tree (contended)
    kRing,       ///< disjoint-ring fallback
    kNone,       ///< unrecoverable: surviving graph cannot route
};

/** Stable name for table and report output. */
const char* recoveryKindName(RecoveryKind kind);

/** Knobs for recoverSchedule. */
struct RecoveryOptions {
    /** Embedding search budget on the surviving graph. num_ranks 0
     *  keeps "all graph nodes are ranks". */
    topo::EmbeddingSearchOptions search;

    /** Chunks per tree of the double-tree rungs' program. */
    int chunks_per_tree = 8;
};

/** Outcome of one re-plan over a degraded topology. */
struct RecoveryResult {
    RecoveryKind kind = RecoveryKind::kNone;

    /** The surviving graph the schedule below embeds into. */
    topo::Graph graph{"unrecovered"};

    /** Double tree (kCCube: conflict-free; kDoubleTree: contended). */
    std::optional<topo::DoubleTreeEmbedding> double_tree;

    /** Ring fallback (kRing; empty otherwise). */
    topo::RingEmbedding ring;

    /**
     * The rung's collective: kCCube runs the double tree overlapped,
     * kDoubleTree two-phase (contended channels break the overlap
     * premise, as in the paper's baseline B), kRing the ring
     * AllReduce; empty on kNone (program.op "").
     */
    sched::Program program;

    /** Wall-clock seconds the re-plan (search + fallbacks) took. */
    double search_seconds = 0.0;

    /** Whether any schedule was recovered. */
    bool usable() const { return kind != RecoveryKind::kNone; }
};

/**
 * Re-plans the collective over @p graph minus @p failed_channels
 * (directed channel ids of @p graph; list both directions for a
 * bidirectional link failure). Walks the recovery ladder and never
 * panics on an unroutable survivor graph — unroutability is reported
 * as kNone, not a crash.
 */
RecoveryResult recoverSchedule(const topo::Graph& graph,
                               const std::vector<int>& failed_channels,
                               const RecoveryOptions& options = {});

} // namespace core
} // namespace ccube

#endif // CCUBE_CORE_RECOVERY_H_
