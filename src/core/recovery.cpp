#include "core/recovery.h"

#include <chrono>
#include <utility>

#include "obs/trace.h"
#include "util/logging.h"

namespace ccube {
namespace core {

namespace {

/**
 * True when every ordered pair of ranks is NVLink-reachable on
 * @p graph — the precondition for embedTree()/makeMirroredDoubleTree()
 * (which CCUBE_CHECK-abort on an unreachable edge rather than throw,
 * so the ladder must prove routability before climbing a rung).
 */
bool
allPairsNvlinkReachable(const topo::Graph& graph, int num_ranks)
{
    for (topo::NodeId src = 0; src < num_ranks; ++src) {
        for (topo::NodeId dst = 0; dst < num_ranks; ++dst) {
            if (src == dst)
                continue;
            if (graph.shortestPath(src, dst, topo::LinkKind::kNvlink)
                    .empty())
                return false;
        }
    }
    return true;
}

} // namespace

const char*
recoveryKindName(RecoveryKind kind)
{
    switch (kind) {
    case RecoveryKind::kCCube:
        return "ccube";
    case RecoveryKind::kDoubleTree:
        return "double_tree";
    case RecoveryKind::kRing:
        return "ring";
    case RecoveryKind::kNone:
        return "none";
    }
    return "unknown";
}

RecoveryResult
recoverSchedule(const topo::Graph& graph,
                const std::vector<int>& failed_channels,
                const RecoveryOptions& options)
{
    const auto start = std::chrono::steady_clock::now();
    RecoveryResult out;
    out.graph = topo::withoutChannels(graph, failed_channels);
    const int num_ranks = options.search.num_ranks > 0
                              ? options.search.num_ranks
                              : out.graph.nodeCount();

    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    obs::ScopedSpan span(recorder, "recoverSchedule", "core.recovery",
                         obs::pids::core(), 0);
    span.arg("failed_channels",
             static_cast<double>(failed_channels.size()));

    // Rung 1: full C-Cube — a conflict-free double tree on the
    // survivors keeps the overlapped schedule at full performance.
    topo::EmbeddingSearchOptions search = options.search;
    search.num_ranks = num_ranks;
    if (auto embedding =
            topo::findConflictFreeDoubleTree(out.graph, search)) {
        out.kind = RecoveryKind::kCCube;
        out.double_tree = std::move(*embedding);
    } else if (allPairsNvlinkReachable(out.graph, num_ranks)) {
        // Rung 2: any routable mirrored double tree; the collective
        // completes despite channel contention.
        out.kind = RecoveryKind::kDoubleTree;
        out.double_tree =
            topo::makeMirroredDoubleTree(out.graph, num_ranks);
    } else if (std::vector<topo::RingEmbedding> rings =
                   topo::findDisjointRings(out.graph, num_ranks, 1);
               !rings.empty()) {
        // Rung 3: a ring only needs neighbor adjacency along one
        // Hamiltonian cycle, not all-pairs reachability.
        out.kind = RecoveryKind::kRing;
        out.ring = std::move(rings.front());
        out.program =
            sched::ringProgram(out.ring, sched::RingPhase::kAllReduce);
    }
    if (out.double_tree) {
        // A contended embedding runs two-phase (the paper's baseline
        // B) so reduction and broadcast never fight over one channel.
        out.program = sched::doubleTreeProgram(
            *out.double_tree,
            out.kind == RecoveryKind::kCCube ? sched::PhaseMode::kOverlapped
                                             : sched::PhaseMode::kTwoPhase,
            options.chunks_per_tree);
    }

    out.search_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    span.arg("rung", static_cast<double>(static_cast<int>(out.kind)));
    if (recorder.enabled())
        recorder.instantEvent(
            std::string("recovery.") + recoveryKindName(out.kind),
            "core.recovery", obs::pids::core(), 0,
            recorder.wallNowUs());
    return out;
}

} // namespace core
} // namespace ccube
