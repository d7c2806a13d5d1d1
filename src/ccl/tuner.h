#ifndef CCUBE_CCL_TUNER_H_
#define CCUBE_CCL_TUNER_H_

/**
 * @file
 * Auto-tuner: an NCCL-style selection table over
 * (algorithm × protocol × chunking) per message-size bucket.
 *
 * NCCL resolves "which algorithm/protocol should this collective use"
 * from tuning tables keyed by message size, topology and rank count;
 * this is the mini-CCL analog. The table is computed from the α-β
 * model (model::RingModel / TreeModel / OverlappedTreeModel with
 * model::applyProtocol for the LL/Simple cost shapes) against the
 * slowest NVLink channel of the physical topology, and cached per
 * (topology signature, P). Lookups after the first are a mutex-guarded
 * map find plus a bucket index — cheap enough to sit on the dispatch
 * path of every Communicator::runAuto call, which runs the pick as
 * allReduceProgram() → ccl::runProgram.
 *
 * Determinism: the table is a pure function of the graph and P (no
 * wall clock), so tuner tables are identical across runs and across
 * sweep job counts.
 */

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "ccl/protocol.h"
#include "model/alpha_beta.h"
#include "sched/program.h"

namespace ccube {

namespace topo {
class Graph;
}

namespace ccl {

/** The AllReduce algorithms the tuner chooses between. */
enum class AllReduceAlgorithm {
    kRing,           ///< 2(P−1)-step ring (R)
    kTree,           ///< two-phase single tree
    kOverlappedTree, ///< reduction-broadcast chained single tree (C1)
    kDoubleTree,     ///< two-phase double tree (B)
    kCCubeDoubleTree,///< overlapped double tree (C-Cube)
};

/** One selection-table cell: what to run for one size bucket. */
struct TunerChoice {
    AllReduceAlgorithm algorithm = AllReduceAlgorithm::kCCubeDoubleTree;
    Protocol protocol = Protocol::kSimple;
    int num_chunks = 8;        ///< per tree for tree algorithms
    double predicted_us = 0.0; ///< model-predicted completion time
};

/** Short display name: "ring", "tree", "overlapped_tree",
 *  "double_tree", "ccube_double_tree". */
const char* algorithmName(AllReduceAlgorithm algorithm);

/**
 * The AllReduce program of @p algorithm on the physical topology
 * @p graph with @p p ranks: embeds the logical topology it needs (a
 * Hamiltonian ring, an inorder tree with detours, or a conflict-free
 * double tree — checked to exist) and builds it with @p num_chunks
 * chunks (per tree for the tree algorithms).
 */
sched::Program allReduceProgram(const topo::Graph& graph, int p,
                                AllReduceAlgorithm algorithm,
                                int num_chunks);

/**
 * The process-wide selection-table cache.
 *
 * Thread-safe: every public method takes the internal mutex. Tables
 * are built eagerly on the first query for a (topology, P) pair —
 * 23 size buckets × 5 algorithms × 2 protocols of closed-form model
 * evaluations, microseconds of work.
 */
class Tuner
{
  public:
    /** The process-wide instance. */
    static Tuner& global();

    /**
     * Best (algorithm × protocol × chunking) for an AllReduce of
     * @p elems floats per rank on @p graph with @p p ranks.
     */
    TunerChoice choose(const topo::Graph& graph, int p,
                       std::size_t elems);

    /** Best protocol for a *fixed* algorithm at this size. */
    Protocol chooseProtocol(const topo::Graph& graph, int p,
                            std::size_t elems,
                            AllReduceAlgorithm algorithm);

    /**
     * Human-readable dump of the full selection table for
     * (@p graph, @p p): one row per size bucket with the per-algorithm
     * protocol picks and the overall best cell. CI archives this as
     * tuner_table.txt.
     */
    std::string formatTable(const topo::Graph& graph, int p);

    /** Drops every cached table (tests use this between topologies). */
    void clearCache();

  private:
    /** Per-bucket table entry. */
    struct Cell {
        /** Best protocol per algorithm, indexed by the enum value. */
        std::vector<Protocol> proto_by_alg;
        TunerChoice best;
    };
    struct Table {
        model::AlphaBeta link; ///< Simple-protocol channel model
        std::vector<Cell> buckets;
    };

    Table& tableFor(const topo::Graph& graph, int p);

    std::mutex mutex_;
    /** Keyed by (topology signature, P). */
    std::map<std::pair<std::string, int>, Table> cache_;
};

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_TUNER_H_
