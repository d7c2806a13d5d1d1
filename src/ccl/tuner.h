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
 * path of every Communicator::runAuto call.
 *
 * runAuto runs the pick from its communicator's AllReducePlan: the
 * plan of the graph that communicator last ran runAuto on. It holds
 * an exact copy of that graph's content (name, switch flags, every
 * channel's endpoints, kind, bandwidth and latency), the embeddings
 * built on it — the double tree searched at most once, the
 * Hamiltonian ring and the inorder tree each built at most once — and
 * one bound program (ccl/program_task.h) per (algorithm, chunk
 * count) the tuner has picked on it. A call whose graph differs in
 * any of that content drops the plan and builds a new one; only the
 * last graph is kept. The content is compared exactly, never by hash
 * or by the tuner's topology signature, which two graphs missing
 * different links can share. Every call counts `ccl.plan.hit` (the
 * cell's program was bound: no search, no build, no mailbox lookup,
 * no copy) or `ccl.plan.miss`. The search is seeded and
 * deterministic, so a planned program is the one a fresh
 * allReduceProgram() would build.
 *
 * Determinism: the table is a pure function of the graph and P (no
 * wall clock), so tuner tables are identical across runs and across
 * sweep job counts.
 */

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ccl/protocol.h"
#include "model/alpha_beta.h"
#include "sched/program.h"
#include "topo/graph.h"

namespace ccube {
namespace ccl {

class Communicator;
struct BoundProgram;

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
 * runAuto's compiled plan for one graph on one communicator (see the
 * file comment): the graph's content, its embeddings and the bound
 * program of every (algorithm, chunk count) picked on it. Not
 * thread-safe; its communicator runs one collective at a time.
 */
class AllReducePlan
{
  public:
    /** An empty plan for @p graph (copied) with @p p ranks. */
    AllReducePlan(const topo::Graph& graph, int p);

    /** Whether @p graph has exactly the content this plan is for. */
    bool matches(const topo::Graph& graph) const;

    /** The bound program of (@p algorithm, @p num_chunks), or null
     *  when it was never built. */
    std::shared_ptr<const BoundProgram>
    find(AllReduceAlgorithm algorithm, int num_chunks) const;

    /** Builds the program of (@p algorithm, @p num_chunks), binds it
     *  to @p comm and keeps it. */
    std::shared_ptr<const BoundProgram>
    add(Communicator& comm, AllReduceAlgorithm algorithm, int num_chunks);

  private:
    friend sched::Program allReduceProgram(const topo::Graph&, int,
                                           AllReduceAlgorithm, int);

    /** The program of (@p algorithm, @p num_chunks) over this plan's
     *  embeddings, each built on first use. */
    sched::Program build(AllReduceAlgorithm algorithm, int num_chunks);

    topo::Graph graph_;
    int p_;
    std::optional<topo::RingEmbedding> ring_;
    std::optional<topo::TreeEmbedding> tree_;
    std::optional<topo::DoubleTreeEmbedding> double_tree_;
    std::map<std::pair<AllReduceAlgorithm, int>,
             std::shared_ptr<const BoundProgram>>
        programs_;
};

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

    /**
     * Human-readable dump of the full selection table for
     * (@p graph, @p p): one row per size bucket with the per-algorithm
     * protocol picks and the overall best cell. Tests read it; nothing
     * writes it to a file.
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
