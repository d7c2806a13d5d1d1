#ifndef CCUBE_SCHED_PROGRAM_H_
#define CCUBE_SCHED_PROGRAM_H_

/**
 * @file
 * The one schedule representation of every collective algorithm.
 *
 * A Program is world-neutral: a list of per-rank threads (a ring
 * body, a tree reducer or broadcaster pipeline, a detour forwarder),
 * each an ordered list of send / recv / recvReduce / forward / final
 * steps over (edge, chunk). Four builders produce it from the topo::
 * embeddings — ring by phase, tree by direction × phase mode, double
 * tree, multi-ring — and two interpreters run it: the ccl:: runtime
 * moves real floats through mailboxes (ccl/program_task.h), the
 * simnet:: DES moves timed bytes over channels
 * (simnet/program_driver.h). A test-only symbolic executor checks the
 * postcondition (every rank ends holding every contribution once),
 * in the spirit of GC3's chunk-level programs.
 *
 * Steps are stored loop-compressed: a Loop repeats its body `count`
 * times and each step names its chunk by a rule over the iteration
 * index i — local chunk (base + stride·i) mod chunks — so a P=512 ring
 * costs three loops per rank rather than 2(P−1) stored steps. Walking
 * a thread (loops, chunk rules, skip mask) is Cursor's job, shared by
 * every interpreter.
 *
 * The program also owns the chunk geometry — which slice of a payload
 * each global chunk covers (Program::geometry). The functional
 * interpreter slices buffers with it, the timed one reports it in
 * ScheduleResult, and the checkpoint and the Layer-Chunk Tables read
 * it from the program that runs, so no consumer re-derives a split.
 *
 * Semantics every interpreter honours:
 *  - the steps of a thread run strictly in order;
 *  - a send never waits for its receiver, except that a step marked
 *    after_drain is issued only once every earlier send of its thread
 *    has drained (the timed ring's step discipline; mailboxes already
 *    bound what a send may run ahead in the functional world);
 *  - each edge is a FIFO consumed by exactly one thread, and recv,
 *    recvReduce and forward take its next chunk;
 *  - a step whose global chunk the skip mask marks done is not run.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "topo/double_tree.h"
#include "topo/ring_embedding.h"
#include "topo/tree_embedding.h"

namespace ccube {
namespace sched {

/** Phase organisation of a tree collective. */
enum class PhaseMode {
    kTwoPhase,   ///< baseline: broadcast strictly after the reduction
    kOverlapped, ///< C1: each chunk's broadcast chains off its reduction
};

/**
 * Channel-lane assignment per tree and direction.
 *
 * kPointToPoint suits topologies where every logical edge owns a
 * dedicated physical pair (DGX-1): tree i keeps lane i for both
 * directions, so the two trees split double links. kSharedPort suits
 * switched fabrics where all of a node's flows exit through its
 * endpoint links: reduction rides lane 0 and broadcast lane 1, so an
 * early chunk's broadcast never queues behind reduction traffic
 * (preserving Observation #2's separate-channel premise).
 */
enum class LanePolicy {
    kPointToPoint,
    kSharedPort,
};

/** Which phases of the ring protocol a ring program runs. */
enum class RingPhase {
    /** ring_reduce_scatter: after P−1 steps position i holds the fully
     *  reduced slice (i+1) mod P. */
    kReduceScatter,
    /** ring_all_gather: position i starts owning slice (i+1) mod P and
     *  circulates it; every rank ends with every slice. */
    kAllGather,
    kAllReduce, ///< ring_allreduce: RS + AG, final markers
};

/** Which direction(s) of the tree protocol a tree program runs. */
enum class TreeDirection {
    /** tree_reduce: the root ends with the sum (others with partial
     *  sums). */
    kReduce,
    /** tree_broadcast: every rank ends with the root's buffer. */
    kBroadcast,
    kAllReduce, ///< tree_allreduce: reduction chained into broadcast
};

/**
 * Immutable per-chunk skip mask for resumed collectives: chunk c is
 * skipped by every rank when done(c) — its final reduced value is
 * already present in every rank's buffer (ccl::ChunkCheckpoint commits
 * a chunk only once all ranks recorded it). The mask is consulted at
 * GLOBAL chunk ids (the ids final markers carry, i.e. including a
 * tree's chunk offset). A default-constructed mask skips nothing.
 * Skipping is consistent across ranks because every rank consults the
 * same mask with the same chunk rules.
 */
class SkipMask
{
  public:
    SkipMask() = default;

    explicit SkipMask(std::vector<std::uint8_t> done)
        : done_(std::move(done))
    {
    }

    /** Whether any chunk is marked done (fast reject). */
    bool any() const
    {
        for (std::uint8_t bit : done_) {
            if (bit != 0)
                return true;
        }
        return false;
    }

    /** Whether chunk @p chunk should be skipped. Ids outside the mask
     *  are never skipped (a fresh run with an empty mask). */
    bool done(int chunk) const
    {
        return chunk >= 0 &&
               static_cast<std::size_t>(chunk) < done_.size() &&
               done_[static_cast<std::size_t>(chunk)] != 0;
    }

    /** Count of done chunks. */
    int doneCount() const
    {
        int count = 0;
        for (std::uint8_t bit : done_)
            count += bit != 0 ? 1 : 0;
        return count;
    }

  private:
    std::vector<std::uint8_t> done_;
};

/** What a step does. */
enum class Op : std::uint8_t {
    kSend,       ///< send the chunk on `edge`
    kRecv,       ///< take the chunk arriving on `edge` (overwrite)
    kRecvReduce, ///< take the chunk arriving on `edge` and add it in
    kForward,    ///< pass the chunk arriving on `edge` on to `out`
    kFinal,      ///< the chunk is fully reduced at this rank
};

/** A directed point-to-point link between two ranks. */
struct Edge {
    topo::NodeId src = topo::kInvalidNode;
    topo::NodeId dst = topo::kInvalidNode;
    int flow = 0; ///< mailbox flow id (functional world)
    int lane = 0; ///< parallel-channel preference (timed world)
    /** Physical path src → … → dst as Program::hops[hop_first, +hop_count);
     *  empty means "any shortest path". Inner nodes are never ranks: a
     *  route through a rank is split into edges and a forwarder. */
    int hop_first = 0;
    int hop_count = 0;
};

/** One instruction of a thread. */
struct Step {
    Op op = Op::kSend;
    bool after_drain = false; ///< kSend: see the file comment
    int edge = -1;            ///< kSend/kRecv*: the edge; kForward: in
    int out = -1;             ///< kForward: the outgoing edge
    int base = 0;             ///< chunk rule: (base + stride·i) mod n
    int stride = 0;
};

/** A loop: body steps [first_step, +num_steps) repeated count times. */
struct Loop {
    int count = 0;
    int first_step = 0;
    int num_steps = 0;
    std::string span; ///< phase-span name, empty for none
};

/** One per-rank pipeline. */
struct Thread {
    topo::NodeId rank = topo::kInvalidNode;
    const char* role = ""; ///< label handed to the rank task; unread
    int part = 0;          ///< payload part it moves
    int first_loop = 0;
    int num_loops = 0;
};

/**
 * A contiguous share of the payload: part p of n covers
 * [p/n, (p+1)/n) of every rank's buffer, split into `chunks` chunks
 * whose global ids start at chunk_offset (Program::geometry).
 */
struct Part {
    int chunks = 1;
    int chunk_offset = 0;
};

/** Where one global chunk lies in a payload: its part and [begin, end). */
template <typename T>
struct ChunkRange {
    int part = 0;
    T begin{};
    T end{};
};

/** Channel lanes of one tree, per direction. */
struct TreeLanes {
    int up = 0;   ///< reduction (child → parent)
    int down = 0; ///< broadcast (parent → child)
};

/** A complete collective schedule (see the file comment). */
struct Program {
    /** The collective's name (a string literal set by its builder):
     *  the watchdog's op attribution and the DES monitor label. */
    const char* op = "";
    int num_ranks = 0;
    std::vector<Part> parts;
    std::vector<Edge> edges;
    std::vector<topo::NodeId> hops;
    std::vector<Thread> threads;
    std::vector<Loop> loops;
    std::vector<Step> steps;
    /** Empty as built below; a resumed run sets it on its copy. */
    SkipMask skip;

    /** Global chunk count over all parts. */
    int numChunks() const;

    /** The physical route of @p edge (empty hops: shortest path). */
    topo::Route route(const Edge& edge) const;

    /**
     * The chunk geometry of a payload of @p total units (elements or
     * bytes), indexed by global chunk id: part p of n starts at
     * total·p/n, and its chunk c of K at part_begin + part_size·c/K.
     * Every consumer of "which slice is chunk c" reads it here — the
     * functional interpreter, the checkpoint, the Layer-Chunk Tables.
     * For integers the chunks tile [0, total) exactly, some empty when
     * a part has fewer elements than chunks.
     */
    template <typename T>
    std::vector<ChunkRange<T>> geometry(T total) const
    {
        std::vector<ChunkRange<T>> out(static_cast<std::size_t>(numChunks()));
        const T n = static_cast<T>(parts.size());
        for (std::size_t p = 0; p < parts.size(); ++p) {
            const T begin = total * static_cast<T>(p) / n;
            const T size = total * static_cast<T>(p + 1) / n - begin;
            const T k = static_cast<T>(parts[p].chunks);
            for (int c = 0; c < parts[p].chunks; ++c)
                out[static_cast<std::size_t>(parts[p].chunk_offset + c)] = {
                    static_cast<int>(p), begin + size * static_cast<T>(c) / k,
                    begin + size * static_cast<T>(c + 1) / k};
        }
        return out;
    }
};

/**
 * Walks one thread's steps in order, applying the chunk rules and
 * skipping steps the program's skip mask marks done.
 */
class Cursor
{
  public:
    Cursor(const Program& program, int thread);

    /** True once every step has been passed. */
    bool done() const { return loop_ == end_loop_; }

    /** The current step (valid while !done()). */
    const Step& step() const
    {
        return program_->steps[static_cast<std::size_t>(
            program_->loops[static_cast<std::size_t>(loop_)].first_step +
            pos_)];
    }

    /** Loop index of the current step (end of the thread when done). */
    int loop() const { return loop_; }

    /** Local chunk id of the current step, in [0, part chunks). */
    int chunk() const;

    /** Global chunk id of the current step. */
    int globalChunk() const { return chunk_offset_ + chunk(); }

    /**
     * Moves to the next step the skip mask keeps. Returns true when
     * that finished a loop iteration — the natural fairness boundary
     * (one ring step, one tree chunk, one forwarded chunk).
     */
    bool advance();

  private:
    /** Steps past masked steps and empty loops; true when it crossed
     *  an iteration boundary. */
    bool settle();
    bool next();

    const Program* program_;
    int chunks_;
    int chunk_offset_;
    int loop_;
    int end_loop_;
    int iter_ = 0;
    int pos_ = 0;
};

/**
 * Ring collective over @p ring (chunk k = the slice of ring position
 * k) on flow 0. One thread per rank, in ring-position order.
 */
Program ringProgram(const topo::RingEmbedding& ring, RingPhase phase);

/**
 * One tree's collective in @p direction over @p chunks chunks, on
 * flows 1 (reduce) and 2 (broadcast). Detour routes through ranks
 * become forwarder threads on the transit ranks; a non-root rank of an
 * overlapped AllReduce runs two concurrent pipelines (reducer,
 * broadcaster).
 */
Program treeProgram(const topo::TreeEmbedding& embedding,
                    TreeDirection direction, PhaseMode mode, int chunks,
                    TreeLanes lanes = {});

/**
 * Double-tree AllReduce: tree0 over the lower payload half (chunks
 * [0, K), flows 1/2), tree1 over the upper half (chunks [K, 2K),
 * flows 3/4), lanes per @p lanes.
 */
Program doubleTreeProgram(const topo::DoubleTreeEmbedding& embedding,
                          PhaseMode mode, int chunks_per_tree,
                          LanePolicy lanes = LanePolicy::kPointToPoint);

/**
 * NCCL-style multi-ring AllReduce: ring r carries payload part r
 * (chunk ids [r·P, (r+1)·P)); rings sharing an ordered pair get
 * distinct lanes so double links carry two rings without contention.
 */
Program multiRingProgram(const std::vector<topo::RingEmbedding>& rings);

} // namespace sched
} // namespace ccube

#endif // CCUBE_SCHED_PROGRAM_H_
