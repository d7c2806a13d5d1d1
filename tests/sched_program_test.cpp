/**
 * @file
 * Symbolic postcondition checks of sched::Program — the third
 * interpreter, next to the ccl:: float runtime and the simnet:: DES.
 *
 * The symbolic executor runs a program single-threaded over unbounded
 * FIFO edges, tracking for every (rank, chunk) how many times each
 * rank's contribution has been summed in. An AllReduce program must
 * end with every rank holding every contribution exactly once and a
 * final marker per (rank, chunk) placed only once the chunk is
 * complete; reduce-scatter leaves each slice complete at its owner
 * only; tree_reduce leaves the full sum at the root only. Mutants that
 * drop or duplicate a single dynamic recvReduce must be rejected.
 */

#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "ccl/checkpoint.h"
#include "ccl/communicator.h"
#include "ccl/program_task.h"
#include "sched/program.h"
#include "topo/dgx1.h"
#include "topo/dgx2.h"
#include "topo/double_tree.h"
#include "topo/ring_embedding.h"
#include "topo/switch_fabric.h"
#include "topo/tree_embedding.h"

namespace ccube {
namespace sched {
namespace {

/** Contribution counts, one per rank. */
using Counts = std::vector<int>;

struct Message {
    int tag = -1;
    Counts counts;
};

/** Which single dynamic recvReduce a mutant alters. */
struct Mutation {
    enum class Kind { kNone, kDrop, kDuplicate };
    Kind kind = Kind::kNone;
    int index = -1; ///< dynamic recvReduce ordinal
};

/** The symbolic interpreter. */
class SymbolicRun
{
  public:
    explicit SymbolicRun(const Program& program, Mutation mutation = {})
        : program_(program), mutation_(mutation),
          queues_(program.edges.size()),
          finals_(static_cast<std::size_t>(program.num_ranks))
    {
        const int p = program.num_ranks;
        const int n = program.numChunks();
        state_.assign(static_cast<std::size_t>(p),
                      std::vector<Counts>(static_cast<std::size_t>(n),
                                          Counts(static_cast<std::size_t>(p),
                                                 0)));
        for (int r = 0; r < p; ++r) {
            for (int c = 0; c < n; ++c) {
                Counts& counts = at(r, c);
                if (program.skip.done(c))
                    counts.assign(static_cast<std::size_t>(p), 1);
                else
                    counts[static_cast<std::size_t>(r)] = 1;
            }
        }
        for (std::size_t t = 0; t < program.threads.size(); ++t)
            cursors_.emplace_back(program, static_cast<int>(t));
    }

    /** Runs every thread to completion; false (with error()) on a
     *  deadlock, a tag mismatch or a premature final marker. */
    bool run()
    {
        bool progress = true;
        while (progress) {
            progress = false;
            bool all_done = true;
            for (std::size_t t = 0; t < cursors_.size(); ++t) {
                while (!cursors_[t].done()) {
                    const int r = stepThread(static_cast<int>(t));
                    if (r < 0)
                        return false;
                    if (r == 0)
                        break;
                    progress = true;
                }
                all_done = all_done && cursors_[t].done();
            }
            if (all_done) {
                for (const auto& queue : queues_) {
                    if (!queue.empty())
                        return fail("chunks left undelivered on an edge");
                }
                return true;
            }
        }
        return fail("deadlock: every unfinished thread waits on an "
                    "empty edge");
    }

    const std::string& error() const { return error_; }

    /** AllReduce postcondition: every rank holds every contribution
     *  exactly once, and was marked final once per kept chunk. */
    bool allReduced() const
    {
        for (int r = 0; r < program_.num_ranks; ++r) {
            std::vector<int> marks(
                static_cast<std::size_t>(program_.numChunks()), 0);
            for (int c : finals_[static_cast<std::size_t>(r)])
                ++marks[static_cast<std::size_t>(c)];
            for (int c = 0; c < program_.numChunks(); ++c) {
                if (!complete(r, c))
                    return false;
                const int want = program_.skip.done(c) ? 0 : 1;
                if (marks[static_cast<std::size_t>(c)] != want)
                    return false;
            }
        }
        return true;
    }

    /** Whether rank @p r holds every contribution to chunk @p c once. */
    bool complete(int r, int c) const
    {
        for (int n : state_[static_cast<std::size_t>(r)]
                           [static_cast<std::size_t>(c)])
            if (n != 1)
                return false;
        return true;
    }

  private:
    Counts& at(int r, int c)
    {
        return state_[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
    }

    bool fail(const std::string& what)
    {
        error_ = what;
        return false;
    }

    /** One step: 1 done, 0 blocked, −1 failed. */
    int stepThread(int t)
    {
        Cursor& cursor = cursors_[static_cast<std::size_t>(t)];
        const Step& step = cursor.step();
        const int rank = program_.threads[static_cast<std::size_t>(t)].rank;
        const int global = cursor.globalChunk();
        bool repeat = false;
        switch (step.op) {
          case Op::kSend:
            queue(step.edge).push_back(Message{cursor.chunk(), at(rank, global)});
            break;
          case Op::kRecv:
          case Op::kRecvReduce:
          case Op::kForward: {
            if (step.op == Op::kRecvReduce &&
                ++recv_reduces_ == mutation_.index) {
                if (mutation_.kind == Mutation::Kind::kDrop)
                    break;
                repeat = mutation_.kind == Mutation::Kind::kDuplicate;
            }
            std::deque<Message>& in = queue(step.edge);
            if (in.empty()) {
                if (step.op == Op::kRecvReduce)
                    --recv_reduces_; // retried later, same ordinal
                return 0;
            }
            Message msg = std::move(in.front());
            in.pop_front();
            if (step.op == Op::kForward) {
                queue(step.out).push_back(std::move(msg));
                break;
            }
            if (msg.tag != cursor.chunk()) {
                fail("chunk " + std::to_string(msg.tag) + " arrived, " +
                     std::to_string(cursor.chunk()) + " expected");
                return -1;
            }
            Counts& mine = at(rank, global);
            for (std::size_t i = 0; i < mine.size(); ++i)
                mine[i] = step.op == Op::kRecv ? msg.counts[i]
                                               : mine[i] + msg.counts[i];
            break;
          }
          case Op::kFinal:
            if (!complete(rank, global)) {
                fail("final marker before chunk " + std::to_string(global) +
                     " is complete at rank " + std::to_string(rank));
                return -1;
            }
            finals_[static_cast<std::size_t>(rank)].push_back(global);
            break;
        }
        if (!repeat)
            cursor.advance();
        return 1;
    }

    std::deque<Message>& queue(int edge)
    {
        return queues_[static_cast<std::size_t>(edge)];
    }

    const Program& program_;
    Mutation mutation_;
    std::vector<Cursor> cursors_;
    std::vector<std::deque<Message>> queues_;
    std::vector<std::vector<Counts>> state_; ///< [rank][chunk]
    std::vector<std::vector<int>> finals_;   ///< [rank] in marker order
    int recv_reduces_ = 0;
    std::string error_;
};

/** Dynamic recvReduce count of a healthy run. */
int
countRecvReduces(const Program& program)
{
    int count = 0;
    for (std::size_t t = 0; t < program.threads.size(); ++t) {
        for (Cursor c(program, static_cast<int>(t)); !c.done(); c.advance())
            count += c.step().op == Op::kRecvReduce ? 1 : 0;
    }
    return count;
}

void
expectAllReduce(const Program& program, const std::string& name)
{
    SymbolicRun run(program);
    ASSERT_TRUE(run.run()) << name << ": " << run.error();
    EXPECT_TRUE(run.allReduced()) << name;
}

topo::DoubleTreeEmbedding
directDoubleTree(int p)
{
    return topo::DoubleTreeEmbedding(
        topo::directEmbedding(topo::BinaryTree::inorder(p)),
        topo::directEmbedding(topo::BinaryTree::inorder(p).mirrored()));
}

/** @p program resuming with chunks @p done already final. */
Program
masked(Program program, std::vector<int> done)
{
    std::vector<std::uint8_t> bits(
        static_cast<std::size_t>(program.numChunks()), 0);
    for (int c : done)
        bits[static_cast<std::size_t>(c)] = 1;
    program.skip = SkipMask(bits);
    return program;
}

const PhaseMode kModes[] = {PhaseMode::kTwoPhase, PhaseMode::kOverlapped};

TEST(SymbolicChecker, RingsAllReduceAtEverySizeTwoToSixteen)
{
    for (int p = 2; p <= 16; ++p) {
        expectAllReduce(ringProgram(topo::makeSequentialRing(p),
                                    RingPhase::kAllReduce),
                        "ring p=" + std::to_string(p));
    }
    const topo::Graph dgx1 = topo::makeDgx1();
    expectAllReduce(ringProgram(topo::findHamiltonianRing(dgx1, 8),
                                RingPhase::kAllReduce),
                    "dgx1 ring");
    expectAllReduce(multiRingProgram(topo::findDisjointRings(dgx1, 8, 4)),
                    "dgx1 multi-ring");
}

TEST(SymbolicChecker, DoubleTreesAllReduceInBothPhaseModes)
{
    const topo::Graph dgx1 = topo::makeDgx1();
    const topo::Dgx2Params dgx2_params;
    const topo::Graph dgx2 = topo::makeDgx2(dgx2_params);
    topo::SwitchFabricParams fabric_params;
    fabric_params.num_nodes = 64;
    const topo::Graph fabric = topo::makeSwitchFabric(fabric_params);

    struct Case {
        std::string name;
        topo::DoubleTreeEmbedding dt;
        int chunks;
    };
    const std::vector<Case> cases = {
        {"dgx1 (detours)", topo::makeDgx1DoubleTree(dgx1), 8},
        {"dgx1 contended", topo::makeMirroredDoubleTree(dgx1, 8), 4},
        {"dgx2", topo::makeDgx2DoubleTree(dgx2, dgx2_params), 4},
        {"fabric p=64", topo::makeMirroredDoubleTree(fabric, 64), 3},
        {"direct p=256", directDoubleTree(256), 2},
        {"direct p=512", directDoubleTree(512), 2},
    };
    for (const Case& c : cases) {
        for (PhaseMode mode : kModes) {
            expectAllReduce(doubleTreeProgram(c.dt, mode, c.chunks),
                            c.name);
            expectAllReduce(treeProgram(c.dt.tree1,
                                        TreeDirection::kAllReduce, mode,
                                        c.chunks),
                            c.name + " single tree");
        }
    }
}

TEST(SymbolicChecker, EdgesOfOneProgramNeverShareAMailbox)
{
    // The contended DGX-1 mirrored double tree routes a detour hop
    // over a pair a direct edge of the same flow already takes; the
    // functional world keys mailboxes by (src, dst, flow).
    const topo::Graph dgx1 = topo::makeDgx1();
    for (PhaseMode mode : kModes) {
        const Program program = doubleTreeProgram(
            topo::makeMirroredDoubleTree(dgx1, 8), mode, 4);
        std::set<std::tuple<int, int, int>> keys;
        for (const Edge& edge : program.edges)
            EXPECT_TRUE(keys.emplace(edge.src, edge.dst, edge.flow).second)
                << edge.src << "->" << edge.dst << " flow " << edge.flow;
    }
}

TEST(SymbolicChecker, DetoursBecomeForwardersOnTransitRanks)
{
    // GPU2 → GPU0 → GPU4 in tree0: rank 0 forwards both directions.
    const topo::Graph dgx1 = topo::makeDgx1();
    const Program program = doubleTreeProgram(
        topo::makeDgx1DoubleTree(dgx1), PhaseMode::kOverlapped, 4);
    int forwarders = 0;
    for (const Thread& t : program.threads) {
        if (std::string(t.role) == "forward") {
            ++forwarders;
            EXPECT_TRUE(t.rank == 0 || t.rank == 1) << t.rank;
        }
    }
    EXPECT_EQ(forwarders, 4);
}

TEST(SymbolicChecker, SkipMasksKeepThePostcondition)
{
    const topo::Graph dgx1 = topo::makeDgx1();
    const auto dt = topo::makeDgx1DoubleTree(dgx1);
    for (PhaseMode mode : kModes) {
        expectAllReduce(masked(doubleTreeProgram(dt, mode, 6),
                               {0, 3, 7, 11}),
                        "dgx1 double tree, masked");
        expectAllReduce(masked(doubleTreeProgram(dt, mode, 4),
                               {0, 1, 2, 3, 4, 5, 6, 7}),
                        "dgx1 double tree, all masked");
    }
    for (int p : {2, 5, 8}) {
        expectAllReduce(masked(ringProgram(topo::makeSequentialRing(p),
                                           RingPhase::kAllReduce),
                               {1, p - 1}),
                        "ring masked p=" + std::to_string(p));
    }
}

TEST(SymbolicChecker, ReduceScatterLeavesEachSliceAtItsOwnerOnly)
{
    for (int p = 2; p <= 16; ++p) {
        const topo::RingEmbedding ring = topo::makeSequentialRing(p);
        const Program program = ringProgram(ring, RingPhase::kReduceScatter);
        SymbolicRun run(program);
        ASSERT_TRUE(run.run()) << run.error();
        for (int slice = 0; slice < p; ++slice) {
            // Ring position i ends up owning slice (i+1) mod P.
            const int owner =
                ring.order[static_cast<std::size_t>((slice + p - 1) % p)];
            for (int r = 0; r < p; ++r)
                EXPECT_EQ(run.complete(r, slice), r == owner)
                    << "p=" << p << " slice " << slice << " rank " << r;
        }
    }
}

TEST(SymbolicChecker, TreeReduceLeavesTheSumAtTheRootOnly)
{
    const topo::Graph dgx1 = topo::makeDgx1();
    const std::vector<topo::TreeEmbedding> trees = {
        topo::makeDgx1DoubleTree(dgx1).tree0,
        topo::directEmbedding(topo::BinaryTree::inorder(13)),
    };
    for (const topo::TreeEmbedding& tree : trees) {
        const Program program = treeProgram(tree, TreeDirection::kReduce,
                                            PhaseMode::kTwoPhase, 3);
        SymbolicRun run(program);
        ASSERT_TRUE(run.run()) << run.error();
        for (int r = 0; r < program.num_ranks; ++r) {
            for (int c = 0; c < 3; ++c)
                EXPECT_EQ(run.complete(r, c), r == tree.tree.root())
                    << "rank " << r << " chunk " << c;
        }
    }
}

TEST(SymbolicChecker, DroppedOrDuplicatedRecvReduceIsRejected)
{
    const topo::Graph dgx1 = topo::makeDgx1();
    std::vector<Program> programs;
    programs.push_back(ringProgram(topo::makeSequentialRing(5),
                                   RingPhase::kAllReduce));
    programs.push_back(doubleTreeProgram(topo::makeDgx1DoubleTree(dgx1),
                                         PhaseMode::kOverlapped, 3));
    programs.push_back(doubleTreeProgram(topo::makeDgx1DoubleTree(dgx1),
                                         PhaseMode::kTwoPhase, 2));
    for (const Program& program : programs) {
        const int total = countRecvReduces(program);
        ASSERT_GT(total, 0);
        for (int index = 1; index <= total; ++index) {
            for (Mutation::Kind kind :
                 {Mutation::Kind::kDrop, Mutation::Kind::kDuplicate}) {
                SymbolicRun run(program, Mutation{kind, index});
                const bool ok = run.run() && run.allReduced();
                EXPECT_FALSE(ok) << "mutant survived: recvReduce #"
                                 << index << (kind == Mutation::Kind::kDrop
                                                  ? " dropped"
                                                  : " duplicated");
            }
        }
    }
}

// ----------------------------------------------------------- geometry

/** A ring and a tree (one part), a double tree (two), a multi-ring
 *  (four). */
std::vector<std::pair<std::string, Program>>
geometryCorpus()
{
    const topo::Graph dgx1 = topo::makeDgx1();
    const topo::DoubleTreeEmbedding dt = topo::makeDgx1DoubleTree(dgx1);
    return {
        {"ring", ringProgram(topo::makeSequentialRing(5),
                             RingPhase::kAllReduce)},
        {"tree", treeProgram(dt.tree0, TreeDirection::kAllReduce,
                             PhaseMode::kOverlapped, 6)},
        {"double tree", doubleTreeProgram(dt, PhaseMode::kOverlapped, 4)},
        {"multi-ring", multiRingProgram(topo::findDisjointRings(dgx1, 8, 4))},
    };
}

template <typename T>
void
expectTiles(const Program& program, T total, const std::string& name)
{
    const std::vector<ChunkRange<T>> geometry = program.geometry(total);
    ASSERT_EQ(static_cast<int>(geometry.size()), program.numChunks());
    const T n = static_cast<T>(program.parts.size());
    for (std::size_t p = 0; p < program.parts.size(); ++p) {
        const Part& part = program.parts[p];
        T at = total * static_cast<T>(p) / n;
        for (int c = 0; c < part.chunks; ++c) {
            const ChunkRange<T>& range =
                geometry[static_cast<std::size_t>(part.chunk_offset + c)];
            EXPECT_EQ(range.part, static_cast<int>(p)) << name;
            EXPECT_EQ(range.begin, at) << name << " chunk " << c;
            EXPECT_LE(range.begin, range.end) << name << " chunk " << c;
            at = range.end;
        }
        const T part_end = total * static_cast<T>(p + 1) / n;
        if constexpr (std::is_floating_point_v<T>)
            EXPECT_DOUBLE_EQ(at, part_end) << name << " part " << p;
        else
            EXPECT_EQ(at, part_end) << name << " part " << p;
    }
}

TEST(Geometry, ChunksTileEachPartAndPartsSplitAtTotalPOverN)
{
    for (const auto& [name, program] : geometryCorpus()) {
        for (std::size_t total : {0, 1, 3, 7, 100, 4096})
            expectTiles(program, total, name + " elements");
        for (double bytes : {1.0, 3.0, 1e6 / 3.0, 25.6e6, 102.4e6})
            expectTiles(program, bytes, name + " bytes");
    }
}

TEST(Geometry, DoubleTreeBytesMatchTheHalfSplitBitForBit)
{
    // Chained iteration times read these byte ranges, and the DES
    // outputs pin them bit for bit: tree 0's chunk c spans half·c/K,
    // tree 1's half + half·c/K, with half = bytes/2.
    const topo::Graph dgx1 = topo::makeDgx1();
    for (int k : {1, 3, 7, 32}) {
        const Program program = doubleTreeProgram(
            topo::makeDgx1DoubleTree(dgx1), PhaseMode::kOverlapped, k);
        for (double bytes : {100.0, 1e6 / 3.0, 97.49e6}) {
            const double half = bytes / 2.0;
            const auto geometry = program.geometry(bytes);
            for (int c = 0; c < k; ++c) {
                const auto& lo = geometry[static_cast<std::size_t>(c)];
                const auto& hi = geometry[static_cast<std::size_t>(k + c)];
                EXPECT_EQ(lo.begin, half * c / k);
                EXPECT_EQ(lo.end, half * (c + 1) / k);
                EXPECT_EQ(hi.begin, half + half * c / k);
                EXPECT_EQ(hi.end, half + half * (c + 1) / k);
            }
        }
    }
}

TEST(Geometry, InterpreterAndCheckpointAgreeOnEverySlice)
{
    // Resume every chunk but c: the interpreter may write only c's
    // slice, and a checkpoint armed from the same program, with every
    // other chunk committed, must restore exactly what it wrote.
    const topo::Graph dgx1 = topo::makeDgx1();
    const std::vector<Program> programs = {
        ringProgram(topo::makeSequentialRing(4), RingPhase::kAllReduce),
        doubleTreeProgram(topo::makeDgx1DoubleTree(dgx1),
                          PhaseMode::kOverlapped, 2),
    };
    for (const Program& program : programs) {
        ccl::Communicator comm(program.num_ranks);
        for (std::size_t total : {1, 7, 100}) {
            const auto geometry = program.geometry(total);
            ccl::RankBuffers input(
                static_cast<std::size_t>(program.num_ranks));
            for (std::size_t r = 0; r < input.size(); ++r)
                input[r].assign(total, static_cast<float>(r + 1));
            for (int c = 0; c < program.numChunks(); ++c) {
                std::vector<int> others;
                for (int o = 0; o < program.numChunks(); ++o)
                    if (o != c)
                        others.push_back(o);
                ccl::RankBuffers data = input;
                ccl::runProgram(comm, data, masked(program, others));
                const ChunkRange<std::size_t>& slice =
                    geometry[static_cast<std::size_t>(c)];
                for (std::size_t r = 0; r < data.size(); ++r)
                    for (std::size_t i = 0; i < total; ++i)
                        EXPECT_EQ(data[r][i] != input[r][i],
                                  i >= slice.begin && i < slice.end)
                            << "total " << total << " chunk " << c
                            << " rank " << r << " element " << i;

                ccl::ChunkCheckpoint checkpoint;
                checkpoint.begin(input, program);
                const auto observer = checkpoint.observer();
                for (int o : others)
                    for (int r = 0; r < program.num_ranks; ++r)
                        observer(r, o);
                checkpoint.restoreIncomplete(data);
                EXPECT_EQ(data, input) << "total " << total << " chunk "
                                       << c;
            }
        }
    }
}

} // namespace
} // namespace sched
} // namespace ccube
