/**
 * @file
 * Both worlds run the same schedule: for each rank and each payload
 * part (a tree, or a ring), the order in which chunks become final in
 * the functional runtime (AllReduceTrace::order) and in the DES
 * (chunk_at_rank sorted by time) must both equal the order of the
 * program's final markers — with and without a skip mask. Corpus: the
 * DGX-1 double tree with detours, a DGX-1 ring (P=8), a P=32
 * switch-fabric double tree, and the program of every recovery-ladder
 * rung (including the fallback ring over PCIe peer links).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ccl/communicator.h"
#include "ccl/program_task.h"
#include "core/recovery.h"
#include "sched/program.h"
#include "simnet/channel.h"
#include "simnet/program_driver.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/ring_embedding.h"
#include "topo/switch_fabric.h"

namespace ccube {
namespace {

/** [rank][part] → global chunk ids in final-marker order. */
using Orders = std::vector<std::vector<std::vector<int>>>;

Orders
emptyOrders(const sched::Program& program)
{
    return Orders(static_cast<std::size_t>(program.num_ranks),
                  std::vector<std::vector<int>>(program.parts.size()));
}

int
partOf(const sched::Program& program, int chunk)
{
    for (std::size_t p = 0; p < program.parts.size(); ++p) {
        const sched::Part& part = program.parts[p];
        if (chunk >= part.chunk_offset &&
            chunk < part.chunk_offset + part.chunks)
            return static_cast<int>(p);
    }
    return -1;
}

/** The program's own order: final markers, per thread, in step order
 *  (a rank's finals of one part all come from one thread). */
Orders
programOrders(const sched::Program& program)
{
    Orders out = emptyOrders(program);
    for (std::size_t t = 0; t < program.threads.size(); ++t) {
        const sched::Thread& thread = program.threads[t];
        for (sched::Cursor c(program, static_cast<int>(t)); !c.done();
             c.advance()) {
            if (c.step().op == sched::Op::kFinal)
                out[static_cast<std::size_t>(thread.rank)]
                   [static_cast<std::size_t>(thread.part)]
                       .push_back(c.globalChunk());
        }
    }
    return out;
}

Orders
functionalOrders(const sched::Program& program,
                 const ccl::AllReduceTrace& trace)
{
    Orders out = emptyOrders(program);
    for (int r = 0; r < program.num_ranks; ++r) {
        for (int chunk : trace.order(r))
            out[static_cast<std::size_t>(r)]
               [static_cast<std::size_t>(partOf(program, chunk))]
                   .push_back(chunk);
    }
    return out;
}

/** DES order: each rank's kept chunks sorted by availability time. */
Orders
desOrders(const sched::Program& program, const topo::Graph& graph,
          double bytes)
{
    sim::Simulation sim;
    simnet::Network net(sim, graph);
    simnet::ProgramDriver driver(net, program, bytes);
    driver.start(0.0);
    sim.run();
    EXPECT_TRUE(driver.finished());
    const simnet::ScheduleResult result = driver.result();
    Orders out = emptyOrders(program);
    for (int r = 0; r < program.num_ranks; ++r) {
        const std::vector<double>& at =
            result.chunk_at_rank[static_cast<std::size_t>(r)];
        std::vector<int> chunks;
        for (int c = 0; c < program.numChunks(); ++c)
            if (!program.skip.done(c))
                chunks.push_back(c);
        std::stable_sort(chunks.begin(), chunks.end(), [&](int a, int b) {
            return at[static_cast<std::size_t>(a)] <
                   at[static_cast<std::size_t>(b)];
        });
        for (int chunk : chunks)
            out[static_cast<std::size_t>(r)]
               [static_cast<std::size_t>(partOf(program, chunk))]
                   .push_back(chunk);
    }
    return out;
}

ccl::RankBuffers
buffers(int ranks, int elems)
{
    ccl::RankBuffers out(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r)
        out[static_cast<std::size_t>(r)].assign(
            static_cast<std::size_t>(elems), static_cast<float>(r + 1));
    return out;
}

sched::SkipMask
maskOf(std::vector<int> done, int chunks)
{
    std::vector<std::uint8_t> bits(static_cast<std::size_t>(chunks), 0);
    for (int c : done)
        bits[static_cast<std::size_t>(c)] = 1;
    return sched::SkipMask(bits);
}

/** Runs @p program in both worlds and compares both orders with its
 *  own; returns the functional world's buffers. */
ccl::RankBuffers
expectSameOrders(const sched::Program& program, const topo::Graph& graph,
                 ccl::Communicator& comm, int elems, const std::string& name)
{
    ccl::RankBuffers data = buffers(program.num_ranks, elems);
    const ccl::AllReduceTrace trace = ccl::runProgram(comm, data, program);
    const Orders want = programOrders(program);
    EXPECT_EQ(functionalOrders(program, trace), want)
        << name << ": functional world";
    EXPECT_EQ(desOrders(program, graph, 4e6), want)
        << name << ": timed world";
    return data;
}

void
checkDoubleTree(const topo::Graph& graph,
                const topo::DoubleTreeEmbedding& dt, int chunks,
                ccl::RankExecutor::Mode mode, const std::string& name)
{
    const int p = dt.tree0.tree.numNodes();
    for (const sched::SkipMask& skip :
         {sched::SkipMask(), maskOf({1, chunks, 2 * chunks - 1}, 2 * chunks)}) {
        const std::string label =
            name + (skip.any() ? " masked" : "");
        sched::Program program = sched::doubleTreeProgram(
            dt, sched::PhaseMode::kOverlapped, chunks);
        program.skip = skip;
        ccl::Communicator comm(p, 4, mode);
        const ccl::RankBuffers data =
            expectSameOrders(program, graph, comm, 64 * chunks, label);
        if (!skip.any()) {
            const float sum = static_cast<float>(p * (p + 1) / 2);
            for (const std::vector<float>& b : data)
                EXPECT_EQ(b, std::vector<float>(b.size(), sum)) << label;
        }
    }
}

TEST(CrossWorld, Dgx1DoubleTreeWithDetours)
{
    const topo::Graph dgx1 = topo::makeDgx1();
    checkDoubleTree(dgx1, topo::makeDgx1DoubleTree(dgx1), 6,
                    ccl::RankExecutor::Mode::kPersistent, "dgx1");
}

TEST(CrossWorld, SwitchFabricDoubleTreeP32)
{
    topo::SwitchFabricParams params;
    params.num_nodes = 32;
    const topo::Graph fabric = topo::makeSwitchFabric(params);
    checkDoubleTree(fabric, topo::makeMirroredDoubleTree(fabric, 32), 4,
                    ccl::RankExecutor::Mode::kStateMachine, "fabric p=32");
}

TEST(CrossWorld, Dgx1RingP8)
{
    const topo::Graph dgx1 = topo::makeDgx1();
    const topo::RingEmbedding ring = topo::findHamiltonianRing(dgx1, 8);
    for (const sched::SkipMask& skip :
         {sched::SkipMask(), maskOf({0, 5}, 8)}) {
        sched::Program program =
            sched::ringProgram(ring, sched::RingPhase::kAllReduce);
        program.skip = skip;
        ccl::Communicator comm(8);
        expectSameOrders(program, dgx1, comm, 256,
                         skip.any() ? "ring masked" : "ring");
    }
}

/**
 * Every rung's program runs in both worlds. Testbed: the DGX-1 plus a
 * PCIe peer ring (as in supervisor_test), on which the whole NVLink
 * fabric failing leaves only the fallback ring over PCIe. The PCIe
 * ring lets the search find a conflict-free double tree after any
 * three NVLink pairs fail, so the kDoubleTree rung runs on the plain
 * DGX-1 with the cross-board pairs 0–4, 1–5 and 2–6 failed: the two
 * boards then meet only at 3–7, and no conflict-free double tree
 * survives.
 */
TEST(CrossWorld, RecoveryRungs)
{
    const topo::Graph dgx1 = topo::makeDgx1();
    topo::Graph testbed = dgx1;
    const topo::Dgx1Params params;
    for (int g = 0; g < 8; ++g)
        testbed.addLink(g, (g + 1) % 8, params.pcie_bandwidth,
                        params.pcie_latency, topo::LinkKind::kPcie);
    std::vector<int> nvlink;
    for (int id = 0; id < testbed.channelCount(); ++id)
        if (testbed.channel(id).kind == topo::LinkKind::kNvlink)
            nvlink.push_back(id);
    std::vector<int> cross_board;
    for (const auto& [a, b] :
         {std::pair{0, 4}, std::pair{1, 5}, std::pair{2, 6}}) {
        for (int id : dgx1.channelIds(a, b))
            cross_board.push_back(id);
        for (int id : dgx1.channelIds(b, a))
            cross_board.push_back(id);
    }

    core::RecoveryOptions options;
    options.search.num_ranks = 8;
    options.search.seed = 7;

    struct Rung {
        const topo::Graph& graph;
        std::vector<int> failed;
        core::RecoveryKind kind;
    };
    for (const Rung& rung :
         {Rung{testbed, {}, core::RecoveryKind::kCCube},
          Rung{dgx1, cross_board, core::RecoveryKind::kDoubleTree},
          Rung{testbed, nvlink, core::RecoveryKind::kRing}}) {
        const core::RecoveryResult result =
            core::recoverSchedule(rung.graph, rung.failed, options);
        const std::string name = core::recoveryKindName(rung.kind);
        ASSERT_EQ(result.kind, rung.kind) << name;
        const int chunks = result.program.numChunks();
        for (const sched::SkipMask& skip :
             {sched::SkipMask(), maskOf({0, chunks - 1}, chunks)}) {
            sched::Program program = result.program;
            program.skip = skip;
            ccl::Communicator comm(program.num_ranks);
            expectSameOrders(program, result.graph, comm, 64 * chunks,
                             name + (skip.any() ? " masked" : ""));
        }
    }
}

} // namespace
} // namespace ccube
