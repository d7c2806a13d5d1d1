/**
 * @file
 * Golden DES timestamps: every ScheduleResult field (completion time,
 * per-rank chunk times, per-chunk ready times) of a fixed corpus of
 * timed collectives, compared bit for bit against hex floats checked
 * in under tests/data/sched_golden.txt. The corpus covers the ring
 * (DGX-1 and a switch fabric, each under Simple and LL) and multi-ring,
 * single trees (two-phase and overlapped, with detours), the DGX-1
 * double tree in both phase modes × both lane policies × Simple/LL,
 * DGX-2, a P=64 switch fabric, and one faulted double tree
 * whose plan kills the collective (partial results). Any change to
 * the DES that moves a single simulated timestamp fails here.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "simnet/channel.h"
#include "simnet/fault_plan.h"
#include "simnet/program_driver.h"
#include "topo/dgx1.h"
#include "topo/dgx2.h"
#include "topo/double_tree.h"
#include "topo/ring_embedding.h"
#include "topo/switch_fabric.h"
#include "util/units.h"

namespace ccube {
namespace simnet {
namespace {

std::string
hex(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", value);
    return buf;
}

void
dump(std::ostringstream& out, const std::string& name,
     const ScheduleResult& r)
{
    out << "case " << name << "\n";
    out << "num_chunks " << r.num_chunks << "\n";
    out << "completion " << hex(r.completion_time) << "\n";
    out << "ready";
    for (double t : r.chunk_ready)
        out << ' ' << hex(t);
    out << "\n";
    for (std::size_t rank = 0; rank < r.chunk_at_rank.size(); ++rank) {
        out << "rank " << rank;
        for (double t : r.chunk_at_rank[rank])
            out << ' ' << hex(t);
        out << "\n";
    }
}

const char*
modeName(sched::PhaseMode mode)
{
    return mode == sched::PhaseMode::kOverlapped ? "overlapped" : "twophase";
}

std::string
corpusText()
{
    std::ostringstream out;
    const topo::Graph dgx1 = topo::makeDgx1();
    const double mib4 = util::mib(4);

    // Rings: the DGX-1 Hamiltonian ring under both protocols, and a
    // sequential ring over a switch fabric (multi-hop cut-through).
    {
        const topo::RingEmbedding ring = topo::findHamiltonianRing(dgx1, 8);
        for (ccl::Protocol proto :
             {ccl::Protocol::kSimple, ccl::Protocol::kLL}) {
            sim::Simulation sim;
            Network net(sim, dgx1);
            dump(out,
                 std::string("ring_dgx1_") +
                     (proto == ccl::Protocol::kLL ? "ll" : "simple"),
                 simnet::runProgram(sim, net,
                                    sched::ringProgram(
                                        ring, sched::RingPhase::kAllReduce),
                                    mib4, proto));
        }
        topo::SwitchFabricParams params;
        params.num_nodes = 16;
        const topo::Graph fabric = topo::makeSwitchFabric(params);
        for (ccl::Protocol proto :
             {ccl::Protocol::kSimple, ccl::Protocol::kLL}) {
            sim::Simulation sim;
            Network net(sim, fabric);
            dump(out,
                 proto == ccl::Protocol::kLL ? "ring_fabric16_ll"
                                             : "ring_fabric16",
                 simnet::runProgram(sim, net,
                                    sched::ringProgram(
                                        topo::makeSequentialRing(16),
                                        sched::RingPhase::kAllReduce),
                                    8e6, proto));
        }
    }

    // Multi-ring: channel-disjoint rings sharing double links.
    {
        const auto rings = topo::findDisjointRings(dgx1, 8, 4);
        sim::Simulation sim;
        Network net(sim, dgx1);
        dump(out, "multiring_dgx1",
             simnet::runProgram(sim, net, sched::multiRingProgram(rings),
                                64e6));
    }

    // Single trees with detours (tree0 of the DGX-1 double tree routes
    // GPU2 → GPU0 → GPU4), both phase modes, split and shared lanes.
    {
        const auto dt = topo::makeDgx1DoubleTree(dgx1);
        for (sched::PhaseMode mode :
             {sched::PhaseMode::kTwoPhase, sched::PhaseMode::kOverlapped}) {
            sim::Simulation sim;
            Network net(sim, dgx1);
            dump(out, std::string("tree0_dgx1_") + modeName(mode),
                 simnet::runProgram(sim, net,
                                    sched::treeProgram(
                                        dt.tree0,
                                        sched::TreeDirection::kAllReduce, mode,
                                        8),
                                    mib4));
            sim::Simulation sim_lanes;
            Network net_lanes(sim_lanes, dgx1);
            dump(out, std::string("tree1_dgx1_lanes_ll_") + modeName(mode),
                 simnet::runProgram(sim_lanes, net_lanes,
                                    sched::treeProgram(
                                        dt.tree1,
                                        sched::TreeDirection::kAllReduce, mode,
                                        6, sched::TreeLanes{0, 1}),
                                    mib4, ccl::Protocol::kLL));
        }
        const auto inorder =
            topo::embedTree(dgx1, topo::BinaryTree::inorder(8));
        sim::Simulation sim;
        Network net(sim, dgx1);
        dump(out, "tree_inorder_dgx1_overlapped",
             simnet::runProgram(sim, net,
                                sched::treeProgram(
                                    inorder, sched::TreeDirection::kAllReduce,
                                    sched::PhaseMode::kOverlapped, 5),
                                mib4));
    }

    // DGX-1 double tree: phase mode × lane policy × protocol, plus the
    // naive (conflicting) embedding.
    {
        const auto dt = topo::makeDgx1DoubleTree(dgx1);
        for (sched::PhaseMode mode :
             {sched::PhaseMode::kTwoPhase, sched::PhaseMode::kOverlapped}) {
            for (sched::LanePolicy lanes :
                 {sched::LanePolicy::kPointToPoint,
                  sched::LanePolicy::kSharedPort}) {
                for (ccl::Protocol proto :
                     {ccl::Protocol::kSimple, ccl::Protocol::kLL}) {
                    sim::Simulation sim;
                    Network net(sim, dgx1);
                    dump(out,
                         std::string("dt_dgx1_") + modeName(mode) +
                             (lanes == sched::LanePolicy::kPointToPoint
                                  ? "_p2p"
                                  : "_shared") +
                             (proto == ccl::Protocol::kLL ? "_ll"
                                                          : "_simple"),
                         simnet::runProgram(sim, net,
                                            sched::doubleTreeProgram(dt, mode,
                                                                     8, lanes),
                                            mib4, proto));
                }
            }
        }
        const auto naive = topo::makeNaiveDgx1DoubleTree(dgx1);
        sim::Simulation sim;
        Network net(sim, dgx1);
        dump(out, "dt_dgx1_naive_overlapped",
             simnet::runProgram(sim, net,
                                sched::doubleTreeProgram(
                                    naive, sched::PhaseMode::kOverlapped, 8),
                                mib4));
    }

    // DGX-2: switch planes, no detour kernels.
    {
        const topo::Dgx2Params params;
        const topo::Graph dgx2 = topo::makeDgx2(params);
        const auto dt = topo::makeDgx2DoubleTree(dgx2, params);
        for (sched::PhaseMode mode :
             {sched::PhaseMode::kTwoPhase, sched::PhaseMode::kOverlapped}) {
            sim::Simulation sim;
            Network net(sim, dgx2);
            dump(out, std::string("dt_dgx2_") + modeName(mode),
                 simnet::runProgram(sim, net,
                                    sched::doubleTreeProgram(
                                        dt, mode, 8,
                                        sched::LanePolicy::kSharedPort),
                                    util::mib(16)));
        }
    }

    // P=64 switch fabric (leaf/spine cut-through routes).
    {
        topo::SwitchFabricParams params;
        params.num_nodes = 64;
        const topo::Graph fabric = topo::makeSwitchFabric(params);
        const auto dt = topo::makeMirroredDoubleTree(fabric, 64);
        for (sched::PhaseMode mode :
             {sched::PhaseMode::kTwoPhase, sched::PhaseMode::kOverlapped}) {
            sim::Simulation sim;
            Network net(sim, fabric);
            dump(out, std::string("dt_fabric64_") + modeName(mode),
                 simnet::runProgram(sim, net,
                                    sched::doubleTreeProgram(
                                        dt, mode, 4,
                                        sched::LanePolicy::kSharedPort),
                                    8e6));
        }
    }

    // A fault plan that kills the collective mid-flight: partial
    // results with -1 sentinels for chunks that never arrived.
    {
        const auto dt = topo::makeDgx1DoubleTree(dgx1);
        sim::Simulation sim_ref;
        Network net_ref(sim_ref, dgx1);
        const double healthy =
            simnet::runProgram(sim_ref, net_ref,
                               sched::doubleTreeProgram(
                                   dt, sched::PhaseMode::kOverlapped, 8),
                               mib4)
                .completion_time;
        FaultPlan plan;
        for (int id : dgx1.channelIds(2, 3))
            plan.failChannel(0.3 * healthy, id);
        for (int id : dgx1.channelIds(3, 2))
            plan.failChannel(0.3 * healthy, id);
        sim::Simulation sim;
        Network net(sim, dgx1);
        const FaultedRunResult faulted = simnet::runProgramWithFaults(
            sim, net,
            sched::doubleTreeProgram(dt, sched::PhaseMode::kOverlapped, 8),
            mib4, plan);
        out << "faulted completed " << faulted.completed << " end "
            << hex(faulted.end_time) << " dropped "
            << faulted.dropped_transfers << "\n";
        dump(out, "dt_dgx1_faulted", faulted.result);
    }
    return out.str();
}

TEST(SchedGolden, TimestampsMatchTheRecordedCorpusBitForBit)
{
    const std::string path =
        std::string(CCUBE_TEST_DATA_DIR) + "/sched_golden.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden file " << path;
    std::stringstream golden;
    golden << in.rdbuf();

    std::istringstream want(golden.str());
    std::istringstream got(corpusText());
    std::string want_line;
    std::string got_line;
    int line = 0;
    while (std::getline(want, want_line)) {
        ++line;
        ASSERT_TRUE(std::getline(got, got_line))
            << "corpus ends early at line " << line;
        ASSERT_EQ(got_line, want_line) << "first difference at line "
                                       << line;
    }
    EXPECT_FALSE(std::getline(got, got_line))
        << "corpus has extra lines after line " << line;
}

} // namespace
} // namespace simnet
} // namespace ccube
