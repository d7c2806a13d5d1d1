/**
 * @file
 * Micro-benchmarks (google-benchmark) for the building blocks whose
 * cost the paper's design leans on: the device-side-style sync
 * primitives (Fig. 11), the mailbox path, the event queue, the
 * gradient queue's enqueue/dequeue — and the full functional AllReduce
 * per algorithm × message size, run against both execution engines
 * (the persistent rank threads and the shared state-machine pool).
 *
 * The rank_scaling sweep is the headline of the state-machine
 * runtime: double-tree AllReduce from P=8 up to P=1024 logical ranks,
 * recording the OS threads each engine needed and the resulting
 * ranks-per-thread density. Thread-per-rank legs are capped at P=128
 * (beyond that they need many hundreds of threads — which is the
 * point); the state-machine legs run to P=1024 on the shared pool.
 * Pin CCUBE_CCL_SM_WORKERS to make the thread counters deterministic
 * across machines.
 *
 * Output is google-benchmark's own: the console table, or rows in a
 * file with --benchmark_out=F --benchmark_out_format=json. Nothing is
 * written unless a flag asks for it.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ccl/communicator.h"
#include "ccl/mailbox.h"
#include "ccl/program_task.h"
#include "ccl/protocol.h"
#include "ccl/state_machine.h"
#include "ccl/sync_primitives.h"
#include "core/gradient_queue.h"
#include "sim/event_queue.h"
#include "sim/resource.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/ring_embedding.h"
#include "topo/tree_embedding.h"
#include "obs/session.h"
#include "util/flags.h"

namespace {

using namespace ccube;

void
BM_SpinLockUncontended(benchmark::State& state)
{
    ccl::SpinLock lock;
    for (auto _ : state) {
        lock.lock();
        lock.unlock();
    }
}
BENCHMARK(BM_SpinLockUncontended);

void
BM_SemaphorePostWait(benchmark::State& state)
{
    ccl::BoundedSemaphore sem(1024);
    for (auto _ : state) {
        sem.post();
        sem.wait();
    }
}
BENCHMARK(BM_SemaphorePostWait);

void
BM_CheckableCounterPostCheck(benchmark::State& state)
{
    ccl::CheckableCounter counter;
    std::int64_t target = 0;
    for (auto _ : state) {
        counter.post();
        counter.check(++target);
    }
}
BENCHMARK(BM_CheckableCounterPostCheck);

void
BM_MailboxSendRecv(benchmark::State& state)
{
    ccl::Mailbox box(8);
    const std::vector<float> chunk(
        static_cast<std::size_t>(state.range(0)), 1.0f);
    std::vector<float> out;
    for (auto _ : state) {
        box.send(chunk, 0);
        box.recv(out);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0) * static_cast<std::int64_t>(sizeof(float)));
}
BENCHMARK(BM_MailboxSendRecv)->Arg(256)->Arg(4096)->Arg(65536);

void
BM_MailboxRecvReduce(benchmark::State& state)
{
    ccl::Mailbox box(8);
    const std::vector<float> chunk(
        static_cast<std::size_t>(state.range(0)), 1.0f);
    std::vector<float> acc(chunk.size(), 0.0f);
    for (auto _ : state) {
        box.send(chunk, 0);
        box.recvReduce(acc);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0) * static_cast<std::int64_t>(sizeof(float)));
}
BENCHMARK(BM_MailboxRecvReduce)->Arg(4096)->Arg(65536);

void
BM_EventQueueScheduleRun(benchmark::State& state)
{
    const int events = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sim::EventQueue queue;
        for (int i = 0; i < events; ++i)
            queue.schedule(static_cast<double>(i), []() {});
        queue.run();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * events);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void
BM_EventQueueSteadyHeap(benchmark::State& state)
{
    // The long-pole DES cell's shape: about 1,664 pending events whose
    // times tie in runs, each fired event scheduling one more, so every
    // pop sifts a leaf down through a full heap (monotone times, as in
    // BM_EventQueueScheduleRun, never descend).
    constexpr int kPending = 1664;
    constexpr double kTick = 1.0 / 1024;
    sim::EventQueue queue;
    std::uint64_t fired = 0;
    struct Refill {
        sim::EventQueue* queue;
        std::uint64_t* fired;
        void
        operator()() const
        {
            const std::uint64_t n = ++*fired;
            queue->schedule(queue->now() + kTick * static_cast<double>(
                                               1 + (n * 2654435761u) % 16),
                            *this);
        }
    };
    for (int i = 0; i < kPending; ++i)
        queue.schedule(kTick * (i % 16), Refill{&queue, &fired});
    for (auto _ : state)
        queue.step();
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueSteadyHeap);

void
BM_FifoResourcePipeline(benchmark::State& state)
{
    for (auto _ : state) {
        sim::Simulation sim;
        sim::FifoResource res(sim, "ch");
        for (int i = 0; i < 1000; ++i)
            res.request(1.0, nullptr);
        sim.run();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_FifoResourcePipeline);

void
BM_GradientQueueIteration(benchmark::State& state)
{
    const int layers = static_cast<int>(state.range(0));
    std::vector<std::int64_t> table;
    for (int l = 1; l <= layers; ++l)
        table.push_back(4 * l);
    for (auto _ : state) {
        core::GradientQueue queue({{0, table}});
        for (int l = 0; l < layers; ++l) {
            for (int c = 0; c < 4; ++c)
                queue.enqueueChunk(4 * l + c);
            queue.dequeueLayer(l);
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * layers);
}
BENCHMARK(BM_GradientQueueIteration)->Arg(16)->Arg(128);

// ---------------------------------------------------------------------------
// Functional AllReduce latency: algorithm × message size × execution engine.
//
// The "persistent" mode drives each rank's tasks on that rank's
// RankExecutor thread; the "statemachine" mode multiplexes the same
// tasks onto the shared pool. Buffers are zero-filled so repeated
// iterations keep summing zeros instead of overflowing.
// ---------------------------------------------------------------------------

enum class Alg { kRing, kTree, kOverlappedTree, kDoubleTree };

/** Topologies + one communicator per executor mode, built once. */
struct AllReduceFixture {
    topo::Graph dgx1 = topo::makeDgx1();
    topo::RingEmbedding ring = topo::findHamiltonianRing(dgx1, 8);
    topo::TreeEmbedding tree =
        topo::embedTree(dgx1, topo::BinaryTree::inorder(8));
    topo::DoubleTreeEmbedding double_tree = topo::makeDgx1DoubleTree(dgx1);
    ccl::Communicator persistent{8, 4,
                                 ccl::RankExecutor::Mode::kPersistent};
    ccl::Communicator statemachine{
        8, 4, ccl::RankExecutor::Mode::kStateMachine};
};

AllReduceFixture&
fixture()
{
    static AllReduceFixture f;
    return f;
}

constexpr int kAllReduceChunks = 4;

/** The AllReduce program @p alg runs over the fixture's embeddings. */
sched::Program
programFor(const AllReduceFixture& f, Alg alg)
{
    switch (alg) {
    case Alg::kRing:
        return sched::ringProgram(f.ring, sched::RingPhase::kAllReduce);
    case Alg::kTree:
    case Alg::kOverlappedTree:
        return sched::treeProgram(f.tree, sched::TreeDirection::kAllReduce,
                                  alg == Alg::kTree
                                      ? sched::PhaseMode::kTwoPhase
                                      : sched::PhaseMode::kOverlapped,
                                  kAllReduceChunks);
    case Alg::kDoubleTree:
        return sched::doubleTreeProgram(f.double_tree,
                                        sched::PhaseMode::kOverlapped,
                                        kAllReduceChunks);
    }
    return {};
}

void
runAllReduce(benchmark::State& state, Alg alg,
             ccl::RankExecutor::Mode mode,
             ccl::Protocol proto = ccl::Protocol::kSimple)
{
    AllReduceFixture& f = fixture();
    ccl::Communicator& comm =
        mode == ccl::RankExecutor::Mode::kPersistent ? f.persistent
                                                     : f.statemachine;
    const auto elems = static_cast<std::size_t>(state.range(0));
    ccl::RankBuffers buffers(8, std::vector<float>(elems, 0.0f));
    for (auto _ : state)
        ccl::runProgram(comm, buffers, programFor(f, alg), proto);
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * state.range(0) *
        static_cast<std::int64_t>(sizeof(float)));
}

void
registerAllReduceBenchmarks()
{
    struct AlgEntry {
        const char* name;
        Alg alg;
    };
    struct ModeEntry {
        const char* name;
        ccl::RankExecutor::Mode mode;
    };
    static constexpr AlgEntry kAlgs[] = {
        {"ring", Alg::kRing},
        {"tree", Alg::kTree},
        {"overlapped_tree", Alg::kOverlappedTree},
        {"double_tree", Alg::kDoubleTree},
    };
    static constexpr ModeEntry kModes[] = {
        {"persistent", ccl::RankExecutor::Mode::kPersistent},
        {"statemachine", ccl::RankExecutor::Mode::kStateMachine},
    };
    for (const AlgEntry& alg : kAlgs) {
        for (const ModeEntry& mode : kModes) {
            const std::string name = std::string("allreduce_latency/") +
                                     alg.name + "/" + mode.name;
            benchmark::RegisterBenchmark(
                name.c_str(),
                [alg, mode](benchmark::State& state) {
                    runAllReduce(state, alg.alg, mode.mode);
                })
                ->Arg(256)   // 1 KiB
                ->Arg(4096)  // 16 KiB
                ->Arg(16384) // 64 KiB
                ->Unit(benchmark::kMicrosecond)
                ->UseRealTime();
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol sweep: algorithm × message size × protocol × engine.
//
// The LL path trades 2x wire bytes for skipping the semaphore
// lock/post/fence round-trip on every chunk; below the crossover the
// per-chunk sync alpha dominates and LL wins, above it the doubled
// serialization loses. No gate holds the measured LL ÷ Simple ratio
// (it swings run to run); the tuner's crossover is pinned by the
// deterministic Tuner/ProtocolModel/ProtocolDes tests instead.
// ---------------------------------------------------------------------------

void
registerProtocolBenchmarks()
{
    struct AlgEntry {
        const char* name;
        Alg alg;
    };
    struct ProtoEntry {
        const char* name;
        ccl::Protocol proto;
    };
    struct ModeEntry {
        const char* name;
        ccl::RankExecutor::Mode mode;
    };
    static constexpr AlgEntry kAlgs[] = {
        {"ring", Alg::kRing},
        {"tree", Alg::kTree},
        {"overlapped_tree", Alg::kOverlappedTree},
        {"double_tree", Alg::kDoubleTree},
    };
    static constexpr ProtoEntry kProtos[] = {
        {"simple", ccl::Protocol::kSimple},
        {"ll", ccl::Protocol::kLL},
    };
    static constexpr ModeEntry kModes[] = {
        {"persistent", ccl::RankExecutor::Mode::kPersistent},
        {"statemachine", ccl::RankExecutor::Mode::kStateMachine},
    };
    for (const AlgEntry& alg : kAlgs) {
        for (const ProtoEntry& proto : kProtos) {
            for (const ModeEntry& mode : kModes) {
                const std::string name =
                    std::string("allreduce_proto/") + alg.name + "/" +
                    proto.name + "/" + mode.name;
                benchmark::RegisterBenchmark(
                    name.c_str(),
                    [alg, proto, mode](benchmark::State& state) {
                        runAllReduce(state, alg.alg, mode.mode,
                                          proto.proto);
                    })
                    ->Arg(256)   // 1 KiB
                    ->Arg(1024)  // 4 KiB
                    ->Arg(16384) // 64 KiB
                    ->Arg(65536) // 256 KiB
                    ->Unit(benchmark::kMicrosecond)
                    ->UseRealTime();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rank scaling: double-tree AllReduce at P = 8 … 1024 logical ranks.
//
// Purely logical topologies (direct routes) so the protocol itself is
// what scales; fixed 64-element buffers keep this in the small-message
// regime where per-op engine overhead dominates. The interesting
// outputs are the counters: how many OS threads each engine needed and
// the resulting ranks-per-thread density — thread-per-rank is pinned
// at one-ish rank per thread by construction, the state-machine pool
// holds a handful of workers regardless of P.
// ---------------------------------------------------------------------------

constexpr int kScalingElems = 64;
constexpr int kScalingChunksPerTree = 2;

/** Logical double tree for @p ranks, built once per P. */
const topo::DoubleTreeEmbedding&
scalingDoubleTree(int ranks)
{
    static std::map<int, std::unique_ptr<topo::DoubleTreeEmbedding>>
        cache;
    auto it = cache.find(ranks);
    if (it == cache.end()) {
        it = cache
                 .emplace(
                     ranks,
                     std::make_unique<topo::DoubleTreeEmbedding>(
                         topo::directEmbedding(
                             topo::BinaryTree::inorder(ranks)),
                         topo::directEmbedding(
                             topo::BinaryTree::inorder(ranks)
                                 .mirrored())))
                 .first;
    }
    return *it->second;
}

void
runRankScaling(benchmark::State& state,
               ccl::RankExecutor::Mode mode)
{
    const int ranks = static_cast<int>(state.range(0));
    const topo::DoubleTreeEmbedding& dt = scalingDoubleTree(ranks);
    ccl::Communicator comm(ranks, 4, mode);
    ccl::RankBuffers buffers(
        static_cast<std::size_t>(ranks),
        std::vector<float>(kScalingElems, 0.0f));
    for (auto _ : state)
        ccl::runProgram(comm, buffers,
                        sched::doubleTreeProgram(
                            dt, sched::PhaseMode::kTwoPhase,
                            kScalingChunksPerTree));

    const int threads =
        mode == ccl::RankExecutor::Mode::kStateMachine
            ? ccl::StateMachineEngine::shared().workerCount()
            : ranks; // one persistent thread per rank
    state.counters["ranks"] = static_cast<double>(ranks);
    state.counters["threads"] = static_cast<double>(threads);
    state.counters["ranks_per_core"] =
        threads > 0 ? static_cast<double>(ranks) / threads : 0.0;
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kScalingElems *
        static_cast<std::int64_t>(sizeof(float)));
}

void
registerRankScalingBenchmarks()
{
    struct ModeEntry {
        const char* name;
        ccl::RankExecutor::Mode mode;
        std::vector<int> ranks;
    };
    // Thread-per-rank legs stop at 128 ranks (128 OS threads); the
    // state-machine pool carries the sweep to 1024.
    const ModeEntry modes[] = {
        {"persistent", ccl::RankExecutor::Mode::kPersistent,
         {8, 32, 128}},
        {"statemachine", ccl::RankExecutor::Mode::kStateMachine,
         {8, 32, 128, 256, 512, 1024}},
    };
    for (const ModeEntry& mode : modes) {
        const std::string name =
            std::string("rank_scaling/double_tree/") + mode.name;
        auto* bench = benchmark::RegisterBenchmark(
            name.c_str(),
            [m = mode.mode](benchmark::State& state) {
                runRankScaling(state, m);
            });
        for (const int ranks : mode.ranks)
            bench->Arg(ranks);
        bench->Unit(benchmark::kMicrosecond)->UseRealTime();
    }
}

} // namespace

int
main(int argc, char** argv)
{
    // Split obs flags (--profile-out=..., --trace-out=..., ...) out
    // of argv before handing it to google-benchmark, whose
    // ReportUnrecognizedArguments would otherwise reject them. The
    // ObsSession runs the sampling profiler (and any other requested
    // sink) across the whole benchmark run and flushes at exit.
    std::vector<char*> bench_args;
    std::vector<char*> obs_args;
    bench_args.push_back(argv[0]);
    obs_args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const bool obs_flag =
            std::strncmp(argv[i], "--profile-", 10) == 0 ||
            std::strncmp(argv[i], "--trace-", 8) == 0 ||
            std::strncmp(argv[i], "--metrics-", 10) == 0 ||
            std::strncmp(argv[i], "--report-", 9) == 0 ||
            std::strncmp(argv[i], "--monitor-", 10) == 0 ||
            std::strncmp(argv[i], "--rootcause-", 12) == 0 ||
            std::strncmp(argv[i], "--slo-", 6) == 0;
        (obs_flag ? obs_args : bench_args).push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(bench_args.size());
    const ccube::util::Flags obs_flags(
        static_cast<int>(obs_args.size()), obs_args.data());
    ccube::obs::ObsSession obs_session(obs_flags);

    registerAllReduceBenchmarks();
    registerProtocolBenchmarks();
    registerRankScalingBenchmarks();
    benchmark::Initialize(&bench_argc, bench_args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
