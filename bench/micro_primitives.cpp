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
 * Pin CCUBE_CCL_SM_WORKERS to make the density records deterministic
 * across machines (CI pins 4).
 *
 * AllReduce results are exported to BENCH_ccl.json (schema
 * bench_ccl/v1, see util/bench_json.h); set CCUBE_BENCH_OUT to
 * override the path. Every rank_scaling/statemachine record also
 * emits a "ranks_per_core_gate" companion whose ns_per_op is
 * 1e6 × threads ÷ ranks — a lower-is-better scalar bench_compare can
 * gate, so a change that silently grows the pool (or forces the sweep
 * back onto thread-per-rank) trips the perf gate.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "ccl/communicator.h"
#include "ccl/double_tree_allreduce.h"
#include "ccl/mailbox.h"
#include "ccl/overlapped_tree_allreduce.h"
#include "ccl/primitives.h"
#include "ccl/ring_allreduce.h"
#include "ccl/protocol.h"
#include "ccl/state_machine.h"
#include "ccl/sync_primitives.h"
#include "ccl/tree_allreduce.h"
#include "ccl/tuner.h"
#include "core/gradient_queue.h"
#include "sim/event_queue.h"
#include "sim/resource.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/ring_embedding.h"
#include "topo/tree_embedding.h"
#include "obs/session.h"
#include "util/bench_json.h"
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
BM_FifoResourcePipeline(benchmark::State& state)
{
    for (auto _ : state) {
        sim::Simulation sim;
        sim::FifoResource res(sim, "ch");
        for (int i = 0; i < 1000; ++i)
            res.request([]() { return 1.0; }, nullptr);
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
        core::GradientQueue queue(table);
        for (int l = 0; l < layers; ++l) {
            for (int c = 0; c < 4; ++c)
                queue.enqueueChunk();
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

void
runAllReduce(benchmark::State& state, Alg alg,
             ccl::RankExecutor::Mode mode)
{
    AllReduceFixture& f = fixture();
    ccl::Communicator& comm =
        mode == ccl::RankExecutor::Mode::kPersistent ? f.persistent
                                                     : f.statemachine;
    const auto elems = static_cast<std::size_t>(state.range(0));
    ccl::RankBuffers buffers(8, std::vector<float>(elems, 0.0f));
    for (auto _ : state) {
        switch (alg) {
        case Alg::kRing:
            ccl::ringAllReduce(comm, buffers, f.ring);
            break;
        case Alg::kTree:
            ccl::treeAllReduce(comm, buffers, f.tree, kAllReduceChunks,
                               ccl::TreePhaseMode::kTwoPhase);
            break;
        case Alg::kOverlappedTree:
            ccl::overlappedTreeAllReduce(comm, buffers, f.tree,
                                         kAllReduceChunks);
            break;
        case Alg::kDoubleTree:
            ccl::doubleTreeAllReduce(comm, buffers, f.double_tree,
                                     kAllReduceChunks,
                                     ccl::TreePhaseMode::kOverlapped);
            break;
        }
    }
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
// serialization loses. main() derives the "ll_small_msg_speedup"
// gate records (ns_per_op = LL ÷ Simple, lower is better) and a
// per-(alg, engine) crossover record from these rows.
// ---------------------------------------------------------------------------

void
runAllReduceProto(benchmark::State& state, Alg alg,
                  ccl::RankExecutor::Mode mode, ccl::Protocol proto)
{
    AllReduceFixture& f = fixture();
    ccl::Communicator& comm =
        mode == ccl::RankExecutor::Mode::kPersistent ? f.persistent
                                                     : f.statemachine;
    const auto elems = static_cast<std::size_t>(state.range(0));
    ccl::RankBuffers buffers(8, std::vector<float>(elems, 0.0f));
    for (auto _ : state) {
        switch (alg) {
        case Alg::kRing:
            ccl::ringAllReduce(comm, buffers, f.ring, {}, proto);
            break;
        case Alg::kTree:
            ccl::treeAllReduce(comm, buffers, f.tree, kAllReduceChunks,
                               ccl::TreePhaseMode::kTwoPhase, {}, {},
                               proto);
            break;
        case Alg::kOverlappedTree:
            ccl::overlappedTreeAllReduce(comm, buffers, f.tree,
                                         kAllReduceChunks, {}, proto);
            break;
        case Alg::kDoubleTree:
            ccl::doubleTreeAllReduce(comm, buffers, f.double_tree,
                                     kAllReduceChunks,
                                     ccl::TreePhaseMode::kOverlapped,
                                     {}, proto);
            break;
        }
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * state.range(0) *
        static_cast<std::int64_t>(sizeof(float)));
}

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
                        runAllReduceProto(state, alg.alg, mode.mode,
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
        ccl::doubleTreeAllReduce(comm, buffers, dt,
                                 kScalingChunksPerTree,
                                 ccl::TreePhaseMode::kTwoPhase);

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

/** Console output plus a copy of every per-iteration run. */
class CaptureReporter : public benchmark::ConsoleReporter {
public:
    std::vector<Run> runs;

    void
    ReportRuns(const std::vector<Run>& report) override
    {
        for (const Run& run : report) {
            if (run.run_type == Run::RT_Iteration &&
                !run.error_occurred)
                runs.push_back(run);
        }
        ConsoleReporter::ReportRuns(report);
    }
};

std::vector<std::string>
splitName(const std::string& name)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (true) {
        const std::size_t slash = name.find('/', start);
        if (slash == std::string::npos) {
            parts.push_back(name.substr(start));
            return parts;
        }
        parts.push_back(name.substr(start, slash - start));
        start = slash + 1;
    }
}

util::BenchRecord
toRecord(const benchmark::BenchmarkReporter::Run& run)
{
    util::BenchRecord record;
    record.source = "micro_primitives";
    record.ns_per_op =
        run.iterations > 0
            ? run.real_accumulated_time /
                  static_cast<double>(run.iterations) * 1e9
            : 0.0;
    const std::vector<std::string> parts =
        splitName(run.benchmark_name());
    // allreduce_latency/<alg>/<mode>/<elems>[/real_time]
    if (parts.size() >= 4 && parts[0] == "allreduce_latency") {
        record.kind = parts[0];
        record.name = parts[1];
        record.mode = parts[2];
        record.bytes = std::strtoll(parts[3].c_str(), nullptr, 10) *
                       static_cast<std::int64_t>(sizeof(float));
    } else if (parts.size() >= 5 && parts[0] == "allreduce_proto") {
        // allreduce_proto/<alg>/<proto>/<mode>/<elems>[/real_time]
        record.kind = parts[0];
        record.name = parts[1] + "/" + parts[2];
        record.mode = parts[3];
        record.bytes = std::strtoll(parts[4].c_str(), nullptr, 10) *
                       static_cast<std::int64_t>(sizeof(float));
    } else if (parts.size() >= 4 && parts[0] == "rank_scaling") {
        // rank_scaling/<alg>/<mode>/<ranks>[/real_time] — the rank
        // count goes into the name so every P is its own gate key.
        record.kind = parts[0];
        record.name = parts[1] + "_p" + parts[3];
        record.mode = parts[2];
        record.bytes = kScalingElems *
                       static_cast<std::int64_t>(sizeof(float));
        for (const auto& [counter, value] : run.counters)
            record.extra[counter] = value;
    } else {
        record.kind = "micro";
        record.name = run.benchmark_name();
        if (parts.size() >= 2) {
            char* end = nullptr;
            const double arg =
                std::strtod(parts.back().c_str(), &end);
            if (end && *end == '\0')
                record.extra["arg"] = arg;
        }
    }
    return record;
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
    CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    std::vector<ccube::util::BenchRecord> records;
    records.reserve(reporter.runs.size());
    for (const auto& run : reporter.runs)
        records.push_back(toRecord(run));
    // Derive the lower-is-better density gate from the state-machine
    // scaling rows: ns_per_op = 1e6 × threads ÷ ranks ("thread cost
    // per rank"). With CCUBE_CCL_SM_WORKERS pinned this is exact and
    // machine-independent, so bench_compare can hold it tight.
    const std::size_t measured = records.size();
    for (std::size_t i = 0; i < measured; ++i) {
        const ccube::util::BenchRecord& r = records[i];
        if (r.kind != "rank_scaling" || r.mode != "statemachine")
            continue;
        const auto ranks = r.extra.find("ranks");
        const auto threads = r.extra.find("threads");
        if (ranks == r.extra.end() || threads == r.extra.end() ||
            ranks->second <= 0.0)
            continue;
        ccube::util::BenchRecord gate = r;
        gate.kind = "ranks_per_core_gate";
        gate.ns_per_op = 1e6 * threads->second / ranks->second;
        records.push_back(std::move(gate));
    }
    // Derive the LL-vs-Simple protocol gates from the proto sweep:
    //  - "ll_small_msg_speedup": ns_per_op = LL ÷ Simple at one
    //    (alg, engine, size) cell, lower is better. The headline gate
    //    cell is ring/persistent at ≤ 4 KiB, where LL should be
    //    ≥ 1.3x faster (ratio ≤ 0.77).
    //  - "ll_crossover": ns_per_op = the largest swept message size
    //    (bytes) at which LL still beat Simple for that (alg, engine).
    {
        // (alg, mode, bytes) → ns per protocol.
        std::map<std::tuple<std::string, std::string, std::int64_t>,
                 std::map<std::string, double>>
            cells;
        for (const ccube::util::BenchRecord& r : records) {
            if (r.kind != "allreduce_proto")
                continue;
            const std::size_t slash = r.name.find('/');
            if (slash == std::string::npos)
                continue;
            cells[{r.name.substr(0, slash), r.mode, r.bytes}]
                 [r.name.substr(slash + 1)] = r.ns_per_op;
        }
        std::map<std::pair<std::string, std::string>, double> crossover;
        for (const auto& [key, protos] : cells) {
            const auto simple = protos.find("simple");
            const auto ll = protos.find("ll");
            if (simple == protos.end() || ll == protos.end() ||
                simple->second <= 0.0)
                continue;
            const auto& [alg, mode, bytes] = key;
            if (bytes <= 4096) {
                ccube::util::BenchRecord gate;
                gate.source = "micro_primitives";
                gate.kind = "ll_small_msg_speedup";
                gate.name = alg;
                gate.mode = mode;
                gate.bytes = bytes;
                gate.ns_per_op = ll->second / simple->second;
                gate.extra["speedup"] =
                    ll->second > 0.0 ? simple->second / ll->second
                                     : 0.0;
                records.push_back(std::move(gate));
            }
            double& best = crossover[{alg, mode}];
            if (ll->second < simple->second &&
                static_cast<double>(bytes) > best)
                best = static_cast<double>(bytes);
        }
        for (const auto& [key, bytes] : crossover) {
            ccube::util::BenchRecord record;
            record.source = "micro_primitives";
            record.kind = "ll_crossover";
            record.name = key.first;
            record.mode = key.second;
            record.ns_per_op = bytes; // largest size where LL won
            records.push_back(std::move(record));
        }
    }
    if (!records.empty()) {
        const std::string path = ccube::util::benchOutputPath();
        ccube::util::writeBenchRecords(path, records, /*append=*/true);
        std::fprintf(stderr, "wrote %zu records to %s\n",
                     records.size(), path.c_str());
    }
    // Archive the tuner's selection table (DGX-1, P=8) when asked —
    // CI uploads this as the tuner_table.txt artifact.
    if (const char* table_out = std::getenv("CCUBE_TUNER_TABLE_OUT")) {
        const ccube::topo::Graph dgx1 = ccube::topo::makeDgx1();
        std::ofstream out(table_out);
        out << ccube::ccl::Tuner::global().formatTable(dgx1, 8);
        std::fprintf(stderr, "wrote tuner table to %s\n", table_out);
    }
    return 0;
}
