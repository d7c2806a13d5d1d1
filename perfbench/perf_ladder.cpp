/**
 * @file
 * The perf ladder: one end-to-end and per-layer benchmark for the
 * functional `ccl::` runtime and the timed `sim::`/`simnet::` DES,
 * driven only through the library's public functions.
 *
 *   perf_ladder --workload W --seed N --seconds S --trace 0|1
 *               [--spans-out FILE]
 *   perf_ladder --list-names
 *
 * Workloads (closed loop, one caller thread):
 *   ccl_latency    DGX-1, P=8, Communicator::runAuto at 1/4/16/64 KiB
 *   ccl_bandwidth  DGX-1, P=8, Communicator::runAuto at 4/16 MiB
 *   ccl_scale      P=256 logical ranks, doubleTreeAllReduce on the
 *                  state-machine engine, 4 KiB
 *   des_sweep      the Fig. 14 switch-fabric grid plus the Fig. 13
 *                  CCubeEngine::evaluate grid through sweep::runIndexed
 *
 * Every functional collective is checked against an exact integer
 * sum on every rank; every simulated chunk must reach every rank, and
 * the simulated timestamps are digested so a simulator-only change can
 * show its output is unchanged. With --trace 0 the run reports the
 * end-to-end metrics; with --trace 1 it times the calls into each layer
 * from this file (the library's obs:: capture stays off in both runs)
 * and prints the layer ladder with each end-to-end number's breakdown,
 * the unexplained remainder and the tracing overhead. The last stdout
 * line is one JSON object {correct, attempted, failed, metrics}.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ccl/communicator.h"
#include "ccl/double_tree_allreduce.h"
#include "ccl/mailbox.h"
#include "ccl/state_machine.h"
#include "ccl/sync_primitives.h"
#include "ccl/tuner.h"
#include "core/ccube_engine.h"
#include "dnn/catalog.h"
#include "ladder.h"
#include "obs/context.h"
#include "sim/event_queue.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "simnet/channel.h"
#include "simnet/double_tree_schedule.h"
#include "simnet/ring_schedule.h"
#include "sweep/sweep.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/embedding_search.h"
#include "topo/ring_embedding.h"
#include "topo/switch_fabric.h"
#include "topo/tree_embedding.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ccube;
using perfbench::median;
using perfbench::pickTail;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Names. BENCHMARK.json must list exactly these; run.py and the
// self-test check it.
// ---------------------------------------------------------------------------

const char* const kWorkloads[] = {"ccl_latency", "ccl_bandwidth",
                                  "ccl_scale", "des_sweep"};

struct MetricName {
    const char* name;
    const char* unit;
};

/** Reported with --trace 0, by every workload. */
const MetricName kEndToEnd[] = {
    {"op_p50_us", "us"},     {"op_tail_us", "us"},
    {"ops_per_s", "1/s"},    {"cpu_us_per_op", "us"},
    {"setup_s", "s"},        {"peak_rss_mb", "MB"},
};

/** Reported with --trace 1, by every workload. */
const MetricName kPerLayer[] = {
    {"ccl.sync.post_wait_ns", "ns"},
    {"ccl.sync.handoff_us", "us"},
    {"ccl.mailbox.copy_gbps", "GB/s"},
    {"ccl.mailbox.reduce_gbps", "GB/s"},
    {"ccl.envelope_us", "us"},
    {"ccl.tuner.choose_us", "us"},
    {"topo.embed_us", "us"},
    {"topo.fabric_build_ms", "ms"},
    {"simnet.network_build_ms", "ms"},
    {"sim.queue_ns_per_event", "ns"},
    {"sim.fifo_ns_per_grant", "ns"},
    {"core.evaluate_ms", "ms"},
    {"ccl.mailbox_sends_per_op", "count"},
    {"ccl.executor_parks_per_op", "count"},
    {"ccl.sm.parks_per_op", "count"},
    {"sim.events_per_op", "count"},
    {"simnet.transfers_per_op", "count"},
    {"op.remainder_frac", "frac"},
    {"op.trace_overhead_frac", "frac"},
};

// ---------------------------------------------------------------------------
// Report: human lines as the run goes, then a record line and the
// contract line.
// ---------------------------------------------------------------------------

class Report
{
  public:
    Report(std::string workload, std::uint64_t seed, bool trace)
        : workload_(std::move(workload)), seed_(seed), trace_(trace)
    {
        std::cout << "perf_ladder workload=" << workload_
                  << " seed=" << seed_ << " trace=" << (trace_ ? 1 : 0)
                  << "\n";
    }

    /** A metric of the contract line (must be in this mode's table). */
    void metric(const std::string& name, double value)
    {
        metrics_[name] = value;
        print(name, value, unitOf(name), "");
    }

    /** A printed-only metric (per-workload names, layer detail). */
    void info(const std::string& name, double value,
              const std::string& unit, const std::string& note = "")
    {
        info_.push_back({name, unit, value});
        print(name, value, unit, note);
    }

    void note(const std::string& text) { std::cout << "  # " << text << "\n"; }

    /** One row of an end-to-end number's breakdown. */
    void part(const std::string& total, const std::string& name,
              double us, double total_us)
    {
        const double share = total_us > 0.0 ? us / total_us : 0.0;
        breakdown_.push_back({total, name, us, share});
        char line[160];
        std::snprintf(line, sizeof(line), "    %-34s %14.3f us  %6.1f%%",
                      name.c_str(), us, 100.0 * share);
        std::cout << line << "\n";
    }

    void heading(const std::string& text)
    {
        std::cout << "\n== " << text << " ==\n";
    }

    /** One checked result that was correct. */
    void passed() { ++attempted_; }

    void failure(const std::string& what)
    {
        ++failed_;
        ++attempted_;
        if (failure_notes_++ < 5)
            std::cout << "  ! failed: " << what << "\n";
    }

    /** A contract metric already reported in this run. */
    double value(const std::string& name) const { return metrics_.at(name); }

    /** Prints fingerprint, record and contract line; exit code. */
    int finish(const perfbench::Fingerprint& fingerprint)
    {
        const double failed_frac =
            attempted_ > 0 ? static_cast<double>(failed_) /
                                 static_cast<double>(attempted_)
                           : 1.0;
        print("failed_frac", failed_frac, "frac",
              std::to_string(failed_) + "/" + std::to_string(attempted_));
        std::string metrics_json;
        for (const MetricName& m : table()) {
            const auto it = metrics_.find(m.name);
            if (it == metrics_.end()) {
                std::cerr << "perf_ladder: metric " << m.name
                          << " was not measured\n";
                return 1;
            }
            metrics_json += (metrics_json.empty() ? "" : ", ") +
                            jsonEntry(m.name, it->second, m.unit);
        }
        metrics_json = "{" + metrics_json + "}";
        const bool correct = failed_ == 0 && attempted_ > 0;

        std::string info_json;
        for (const Info& info : info_)
            info_json += (info_json.empty() ? "" : ", ") +
                         jsonEntry(info.name, info.value, info.unit);
        info_json = "{" + info_json + "}";
        std::string parts_json = "[";
        for (std::size_t i = 0; i < breakdown_.size(); ++i)
            parts_json +=
                std::string(i ? ", " : "") + "{\"total\": " +
                perfbench::jsonString(breakdown_[i].total) +
                ", \"part\": " + perfbench::jsonString(breakdown_[i].part) +
                ", \"us\": " + perfbench::jsonNumber(breakdown_[i].us) +
                ", \"share\": " + perfbench::jsonNumber(breakdown_[i].share) +
                "}";
        parts_json += "]";

        std::cout << "\nfingerprint: " << fingerprint.json() << "\n";
        std::cout << "record: {\"workload\": "
                  << perfbench::jsonString(workload_)
                  << ", \"seed\": " << seed_
                  << ", \"trace\": " << (trace_ ? 1 : 0)
                  << ", \"fingerprint\": " << fingerprint.json()
                  << ", \"correct\": " << (correct ? "true" : "false")
                  << ", \"attempted\": " << attempted_
                  << ", \"failed\": " << failed_
                  << ", \"metrics\": " << metrics_json
                  << ", \"info\": " << info_json
                  << ", \"breakdown\": " << parts_json << "}\n";
        std::cout << "{\"correct\": " << (correct ? "true" : "false")
                  << ", \"attempted\": " << attempted_
                  << ", \"failed\": " << failed_
                  << ", \"metrics\": " << metrics_json << "}" << std::endl;
        return 0;
    }

  private:
    struct Info {
        std::string name;
        std::string unit;
        double value;
    };
    struct Part {
        std::string total;
        std::string part;
        double us;
        double share;
    };

    std::vector<MetricName> table() const
    {
        if (trace_)
            return {std::begin(kPerLayer), std::end(kPerLayer)};
        return {std::begin(kEndToEnd), std::end(kEndToEnd)};
    }

    std::string unitOf(const std::string& name) const
    {
        for (const MetricName& m : table())
            if (name == m.name)
                return m.unit;
        throw std::logic_error("metric " + name + " is not in the table");
    }

    /** `"name": {"value": v, "unit": "u"}` */
    static std::string jsonEntry(const std::string& name, double value,
                                 const std::string& unit)
    {
        return perfbench::jsonString(name) + ": {\"value\": " +
               perfbench::jsonNumber(value) +
               ", \"unit\": " + perfbench::jsonString(unit) + "}";
    }

    static void print(const std::string& name, double value,
                      const std::string& unit, const std::string& note)
    {
        char line[200];
        std::snprintf(line, sizeof(line), "  %-34s %16.6g %-6s", name.c_str(),
                      value, unit.c_str());
        std::cout << line << (note.empty() ? "" : "  (" + note + ")")
                  << "\n";
    }

    std::string workload_;
    std::uint64_t seed_;
    bool trace_;
    std::map<std::string, double> metrics_;
    std::vector<Info> info_;
    std::vector<Part> breakdown_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    int failure_notes_ = 0;
};

// ---------------------------------------------------------------------------
// Spans: the traced run's in-memory log, written out on request.
// ---------------------------------------------------------------------------

class SpanLog
{
  public:
    /** Starts op @p op of class @p cls; later spans belong to it. */
    void beginOp(int op, std::string cls)
    {
        op_ = op;
        cls_ = std::move(cls);
    }

    /** Runs @p fn inside a span named @p name. */
    template <typename Fn>
    void time(const char* name, Fn&& fn)
    {
        const Clock::time_point start = Clock::now();
        fn();
        record(name, start, Clock::now());
    }

    void record(const char* name, Clock::time_point start,
                Clock::time_point end)
    {
        spans_.push_back({op_, cls_, name,
                          secondsBetween(origin_, start) * 1e6,
                          secondsBetween(origin_, end) * 1e6});
    }

    /** Median duration of the spans named @p name of class @p cls. */
    double p50Us(const std::string& name, const std::string& cls) const
    {
        std::vector<double> durations;
        for (const Span& s : spans_)
            if (s.name == name && s.cls == cls)
                durations.push_back(s.end_us - s.start_us);
        return median(durations);
    }

    void write(const std::string& path) const
    {
        std::ofstream out(path);
        out << "op,class,name,start_us,end_us\n";
        for (const Span& s : spans_)
            out << s.op << "," << s.cls << "," << s.name << ","
                << s.start_us << "," << s.end_us << "\n";
    }

  private:
    struct Span {
        int op;
        std::string cls;
        std::string name;
        double start_us;
        double end_us;
    };

    Clock::time_point origin_ = Clock::now();
    int op_ = 0;
    std::string cls_;
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Per-collective deltas of the always-on obs::RankCounters.
// ---------------------------------------------------------------------------

struct Counters {
    double sends = 0, recvs = 0, cas = 0, wait_ns = 0, post_ns = 0,
           slot_full = 0, ll_ns = 0, exec_parks = 0, sm_parks = 0,
           sm_resumes = 0, sm_steals = 0;

    static Counters now()
    {
        const obs::RankCounters& c = obs::RankCounters::global();
        Counters s;
        s.sends = static_cast<double>(c.totalMailboxSends());
        s.recvs = static_cast<double>(c.totalMailboxRecvs());
        s.cas = static_cast<double>(c.totalCasRetries());
        s.slot_full = static_cast<double>(c.totalSlotFullStalls());
        s.ll_ns = static_cast<double>(c.totalLLSpinNs());
        s.sm_parks = static_cast<double>(c.totalSmParks());
        s.sm_resumes = static_cast<double>(c.totalSmResumes());
        s.sm_steals = static_cast<double>(c.totalSmSteals());
        // Ranks past the per-rank slots fold into the unknown slot
        // (-1), so summing every slot keeps totals exact at any P.
        for (int r = -1; r < obs::RankCounters::kMaxRanks; ++r) {
            s.wait_ns += static_cast<double>(c.waitStallNs(r));
            s.post_ns += static_cast<double>(c.postStallNs(r));
            s.exec_parks += static_cast<double>(c.executorParks(r));
        }
        return s;
    }

    Counters& operator+=(const Counters& o)
    {
        sends += o.sends, recvs += o.recvs, cas += o.cas;
        wait_ns += o.wait_ns, post_ns += o.post_ns;
        slot_full += o.slot_full, ll_ns += o.ll_ns;
        exec_parks += o.exec_parks, sm_parks += o.sm_parks;
        sm_resumes += o.sm_resumes, sm_steals += o.sm_steals;
        return *this;
    }

    Counters operator-(const Counters& o) const
    {
        Counters d = *this;
        d.sends -= o.sends, d.recvs -= o.recvs, d.cas -= o.cas;
        d.wait_ns -= o.wait_ns, d.post_ns -= o.post_ns;
        d.slot_full -= o.slot_full, d.ll_ns -= o.ll_ns;
        d.exec_parks -= o.exec_parks, d.sm_parks -= o.sm_parks;
        d.sm_resumes -= o.sm_resumes, d.sm_steals -= o.sm_steals;
        return d;
    }
};

/** A rank task that is done on its first step: the empty collective of
 *  the state-machine engine. */
class DoneTask : public ccl::RankTask
{
  public:
    explicit DoneTask(int rank) : RankTask(rank, "empty") {}
    ccl::StepStatus step(ccl::StepContext&) override
    {
        return ccl::StepStatus::kDone;
    }
};

/** One empty collective on @p comm's engine (the envelope alone). */
void
emptyCollective(ccl::Communicator& comm)
{
    if (comm.engineMode() == ccl::RankExecutor::Mode::kStateMachine) {
        std::vector<std::unique_ptr<ccl::RankTask>> tasks;
        tasks.reserve(static_cast<std::size_t>(comm.numRanks()));
        for (int r = 0; r < comm.numRanks(); ++r)
            tasks.push_back(std::make_unique<DoneTask>(r));
        comm.runTasks(std::move(tasks), "empty");
    } else {
        comm.run([](int) {}, "empty");
    }
}

// ---------------------------------------------------------------------------
// Ladder rungs: fixed layer microbenchmarks every traced run measures.
// ---------------------------------------------------------------------------

/** Median over @p reps calls of @p fn, in microseconds. */
template <typename Fn>
double
medianUs(int reps, Fn&& fn)
{
    std::vector<double> samples;
    for (int i = 0; i < reps; ++i) {
        const Clock::time_point start = Clock::now();
        fn();
        samples.push_back(secondsBetween(start, Clock::now()) * 1e6);
    }
    return median(samples);
}

/** Median over @p batches of the per-item time of @p items calls of
 *  @p fn, in nanoseconds. */
template <typename Fn>
double
perItemNs(int batches, int items, Fn&& fn)
{
    return medianUs(batches,
                    [&]() {
                        for (int i = 0; i < items; ++i)
                            fn();
                    }) *
           1e3 / items;
}

topo::Graph
makeFabricGraph(int nodes)
{
    topo::SwitchFabricParams params;
    params.num_nodes = nodes;
    params.leaf_radix = 8;
    params.link_latency = 1.0e-6;
    return topo::makeSwitchFabric(params);
}

struct RungParams {
    std::size_t chunk_elems = 0;  ///< mailbox chunk of the workload
    std::size_t choose_elems = 0; ///< message size the tuner is asked
    ccl::Communicator* comm = nullptr; ///< engine for the envelope
};

void
measureRungs(const RungParams& params, Report& report)
{
    report.heading("layer rungs (fixed microbenchmarks)");
    {
        ccl::BoundedSemaphore sem(1024);
        report.metric("ccl.sync.post_wait_ns",
                      perItemNs(7, 100000, [&]() {
                          sem.post();
                          sem.wait();
                      }));
    }
    {
        // Cross-thread round trip: post to a waiting peer, wait for its
        // answer.
        ccl::BoundedSemaphore ping(1), pong(1);
        constexpr int kTrips = 4000;
        constexpr int kBatches = 5;
        std::thread peer([&]() {
            for (int i = 0; i < kTrips * kBatches; ++i) {
                ping.wait();
                pong.post();
            }
        });
        const double ns = perItemNs(kBatches, kTrips, [&]() {
            ping.post();
            pong.wait();
        });
        peer.join();
        report.metric("ccl.sync.handoff_us", ns / 1e3);
    }
    {
        ccl::Mailbox box(8);
        const std::vector<float> chunk(params.chunk_elems, 1.0f);
        std::vector<float> out;
        std::vector<float> acc(params.chunk_elems, 0.0f);
        const int items =
            static_cast<int>(std::clamp<std::size_t>(
                (64u << 20) / (params.chunk_elems * sizeof(float) + 1),
                16, 20000));
        const double bytes =
            static_cast<double>(params.chunk_elems * sizeof(float));
        const double copy_ns = perItemNs(5, items, [&]() {
            box.send(chunk, 0);
            box.recv(out);
        });
        const double reduce_ns = perItemNs(5, items, [&]() {
            box.send(chunk, 0);
            box.recvReduce(acc);
        });
        report.metric("ccl.mailbox.copy_gbps", bytes / copy_ns);
        report.metric("ccl.mailbox.reduce_gbps", bytes / reduce_ns);
        report.note("mailbox chunk " +
                    std::to_string(params.chunk_elems * sizeof(float)) +
                    " B");
    }
    report.metric("ccl.envelope_us", medianUs(301, [&]() {
                      emptyCollective(*params.comm);
                  }));
    const topo::Graph dgx1 = topo::makeDgx1();
    {
        ccl::Tuner::global().choose(dgx1, 8, params.choose_elems);
        report.metric("ccl.tuner.choose_us",
                      perItemNs(7, 2000, [&]() {
                          ccl::Tuner::global().choose(dgx1, 8,
                                                      params.choose_elems);
                      }) / 1e3);
    }
    {
        topo::EmbeddingSearchOptions search;
        search.num_ranks = 8;
        report.metric("topo.embed_us", medianUs(31, [&]() {
                          if (!topo::findConflictFreeDoubleTree(dgx1, search))
                              report.failure("no DGX-1 double tree");
                      }));
    }
    {
        std::optional<topo::Graph> fabric;
        report.metric("topo.fabric_build_ms", medianUs(5, [&]() {
                          fabric.emplace(makeFabricGraph(512));
                          topo::makeMirroredDoubleTree(*fabric, 512);
                      }) / 1e3);
        report.metric("simnet.network_build_ms", medianUs(5, [&]() {
                          sim::Simulation sim;
                          simnet::Network net(sim, *fabric);
                      }) / 1e3);
    }
    {
        // A self-rescheduling callback sized like the simnet transfer
        // captures (a pointer or two plus scalars), 64 chains pending.
        struct Chain {
            sim::EventQueue* queue;
            int* left;
            double step;
            double bytes;
            double factor;
            void operator()() const
            {
                if (--*left > 0)
                    queue->schedule(queue->now() + step, *this);
            }
        };
        std::vector<double> samples;
        for (int rep = 0; rep < 5; ++rep) {
            sim::EventQueue queue;
            int left = 200000;
            const Clock::time_point start = Clock::now();
            for (int i = 0; i < 64; ++i)
                queue.schedule(0.0, Chain{&queue, &left,
                                          1e-6 * (1.0 + i / 64.0), 1.0,
                                          1.0});
            queue.run();
            samples.push_back(secondsBetween(start, Clock::now()) * 1e9 /
                              static_cast<double>(queue.executedCount()));
        }
        report.metric("sim.queue_ns_per_event", median(samples));
    }
    {
        constexpr int kGrants = 100000;
        report.metric("sim.fifo_ns_per_grant",
                      medianUs(5,
                               [&]() {
                                   sim::Simulation sim;
                                   sim::FifoResource res(sim, "ch");
                                   for (int i = 0; i < kGrants; ++i)
                                       res.request([]() { return 1e-6; },
                                                   nullptr);
                                   sim.run();
                               }) *
                          1e3 / kGrants);
    }
    {
        const core::CCubeEngine engine(dnn::buildResnet50());
        core::IterationConfig config;
        config.batch = 64;
        report.metric("core.evaluate_ms", medianUs(5, [&]() {
                          engine.evaluate(core::Mode::kCCube, config);
                      }) / 1e3);
    }
}

// ---------------------------------------------------------------------------
// Functional workloads.
// ---------------------------------------------------------------------------

struct CclSpec {
    int ranks = 8;
    std::vector<std::size_t> sizes; ///< floats per rank, one op class each
    ccl::RankExecutor::Mode mode = ccl::RankExecutor::defaultMode();
    bool autotuned = true;          ///< runAuto, else direct double tree
    int chunks_per_tree = 2;        ///< direct double tree only
};

CclSpec
cclSpec(const std::string& workload)
{
    CclSpec spec;
    if (workload == "ccl_latency") {
        spec.sizes = {256, 1024, 4096, 16384}; // 1/4/16/64 KiB
    } else if (workload == "ccl_bandwidth") {
        spec.sizes = {1u << 20, 4u << 20}; // 4/16 MiB
    } else {
        spec.ranks = 256;
        spec.sizes = {1024}; // 4 KiB
        spec.mode = ccl::RankExecutor::Mode::kStateMachine;
        spec.autotuned = false;
    }
    return spec;
}

/** Everything a functional workload builds before its first timed op. */
struct CclSetup {
    topo::Graph graph = topo::makeDgx1();
    std::optional<topo::DoubleTreeEmbedding> direct;
    std::unique_ptr<ccl::Communicator> comm;
    std::vector<ccl::RankBuffers> buffers; ///< one per op class
};

void
runCclOp(const CclSpec& spec, CclSetup& setup, ccl::RankBuffers& buffers)
{
    if (spec.autotuned)
        setup.comm->runAuto(buffers, setup.graph);
    else
        ccl::doubleTreeAllReduce(*setup.comm, buffers, *setup.direct,
                                 spec.chunks_per_tree,
                                 ccl::TreePhaseMode::kOverlapped);
}

/** Wall and whole-process CPU time of one op. */
struct OpTime {
    double wall_s = -1.0; ///< negative: the op failed
    double cpu_s = 0.0;
};

/** Runs one op on fresh seeded inputs and checks the exact sum; with
 *  @p spans, the op runs inside a span named @p span. A failed op (it
 *  threw or produced a wrong sum) is counted in @p report and returns
 *  a negative wall time. */
template <typename Op>
OpTime
checkedOp(perfbench::ExactInputs& inputs, ccl::RankBuffers& buffers,
          std::uint64_t input_seed, Report& report, Op&& op,
          SpanLog* spans = nullptr, const char* span = nullptr)
{
    inputs.fill(buffers, input_seed);
    OpTime time;
    Clock::time_point start, end;
    try {
        const double cpu0 = perfbench::processCpuSeconds();
        start = Clock::now();
        op();
        end = Clock::now();
        time.cpu_s = perfbench::processCpuSeconds() - cpu0;
    } catch (const std::exception& e) {
        report.failure(std::string("collective threw: ") + e.what());
        return time;
    }
    const std::size_t bad = inputs.mismatches(buffers);
    if (bad != 0) {
        report.failure(std::to_string(bad) + " elements differ from the "
                                             "exact sum");
        return time;
    }
    report.passed();
    if (spans != nullptr)
        spans->record(span, start, end);
    time.wall_s = secondsBetween(start, end);
    return time;
}

std::unique_ptr<CclSetup>
buildCcl(const CclSpec& spec, Report& report)
{
    ccl::Tuner::global().clearCache();
    auto setup = std::make_unique<CclSetup>();
    if (!spec.autotuned)
        setup->direct.emplace(
            topo::directEmbedding(topo::BinaryTree::inorder(spec.ranks)),
            topo::directEmbedding(
                topo::BinaryTree::inorder(spec.ranks).mirrored()));
    setup->comm = std::make_unique<ccl::Communicator>(spec.ranks, 4,
                                                      spec.mode);
    perfbench::ExactInputs inputs;
    for (std::size_t elems : spec.sizes) {
        setup->buffers.emplace_back(static_cast<std::size_t>(spec.ranks),
                                    std::vector<float>(elems, 0.0f));
        // Warm-up: tuner tables, mailbox slots, engine threads.
        for (int i = 0; i < 3; ++i)
            checkedOp(inputs, setup->buffers.back(), 0x5eedull + i, report,
                      [&]() {
                          runCclOp(spec, *setup, setup->buffers.back());
                      });
    }
    return setup;
}

/** Seeded op-class order: every block of N ops runs each class once. */
class ClassOrder
{
  public:
    ClassOrder(std::size_t classes, std::mt19937_64& rng)
        : rng_(rng), order_(classes)
    {
        for (std::size_t i = 0; i < classes; ++i)
            order_[i] = i;
        next_ = classes;
    }

    std::size_t next()
    {
        if (next_ == order_.size()) {
            std::shuffle(order_.begin(), order_.end(), rng_);
            next_ = 0;
        }
        return order_[next_++];
    }

  private:
    std::mt19937_64& rng_;
    std::vector<std::size_t> order_;
    std::size_t next_;
};

double
minOf(const std::vector<double>& values)
{
    return values.empty() ? 0.0
                          : *std::min_element(values.begin(), values.end());
}

double
maxOf(const std::vector<double>& values)
{
    return values.empty() ? 0.0
                          : *std::max_element(values.begin(), values.end());
}

/** Geometric mean of positive values (0 if any is not positive). */
double
geomean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        if (!(v > 0.0))
            return 0.0;
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string
sizeLabel(std::size_t elems)
{
    const std::size_t bytes = elems * sizeof(float);
    if (bytes >= (1u << 20))
        return std::to_string(bytes >> 20) + "MiB";
    return std::to_string(bytes >> 10) + "KiB";
}

void
runCcl(const std::string& workload, std::uint64_t seed, double seconds,
       bool trace, Report& report, SpanLog& spans)
{
    const CclSpec spec = cclSpec(workload);
    const double p = spec.ranks;

    // Set-up, several times; the last one is kept.
    std::vector<double> setup_s;
    std::unique_ptr<CclSetup> setup;
    for (int i = 0; i < 5; ++i) {
        setup.reset();
        const Clock::time_point start = Clock::now();
        setup = buildCcl(spec, report);
        setup_s.push_back(secondsBetween(start, Clock::now()));
    }

    std::mt19937_64 rng(seed);
    ClassOrder order(spec.sizes.size(), rng);
    perfbench::ExactInputs inputs;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));

    if (!trace) {
        struct Op {
            std::size_t cls;
            double us;
            double cpu_us;
        };
        std::vector<Op> done;
        do {
            const std::size_t c = order.next();
            ccl::RankBuffers& buffers = setup->buffers[c];
            const OpTime t = checkedOp(inputs, buffers, rng(), report,
                                       [&]() {
                                           runCclOp(spec, *setup, buffers);
                                       });
            if (t.wall_s >= 0.0)
                done.push_back({c, t.wall_s * 1e6, t.cpu_s * 1e6});
        } while (Clock::now() < deadline);

        // The run is cut into consecutive windows, each holding every
        // size class about equally often. Every statistic is taken per
        // window and the run reports its best window (the minimum of N,
        // within one run), so a slow phase of a shared host that covers
        // most of the run does not move it. Across size classes a window
        // reports the geometric mean (a pooled median would fall into
        // the gap between two classes).
        const std::size_t classes = spec.sizes.size();
        const std::size_t windows = std::clamp<std::size_t>(
            done.size() / (40 * classes), 1, 10);
        std::vector<double> w_p50, w_tail, w_rate, w_cpu;
        std::vector<std::vector<double>> c_p50(classes), c_tail(classes);
        std::vector<perfbench::TailPick> c_pick(classes);
        for (std::size_t w = 0; w < windows; ++w) {
            const std::size_t begin = w * done.size() / windows;
            const std::size_t end = (w + 1) * done.size() / windows;
            std::vector<std::vector<double>> lat(classes);
            double wall_us = 0.0, cpu_us = 0.0;
            for (std::size_t i = begin; i < end; ++i) {
                lat[done[i].cls].push_back(done[i].us);
                wall_us += done[i].us;
                cpu_us += done[i].cpu_us;
            }
            std::vector<double> p50s, tails;
            for (std::size_t c = 0; c < classes; ++c) {
                c_pick[c] = pickTail(lat[c]);
                c_p50[c].push_back(median(lat[c]));
                c_tail[c].push_back(c_pick[c].value);
                p50s.push_back(c_p50[c].back());
                tails.push_back(c_tail[c].back());
            }
            const double n = static_cast<double>(end - begin);
            w_p50.push_back(geomean(p50s));
            w_tail.push_back(geomean(tails));
            w_rate.push_back(n / (wall_us * 1e-6));
            w_cpu.push_back(cpu_us / n);
        }

        report.heading("end to end (" + std::to_string(done.size()) +
                       " ops, best of " + std::to_string(windows) +
                       " windows)");
        for (std::size_t c = 0; c < classes; ++c) {
            const std::string label = sizeLabel(spec.sizes[c]);
            const double p50 = minOf(c_p50[c]);
            const double bytes =
                static_cast<double>(spec.sizes[c] * sizeof(float));
            report.info("allreduce_p50_us@" + label, p50, "us");
            char note[96];
            std::snprintf(note, sizeof(note),
                          "p%g of each window, n=%zu, %zu beyond",
                          c_pick[c].percentile, c_pick[c].n,
                          c_pick[c].beyond);
            report.info("allreduce_tail_us@" + label, minOf(c_tail[c]),
                        "us", note);
            report.info("busbw_gbps@" + label,
                        2.0 * (p - 1.0) / p * bytes / (p50 * 1e3), "GB/s");
        }
        report.metric("op_p50_us", minOf(w_p50));
        report.metric("op_tail_us", minOf(w_tail));
        report.metric("ops_per_s", maxOf(w_rate));
        report.metric("cpu_us_per_op", minOf(w_cpu));
        report.metric("setup_s", median(setup_s));
        report.metric("peak_rss_mb", perfbench::peakRssMb());
        report.note("op_p50_us = allreduce_p50_us and op_tail_us = "
                    "allreduce_tail_us (geomean over sizes); ops_per_s = "
                    "allreduce_per_s");
        return;
    }

    // Traced run: per op, the layers called one by one on the same
    // inputs (embedding search, tuner, chosen algorithm on the prebuilt
    // embedding, empty collective), then the end-to-end call inside a
    // span, then the same call without one.
    std::vector<std::vector<double>> untraced_us(spec.sizes.size());
    Counters deltas;
    int ops = 0;
    do {
        const std::size_t c = order.next();
        ccl::RankBuffers& buffers = setup->buffers[c];
        const std::size_t elems = spec.sizes[c];
        spans.beginOp(ops++, sizeLabel(elems));
        std::optional<topo::DoubleTreeEmbedding> found;
        ccl::TunerChoice choice;
        if (spec.autotuned) {
            spans.time("topo.embed", [&]() {
                topo::EmbeddingSearchOptions search;
                search.num_ranks = spec.ranks;
                found = topo::findConflictFreeDoubleTree(setup->graph,
                                                         search);
            });
            spans.time("ccl.tuner.choose", [&]() {
                choice = ccl::Tuner::global().choose(setup->graph,
                                                     spec.ranks, elems);
            });
            if (!found ||
                (choice.algorithm != ccl::AllReduceAlgorithm::kDoubleTree &&
                 choice.algorithm !=
                     ccl::AllReduceAlgorithm::kCCubeDoubleTree)) {
                report.failure("the tuner picked a non-double-tree cell");
                continue;
            }
        } else {
            found = setup->direct;
            choice.num_chunks = spec.chunks_per_tree;
            choice.algorithm = ccl::AllReduceAlgorithm::kCCubeDoubleTree;
        }
        const ccl::TreePhaseMode phase =
            choice.algorithm == ccl::AllReduceAlgorithm::kDoubleTree
                ? ccl::TreePhaseMode::kTwoPhase
                : ccl::TreePhaseMode::kOverlapped;
        checkedOp(
            inputs, buffers, rng(), report,
            [&]() {
                ccl::doubleTreeAllReduce(*setup->comm, buffers, *found,
                                         choice.num_chunks, phase, {},
                                         choice.protocol);
            },
            &spans, "ccl.algorithm");
        const Counters before = Counters::now();
        checkedOp(
            inputs, buffers, rng(), report,
            [&]() { runCclOp(spec, *setup, buffers); }, &spans, "op");
        deltas += Counters::now() - before;
        spans.time("ccl.envelope", [&]() { emptyCollective(*setup->comm); });
        const OpTime plain = checkedOp(inputs, buffers, rng(), report,
                                       [&]() {
                                           runCclOp(spec, *setup, buffers);
                                       });
        if (plain.wall_s >= 0.0)
            untraced_us[c].push_back(plain.wall_s * 1e6);
    } while (Clock::now() < deadline);

    // Per size class, each part's median; the all-sizes row averages
    // the per-class medians, so its parts still add up.
    const double n = std::max(1, ops);
    const double classes = static_cast<double>(spec.sizes.size());
    double e2e = 0, untraced = 0, remainder = 0;
    std::map<std::string, double> mean_part;
    for (std::size_t c = 0; c <= spec.sizes.size(); ++c) {
        const bool all = c == spec.sizes.size();
        const std::string label = all ? "all sizes" : sizeLabel(spec.sizes[c]);
        std::map<std::string, double> part;
        double total = 0.0;
        if (all) {
            part = mean_part;
            total = e2e;
        } else {
            // A layer the workload does not call has no spans: 0.
            for (const char* name : {"topo.embed", "ccl.tuner.choose",
                                     "ccl.algorithm", "ccl.envelope"})
                part[name] = spans.p50Us(name, label);
            total = spans.p50Us("op", label);
            for (const auto& [name, us] : part)
                mean_part[name] += us / classes;
            e2e += total / classes;
            untraced += median(untraced_us[c]) / classes;
        }
        const double rest = total - part["topo.embed"] -
                            part["ccl.tuner.choose"] - part["ccl.algorithm"];
        if (all)
            remainder = rest;
        report.heading("ladder " + label + ": allreduce_p50_us = " +
                       std::to_string(total) + " us (traced)");
        const std::string total_name = "allreduce_p50_us@" + label;
        if (spec.autotuned) {
            report.part(total_name, "topo.embed_us", part["topo.embed"],
                        total);
            report.part(total_name, "ccl.tuner.choose_us",
                        part["ccl.tuner.choose"], total);
        }
        report.part(total_name, "ccl.envelope_us", part["ccl.envelope"],
                    total);
        report.part(total_name, "ccl.algorithm_us (self)",
                    part["ccl.algorithm"] - part["ccl.envelope"], total);
        report.part(total_name, "ccl.remainder_us", rest, total);
    }
    if (spec.autotuned) {
        for (std::size_t elems : spec.sizes) {
            const ccl::TunerChoice pick =
                ccl::Tuner::global().choose(setup->graph, spec.ranks, elems);
            report.note("tuner at " + sizeLabel(elems) + ": " +
                        ccl::algorithmName(pick.algorithm) + ", " +
                        ccl::protocolName(pick.protocol) + ", " +
                        std::to_string(pick.num_chunks) +
                        " chunks per tree");
        }
    }
    report.info("ccl.algorithm_us", mean_part["ccl.algorithm"], "us",
                "chosen cell on a prebuilt embedding, mean over sizes");
    report.info("ccl.remainder_us", remainder, "us");
    report.info("trace.overhead_us", e2e - untraced, "us",
                "traced p50 " + std::to_string(e2e) + " - untraced p50 " +
                    std::to_string(untraced));

    report.heading("per-collective obs::RankCounters deltas");
    report.info("ccl.mailbox_sends_per_op", deltas.sends / n, "count");
    report.info("ccl.cas_retry_ratio",
                deltas.sends + deltas.recvs > 0
                    ? deltas.cas / (deltas.sends + deltas.recvs)
                    : 0.0,
                "frac");
    report.info("ccl.wait_stall_us_per_op", deltas.wait_ns / n / 1e3, "us");
    report.info("ccl.post_stall_us_per_op", deltas.post_ns / n / 1e3, "us");
    report.info("ccl.slot_full_stalls_per_op", deltas.slot_full / n,
                "count");
    report.info("ccl.ll_spin_us_per_op", deltas.ll_ns / n / 1e3, "us");
    report.info("ccl.executor_parks_per_op", deltas.exec_parks / n,
                "count");
    report.info("ccl.sm.parks_per_op", deltas.sm_parks / n, "count");
    report.info("ccl.sm.resumes_per_op", deltas.sm_resumes / n, "count");
    report.info("ccl.sm.steals_per_op", deltas.sm_steals / n, "count");

    RungParams rungs;
    {
        const std::size_t largest = spec.sizes.back();
        const int chunks =
            spec.autotuned
                ? ccl::Tuner::global()
                      .choose(setup->graph, spec.ranks, largest)
                      .num_chunks
                : spec.chunks_per_tree;
        rungs.chunk_elems = std::max<std::size_t>(
            1, largest / (2 * static_cast<std::size_t>(chunks)));
        rungs.choose_elems = spec.sizes[spec.sizes.size() / 2];
        rungs.comm = setup->comm.get();
    }
    measureRungs(rungs, report);

    report.heading("per-layer metrics of this workload");
    report.metric("ccl.mailbox_sends_per_op", deltas.sends / n);
    report.metric("ccl.executor_parks_per_op", deltas.exec_parks / n);
    report.metric("ccl.sm.parks_per_op", deltas.sm_parks / n);
    report.metric("sim.events_per_op", 0.0);
    report.metric("simnet.transfers_per_op", 0.0);
    report.metric("op.remainder_frac", e2e > 0.0 ? remainder / e2e : 0.0);
    report.metric("op.trace_overhead_frac",
                  untraced > 0.0 ? (e2e - untraced) / untraced : 0.0);
}

// ---------------------------------------------------------------------------
// DES workload.
// ---------------------------------------------------------------------------

/** One grid cell: a Fig. 14 (P, size) point or a Fig. 13 engine point. */
struct DesCell {
    bool fig14 = true;
    int p = 0;          ///< Fig. 14 endpoints
    double bytes = 0.0; ///< Fig. 14 payload, jittered by the seed
    int engine = 0;     ///< Fig. 13 workload index
    double bandwidth_scale = 1.0;
    int batch = 0;
};

/** What one cell produced; each task fills only its own slot. */
struct DesCellOut {
    bool ok = false;
    std::string error;
    double wall_s = 0, cpu_s = 0;
    double fabric_s = 0, network_s = 0, schedule_s = 0, evaluate_s = 0,
           oracle_s = 0;
    double events = 0, transfers = 0;
    double c1_completion = 0, c1_turnaround = 0, cc_iteration = 0;
    Clock::time_point start, end;
    perfbench::Digest digest;
};

struct DesGrid {
    std::vector<DesCell> cells;
    std::vector<std::unique_ptr<core::CCubeEngine>> engines;
};

DesGrid
buildDesGrid(std::uint64_t seed)
{
    DesGrid grid;
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> jitter(0.0, 1.0 / 64.0);
    const double sizes[] = {16.0 * 1024, 1024.0 * 1024,
                            64.0 * 1024 * 1024, 256.0 * 1024 * 1024};
    for (double size : sizes)
        for (int p = 8; p <= 512; p *= 2) {
            DesCell cell;
            cell.p = p;
            cell.bytes = size * (1.0 + jitter(rng));
            grid.cells.push_back(cell);
        }
    grid.engines.push_back(
        std::make_unique<core::CCubeEngine>(dnn::buildZfNet()));
    grid.engines.push_back(
        std::make_unique<core::CCubeEngine>(dnn::buildVgg16()));
    grid.engines.push_back(
        std::make_unique<core::CCubeEngine>(dnn::buildResnet50()));
    for (int e = 0; e < 3; ++e)
        for (double bw : {0.25, 1.0})
            for (int batch : {16, 32, 64, 128}) {
                DesCell cell;
                cell.fig14 = false;
                cell.engine = e;
                cell.bandwidth_scale = bw;
                cell.batch = batch;
                grid.cells.push_back(cell);
            }
    return grid;
}

/** Every chunk reached every rank at a finite time within the run. */
bool
allChunksArrived(const simnet::ScheduleResult& r, int ranks,
                 int expect_chunks)
{
    if (r.num_chunks < 1 ||
        (expect_chunks > 0 && r.num_chunks != expect_chunks))
        return false;
    if (!(std::isfinite(r.completion_time) && r.completion_time > 0.0))
        return false;
    if (static_cast<int>(r.chunk_at_rank.size()) != ranks)
        return false;
    for (const std::vector<double>& row : r.chunk_at_rank) {
        if (static_cast<int>(row.size()) != r.num_chunks)
            return false;
        for (double t : row)
            if (!(std::isfinite(t) && t >= 0.0 && t <= r.completion_time))
                return false;
    }
    return true;
}

void
digestSchedule(perfbench::Digest& digest, const simnet::ScheduleResult& r)
{
    digest.add(static_cast<std::uint64_t>(r.num_chunks));
    digest.add(r.completion_time);
    for (const std::vector<double>& row : r.chunk_at_rank)
        for (double t : row)
            digest.add(t);
}

void
runDesCell(const DesGrid& grid, std::size_t index, bool traced,
           DesCellOut& out)
{
    const DesCell& cell = grid.cells[index];
    const Clock::time_point start = Clock::now();
    const double cpu0 = perfbench::threadCpuSeconds();
    Clock::time_point mark = start;
    // Phase clocks only in the traced run.
    auto lap = [&](double& into) {
        if (!traced)
            return;
        const Clock::time_point now = Clock::now();
        into += secondsBetween(mark, now);
        mark = now;
    };
    try {
        if (cell.fig14) {
            const topo::Graph graph = makeFabricGraph(cell.p);
            const topo::DoubleTreeEmbedding tree =
                topo::makeMirroredDoubleTree(graph, cell.p);
            const topo::RingEmbedding ring = topo::makeSequentialRing(cell.p);
            lap(out.fabric_s);
            // Paper granularity: 256 KiB chunks; each tree carries half.
            const int chunks = std::max(
                1, static_cast<int>(cell.bytes / 2.0 / (256.0 * 1024.0)));
            bool ok = true;
            auto run = [&](int which) {
                sim::Simulation sim;
                simnet::Network net(sim, graph);
                lap(out.network_s);
                simnet::ScheduleResult r;
                if (which == 0)
                    r = simnet::runRingSchedule(sim, net, ring, cell.bytes);
                else
                    r = simnet::runDoubleTreeSchedule(
                        sim, net, tree, cell.bytes,
                        which == 1 ? simnet::PhaseMode::kOverlapped
                                   : simnet::PhaseMode::kTwoPhase,
                        chunks, simnet::LanePolicy::kPointToPoint);
                lap(out.schedule_s);
                out.events += static_cast<double>(sim.queue().executedCount());
                out.transfers += static_cast<double>(net.totalTransfers());
                ok = ok && allChunksArrived(r, cell.p,
                                            which == 0 ? -1 : 2 * chunks);
                digestSchedule(out.digest, r);
                lap(out.oracle_s);
                return r;
            };
            run(0);
            const simnet::ScheduleResult c1 = run(1);
            run(2);
            out.c1_completion = c1.completion_time;
            out.c1_turnaround = c1.turnaroundTime();
            out.ok = ok;
            if (!ok)
                out.error = "a chunk did not reach every rank (P=" +
                            std::to_string(cell.p) + ")";
        } else {
            const core::CCubeEngine& engine =
                *grid.engines[static_cast<std::size_t>(cell.engine)];
            core::IterationConfig config;
            config.batch = cell.batch;
            config.bandwidth_scale = cell.bandwidth_scale;
            bool ok = true;
            for (core::Mode mode : core::allModes()) {
                const core::IterationResult r = engine.evaluate(mode, config);
                lap(out.evaluate_s);
                ok = ok && std::isfinite(r.iteration_time) &&
                     r.iteration_time > 0.0 && std::isfinite(r.comm_time);
                out.digest.add(r.iteration_time);
                out.digest.add(r.comm_time);
                out.digest.add(r.turnaround_time);
                out.digest.add(r.normalized_perf);
                lap(out.oracle_s);
                if (mode == core::Mode::kCCube)
                    out.cc_iteration = r.iteration_time;
            }
            out.ok = ok;
            if (!ok)
                out.error = "an iteration time was not positive";
        }
    } catch (const std::exception& e) {
        out.ok = false;
        out.error = e.what();
    }
    out.cpu_s = perfbench::threadCpuSeconds() - cpu0;
    out.start = start;
    out.end = Clock::now();
    out.wall_s = secondsBetween(start, out.end);
}

struct DesRun {
    double wall_s = 0.0;
    int jobs = 1;
    std::vector<DesCellOut> cells;
    std::string digest;
    double sim_allreduce_us = 0, sim_turnaround_us = 0, sim_iter_ms = 0;
};

DesRun
runDesGrid(const DesGrid& grid, int jobs, bool traced, Report& report)
{
    DesRun run;
    run.cells.resize(grid.cells.size());
    sweep::Options pool;
    pool.jobs = jobs;
    pool.capture_obs = false;
    run.jobs = pool.effectiveJobs(grid.cells.size());
    const Clock::time_point start = Clock::now();
    sweep::runIndexed(pool, grid.cells.size(), [&](std::size_t i) {
        runDesCell(grid, i, traced, run.cells[i]);
    });
    run.wall_s = secondsBetween(start, Clock::now());

    perfbench::Digest digest;
    std::vector<double> c1, turnaround, iteration;
    for (std::size_t i = 0; i < run.cells.size(); ++i) {
        const DesCellOut& out = run.cells[i];
        digest.add(out.digest.value());
        if (!out.ok) {
            report.failure("cell " + std::to_string(i) + ": " + out.error);
            continue;
        }
        report.passed();
        if (grid.cells[i].fig14) {
            c1.push_back(out.c1_completion * 1e6);
            turnaround.push_back(out.c1_turnaround * 1e6);
        } else {
            iteration.push_back(out.cc_iteration * 1e3);
        }
    }
    run.digest = digest.hex();
    run.sim_allreduce_us = geomean(c1);
    run.sim_turnaround_us = geomean(turnaround);
    run.sim_iter_ms = geomean(iteration);
    return run;
}

/** Repeats must agree exactly on every simulated result. */
void
checkSameSimulation(const DesRun& reference, const DesRun& run,
                    const std::string& what, Report& report)
{
    if (run.digest != reference.digest ||
        run.sim_allreduce_us != reference.sim_allreduce_us ||
        run.sim_turnaround_us != reference.sim_turnaround_us ||
        run.sim_iter_ms != reference.sim_iter_ms)
        report.failure("simulated results differ: " + what + " (digest " +
                       run.digest + " vs " + reference.digest + ")");
    else
        report.passed();
}

void
printSimulated(const DesRun& run, Report& report)
{
    report.info("sim_ccube_allreduce_us", run.sim_allreduce_us, "us",
                "simulated; geomean C1 completion, Fig. 14 grid");
    report.info("sim_ccube_turnaround_us", run.sim_turnaround_us, "us",
                "simulated; geomean C1 turnaround");
    report.info("sim_train_iter_ms", run.sim_iter_ms, "ms",
                "simulated; geomean CC iteration, Fig. 13 grid");
    report.note("simulated digest " + run.digest);
}

void
runDes(std::uint64_t seed, double seconds, bool trace, int jobs,
       Report& report, SpanLog& spans)
{
    std::vector<double> setup_s;
    DesGrid grid;
    for (int i = 0; i < 5; ++i) {
        grid = DesGrid{};
        const Clock::time_point start = Clock::now();
        grid = buildDesGrid(seed);
        // Warm-up through the pool the grid uses, on many short cells so
        // every worker's core takes part: the Fig. 14 cells up to P=64
        // and 1 MiB, and the first Fig. 13 cell of each network.
        std::vector<std::size_t> warm;
        for (std::size_t w = 0; w < grid.cells.size(); ++w) {
            const DesCell& cell = grid.cells[w];
            if (cell.fig14
                    ? cell.p <= 64 && cell.bytes < 2.0 * 1024 * 1024
                    : cell.batch == 16 && cell.bandwidth_scale < 1.0)
                warm.push_back(w);
        }
        std::vector<DesCellOut> outs(warm.size());
        sweep::Options pool;
        pool.jobs = jobs;
        pool.capture_obs = false;
        sweep::runIndexed(pool, warm.size(), [&](std::size_t k) {
            runDesCell(grid, warm[k], false, outs[k]);
        });
        for (const DesCellOut& out : outs) {
            if (out.ok)
                report.passed();
            else
                report.failure("warm-up cell: " + out.error);
        }
        setup_s.push_back(secondsBetween(start, Clock::now()));
    }
    const std::size_t cells = grid.cells.size();

    if (!trace) {
        std::vector<DesRun> runs;
        const Clock::time_point deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
        // Whole grids until --seconds have passed, and at least three, so
        // each cell has a best of three.
        do {
            runs.push_back(runDesGrid(grid, jobs, false, report));
            if (runs.size() > 1)
                checkSameSimulation(runs.front(), runs.back(),
                                    "between repeats", report);
        } while (runs.size() < 3 || Clock::now() < deadline);

        // Each grid is one window (see runCcl); a cell is its own op
        // class, and each cell reports its best time over the grids.
        std::vector<double> best_us(cells), best_cpu_us(cells), walls, cpus;
        for (std::size_t i = 0; i < cells; ++i) {
            std::vector<double> wall_us, cpu_us;
            for (const DesRun& run : runs) {
                wall_us.push_back(run.cells[i].wall_s * 1e6);
                cpu_us.push_back(run.cells[i].cpu_s * 1e6);
            }
            best_us[i] = minOf(wall_us);
            best_cpu_us[i] = minOf(cpu_us);
        }
        for (const DesRun& run : runs) {
            double cpu = 0.0;
            for (const DesCellOut& out : run.cells)
                cpu += out.cpu_s;
            walls.push_back(run.wall_s);
            cpus.push_back(cpu);
        }
        double best_cpu = 0.0;
        for (double us : best_cpu_us)
            best_cpu += us;

        report.heading("end to end (best of " +
                       std::to_string(runs.size()) + " grids of " +
                       std::to_string(cells) + " cells)");
        report.info("des_wall_s", minOf(walls), "s",
                    "jobs=" + std::to_string(runs.front().jobs));
        report.info("des_cpu_s", minOf(cpus), "s",
                    "summed per-cell thread CPU time");
        printSimulated(runs.front(), report);
        report.metric("op_p50_us", geomean(best_us));
        // The cells are distinct configurations, not samples of one
        // distribution, so no percentile of 52 cells has ten beyond it
        // that stays put; the tail is the slowest cell, the long pole.
        report.metric("op_tail_us", maxOf(best_us));
        report.metric("ops_per_s",
                      static_cast<double>(cells) / minOf(walls));
        report.metric("cpu_us_per_op",
                      best_cpu / static_cast<double>(cells));
        report.metric("setup_s", median(setup_s));
        report.metric("peak_rss_mb", perfbench::peakRssMb());
        report.note("op = one grid cell, at its best time over the grids: "
                    "op_p50_us is the geomean cell time, ops_per_s = cells "
                    "/ des_wall_s, cpu_us_per_op = summed cell CPU / "
                    "cells");
        return;
    }

    // Traced run, three grids whatever --seconds says: with phase clocks
    // at jobs=N, at jobs=1 (results must match exactly) and untraced at
    // jobs=N (the tracing overhead).
    const DesRun traced = runDesGrid(grid, jobs, true, report);
    const DesRun serial = runDesGrid(grid, 1, false, report);
    const DesRun plain = runDesGrid(grid, jobs, false, report);
    checkSameSimulation(traced, serial, "jobs=1 vs jobs=" +
                                            std::to_string(traced.jobs),
                        report);
    checkSameSimulation(traced, plain, "traced vs untraced", report);
    for (std::size_t i = 0; i < cells; ++i) {
        spans.beginOp(static_cast<int>(i),
                      grid.cells[i].fig14 ? "fig14" : "fig13");
        spans.record("des.cell", traced.cells[i].start, traced.cells[i].end);
    }

    double sum_wall = 0, sum_cpu = 0, fabric = 0, network = 0,
           schedule = 0, evaluate = 0, oracle = 0, events = 0,
           transfers = 0, cell_max = 0;
    int fig14 = 0, evaluations = 0;
    for (std::size_t i = 0; i < cells; ++i) {
        const DesCellOut& out = traced.cells[i];
        sum_wall += out.wall_s;
        sum_cpu += out.cpu_s;
        fabric += out.fabric_s;
        network += out.network_s;
        schedule += out.schedule_s;
        evaluate += out.evaluate_s;
        oracle += out.oracle_s;
        events += out.events;
        transfers += out.transfers;
        cell_max = std::max(cell_max, out.wall_s);
        if (grid.cells[i].fig14)
            ++fig14;
        else
            evaluations += static_cast<int>(core::allModes().size());
    }
    const double remainder = sum_wall - fabric - network - schedule -
                             evaluate - oracle;

    ccl::Communicator comm(8);
    RungParams rungs;
    rungs.chunk_elems = (256u * 1024u) / sizeof(float);
    rungs.choose_elems = 1024;
    rungs.comm = &comm;
    measureRungs(rungs, report);

    const double total_us = sum_wall * 1e6;
    report.heading("ladder: summed cell wall time (traced) = " +
                   std::to_string(sum_wall) + " s");
    report.part("des_cell_s", "topo.fabric_build", fabric * 1e6, total_us);
    report.part("des_cell_s", "simnet.network_build", network * 1e6,
                total_us);
    report.part("des_cell_s", "simnet.schedule (event loop)",
                schedule * 1e6, total_us);
    report.part("des_cell_s", "core.evaluate", evaluate * 1e6, total_us);
    report.part("des_cell_s", "oracle (chunk check + digest)",
                oracle * 1e6, total_us);
    report.part("des_cell_s", "remainder", remainder * 1e6, total_us);
    report.info("sim.queue_share_of_schedule",
                schedule > 0 ? events *
                                   report.value("sim.queue_ns_per_event") /
                                   (schedule * 1e9)
                             : 0.0,
                "frac", "events x queue rung ns / schedule time");
    report.heading("ladder: des_wall_s = " + std::to_string(traced.wall_s) +
                   " s at jobs=" + std::to_string(traced.jobs));
    report.info("des.cell_max_s", cell_max, "s", "the long-pole cell");
    report.info("sweep.idle_frac",
                1.0 - sum_wall / (traced.jobs * traced.wall_s), "frac",
                "1 - sum(cell) / (jobs x wall)");
    report.info("des_wall_s@jobs1", serial.wall_s, "s");
    report.info("trace.overhead_s", traced.wall_s - plain.wall_s, "s",
                "traced wall - untraced wall");
    report.info("des_cpu_s", sum_cpu, "s", "summed cell thread CPU time");
    report.heading("timed layers");
    report.info("sim.events", events, "count", "per grid");
    report.info("simnet.transfers", transfers, "count", "per grid");
    report.info("sim.ns_per_event", events > 0 ? schedule * 1e9 / events : 0,
                "ns", "schedule host time / events");
    report.info("simnet.ns_per_transfer",
                transfers > 0 ? schedule * 1e9 / transfers : 0, "ns");
    report.info("simnet.network_build_ms@grid",
                network * 1e3 / std::max(1, 3 * fig14), "ms",
                "mean per Network");
    report.info("topo.fabric_build_ms@grid",
                fabric * 1e3 / std::max(1, fig14), "ms", "mean per cell");
    report.info("core.evaluate_ms@grid",
                evaluate * 1e3 / std::max(1, evaluations), "ms",
                "mean per evaluate");
    printSimulated(traced, report);

    report.heading("per-layer metrics of this workload");
    report.metric("ccl.mailbox_sends_per_op", 0.0);
    report.metric("ccl.executor_parks_per_op", 0.0);
    report.metric("ccl.sm.parks_per_op", 0.0);
    report.metric("sim.events_per_op", events / static_cast<double>(cells));
    report.metric("simnet.transfers_per_op",
                  transfers / static_cast<double>(cells));
    report.metric("op.remainder_frac", sum_wall > 0 ? remainder / sum_wall
                                                    : 0.0);
    report.metric("op.trace_overhead_frac",
                  plain.wall_s > 0 ? (traced.wall_s - plain.wall_s) /
                                         plain.wall_s
                                   : 0.0);
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

void
listNames()
{
    for (const char* w : kWorkloads)
        std::cout << "workload " << w << "\n";
    for (const MetricName& m : kEndToEnd)
        std::cout << "end_to_end " << m.name << " " << m.unit << "\n";
    for (const MetricName& m : kPerLayer)
        std::cout << "per_layer " << m.name << " " << m.unit << "\n";
}

int
usage(const char* why)
{
    std::cerr << "perf_ladder: " << why
              << "\nusage: perf_ladder --workload W --seed N --seconds S "
                 "--trace 0|1 [--spans-out FILE]\n"
                 "       perf_ladder --list-names\n";
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    // DES jobs and state-machine workers: one per core.
    const int jobs = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    std::string spans_out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-names") {
            listNames();
            return 0;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        if (arg == "--workload")
            workload = value;
        else if (arg == "--seed")
            seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::strtod(value.c_str(), nullptr);
        else if (arg == "--trace")
            trace = value == "1";
        else if (arg == "--spans-out")
            spans_out = value;
        else
            return usage(("unknown flag " + arg).c_str());
    }
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads), workload) ==
        std::end(kWorkloads))
        return usage(("unknown workload '" + workload + "'").c_str());

    // The workload definition, not the caller's environment, picks the
    // engine, protocol and pool size.
    for (const char* knob : {"CCUBE_CCL_PROTO", "CCUBE_TUNER_MEASURE",
                             "CCUBE_CCL_EXECUTOR", "CCUBE_CCL_DEADLINE_MS"})
        unsetenv(knob);
    setenv("CCUBE_CCL_SM_WORKERS", std::to_string(jobs).c_str(), 1);

    const perfbench::Fingerprint fingerprint =
        perfbench::Fingerprint::current(PERFBENCH_BUILD_TYPE);
    Report report(workload, seed, trace);
    SpanLog spans;
    const double steal0 = perfbench::hostStealSeconds();
    const Clock::time_point start = Clock::now();
    try {
        if (workload == "des_sweep")
            runDes(seed, seconds, trace, jobs, report, spans);
        else
            runCcl(workload, seed, seconds, trace, report, spans);
    } catch (const std::exception& e) {
        std::cerr << "perf_ladder: " << e.what() << "\n";
        return 1;
    }
    // Host noise context: the share of this machine's CPU time the
    // hypervisor took while the run was measuring.
    report.info("host.steal_frac",
                (perfbench::hostStealSeconds() - steal0) /
                    (secondsBetween(start, Clock::now()) * jobs),
                "frac");
    if (trace && !spans_out.empty())
        spans.write(spans_out);
    return report.finish(fingerprint);
}
