/**
 * @file
 * DES-core throughput microbenchmark (google-benchmark): events/sec
 * of the slab-pool event queue (sim::EventQueue, inline callbacks,
 * 4-ary heap) against the previous implementation — a
 * std::priority_queue of std::function entries that copied each entry
 * out of top() before pop — replicated here verbatim as
 * LegacyEventQueue so one run yields before/after numbers.
 *
 * Two event mixes:
 *  - schedule_run: raw schedule/pop churn with small captures;
 *  - fig07_mix: the Fig. 7 workload shape — a 4-rank double-binary-
 *    tree reduce+broadcast over FIFO channels (α = 4.6 µs, 25 GB/s)
 *    pipelining 6 chunks, i.e. chained completion callbacks through
 *    contended resources. Each era uses its era's closure shapes
 *    (the legacy queue carries the done-callback inside the release
 *    closure exactly as the old FifoResource did).
 *
 * After the run, the fig07_mix new/legacy events-per-second ratio is
 * printed. Nothing is written unless a flag asks for it
 * (--benchmark_out=F --benchmark_out_format=json).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace {

using namespace ccube;

// ---------------------------------------------------------------------------
// The previous event queue, kept byte-for-byte in behaviour: a binary
// std::priority_queue of entries holding std::function callbacks,
// with the copy-on-pop in step() (top() returns const&, so the entry
// was copied — std::function copy included — before pop()).
// ---------------------------------------------------------------------------

class LegacyEventQueue
{
  public:
    using Fn = std::function<void()>;

    void
    schedule(sim::Time when, Fn fn, int priority = 0)
    {
        heap_.push(Entry{when, priority, next_seq_++, std::move(fn)});
    }

    bool empty() const { return heap_.empty(); }
    sim::Time now() const { return now_; }

    void
    reset()
    {
        heap_ = {};
        now_ = 0.0;
        next_seq_ = 0;
        executed_ = 0;
    }

    bool
    step()
    {
        if (heap_.empty())
            return false;
        Entry entry = heap_.top(); // the historical copy-on-pop
        heap_.pop();
        now_ = entry.when;
        ++executed_;
        entry.fn();
        return true;
    }

    sim::Time
    run()
    {
        while (step()) {
        }
        return now_;
    }

    std::uint64_t executedCount() const { return executed_; }

  private:
    struct Entry {
        sim::Time when;
        int priority;
        std::uint64_t seq;
        Fn fn;
    };

    struct Later {
        bool
        operator()(const Entry& a, const Entry& b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    sim::Time now_ = 0.0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
};

struct NewTraits {
    using Queue = sim::EventQueue;
    using Fn = sim::EventFn;
    /** New FifoResource shape: done stashed in the resource, release
     *  closure captures only `this` (stays inline). */
    static constexpr bool kStashDone = true;
    /** New runStage shape: the final single-channel stage hands done
     *  to the channel directly, no continuation wrapper. */
    static constexpr bool kDirectFinalStage = true;
    /** New Network::transfer shape: cached lane table + plain
     *  counters — no per-transfer allocation or string hashing. */
    static constexpr bool kStringNetStats = false;
};

struct LegacyTraits {
    using Queue = LegacyEventQueue;
    using Fn = std::function<void()>;
    /** Old FifoResource shape: done rides inside the release closure. */
    static constexpr bool kStashDone = false;
    /** Old runStage shape: every stage, final or not, wraps done in a
     *  route continuation. */
    static constexpr bool kDirectFinalStage = false;
    /** Old Network::transfer shape: channelIds() built a lane vector
     *  on the heap and stats were string-keyed map updates, both once
     *  per transfer. */
    static constexpr bool kStringNetStats = true;
};

// ---------------------------------------------------------------------------
// Fig. 7 event mix: FIFO channels with α + bytes/BW service, chained
// completion callbacks, 6 chunks pipelining through a 4-rank double
// binary tree (reduce to the root, broadcast back).
// ---------------------------------------------------------------------------

constexpr double kAlpha = 4.6e-6;       // per-transfer latency
constexpr double kBandwidth = 25e9;     // bytes/second
constexpr int kChunks = 16;
constexpr double kChunkBytes = 16.0 * 1024 * 1024 / 2.0 / kChunks;

template <typename Traits>
class MiniChannel
{
  public:
    using Fn = typename Traits::Fn;

    explicit MiniChannel(typename Traits::Queue& queue)
        : queue_(queue)
    {
    }

    void
    send(double bytes, Fn done)
    {
        waiting_.push_back({bytes, std::move(done)});
        if (!busy_)
            grant();
    }

  private:
    void
    grant()
    {
        busy_ = true;
        auto pending = std::move(waiting_.front());
        waiting_.pop_front();
        const double duration = kAlpha + pending.first / kBandwidth;
        if constexpr (Traits::kStashDone) {
            active_done_ = std::move(pending.second);
            queue_.schedule(queue_.now() + duration, [this]() {
                Fn done = std::move(active_done_);
                release();
                if (done)
                    done();
            });
        } else {
            queue_.schedule(
                queue_.now() + duration,
                [this, done = std::move(pending.second)]() mutable {
                    release();
                    if (done)
                        done();
                });
        }
    }

    void
    release()
    {
        busy_ = false;
        if (!waiting_.empty())
            grant();
    }

    typename Traits::Queue& queue_;
    bool busy_ = false;
    Fn active_done_;
    std::deque<std::pair<double, Fn>> waiting_;
};

/**
 * Reduce+broadcast of kChunks chunks over the tree 0 ← {1, 2},
 * 1 ← {3}, where the 0–2 logical edge rides a two-hop detour through
 * a transit GPU (node 4) — the paper's store-and-forward shape. Every
 * send goes through a runStage-style route continuation that carries
 * the done-callback, exactly as the transfer engine's events do; on
 * the legacy queue those continuations are std::function targets the
 * copy-on-pop deep-copies. Channels and counters are built once and
 * reset between runs so the measurement is the event engine, not
 * harness setup.
 */
template <typename Traits>
class Fig07Harness
{
  public:
    using Fn = typename Traits::Fn;
    /** Up to two hops: {src, [transit,] dst}. */
    using RouteHops = std::array<std::int8_t, 3>;

    Fig07Harness()
        : at_root_(kChunks, 0)
    {
        for (const auto& [src, dst] :
             {std::pair<int, int>{3, 1}, {1, 0}, {2, 4}, {4, 0},
              {0, 1}, {1, 3}, {0, 4}, {4, 2}}) {
            channels_[static_cast<std::size_t>(src * kNodes + dst)] =
                std::make_unique<MiniChannel<Traits>>(queue_);
        }
    }

    /** One full collective; returns the number of events executed. */
    std::uint64_t
    run()
    {
        queue_.reset();
        std::fill(at_root_.begin(), at_root_.end(), 0);
        done_chunks_ = 0;
        for (int c = 0; c < kChunks; ++c)
            startChunk(c);
        queue_.run();
        return queue_.executedCount();
    }

    int doneChunks() const { return done_chunks_; }

  private:
    static constexpr int kNodes = 5;

    MiniChannel<Traits>&
    channel(int src, int dst)
    {
        return *channels_[static_cast<std::size_t>(src * kNodes +
                                                   dst)];
    }

    /**
     * The Network::transfer front door, in each era's shape: the old
     * one built the lane vector on the heap (Graph::channelIds by
     * value) and bumped two string-keyed sim stats per transfer; the
     * new one probes a cached lane table and bumps plain counters.
     */
    void
    sendOn(int src, int dst, double bytes, Fn done)
    {
        if constexpr (Traits::kStringNetStats) {
            std::vector<int> ids;
            ids.push_back(src * kNodes + dst);
            benchmark::DoNotOptimize(ids.data());
            legacy_stats_["net.bytes"] += bytes;
            legacy_stats_["net.transfers"] += 1.0;
            channel(src, dst).send(bytes, std::move(done));
        } else {
            net_bytes_ += bytes;
            ++net_transfers_;
            channel(src, dst).send(bytes, std::move(done));
        }
    }

    /** The transfer engine's store-and-forward: each stage's
     *  completion carries the remaining route and the final done. */
    void
    runStage(RouteHops hops, int nhops, int index, double bytes,
             Fn done)
    {
        if (Traits::kDirectFinalStage && index + 2 >= nhops) {
            sendOn(hops[static_cast<std::size_t>(index)],
                   hops[static_cast<std::size_t>(index + 1)], bytes,
                   std::move(done));
            return;
        }
        auto continuation = [this, hops, nhops, index, bytes,
                             done = std::move(done)]() mutable {
            if (index + 2 >= nhops) {
                if (done)
                    done();
            } else {
                runStage(hops, nhops, index + 1, bytes,
                         std::move(done));
            }
        };
        sendOn(hops[static_cast<std::size_t>(index)],
               hops[static_cast<std::size_t>(index + 1)], bytes,
               std::move(continuation));
    }

    void
    transfer(RouteHops hops, int nhops, double bytes, Fn done)
    {
        runStage(hops, nhops, 0, bytes, std::move(done));
    }

    void
    startChunk(int c)
    {
        // Leaf 3 reduces into 1, which forwards to the root;
        // leaf 2 reduces into the root via the transit GPU.
        transfer({3, 1}, 2, kChunkBytes, [this, c]() {
            transfer({1, 0}, 2, kChunkBytes,
                     [this, c]() { arriveRoot(c); });
        });
        transfer({2, 4, 0}, 3, kChunkBytes,
                 [this, c]() { arriveRoot(c); });
    }

    void
    arriveRoot(int c)
    {
        if (++at_root_[static_cast<std::size_t>(c)] < 2)
            return;
        // Broadcast back down both subtrees.
        transfer({0, 1}, 2, kChunkBytes, [this]() {
            transfer({1, 3}, 2, kChunkBytes,
                     [this]() { ++done_chunks_; });
        });
        transfer({0, 4, 2}, 3, kChunkBytes,
                 [this]() { ++done_chunks_; });
    }

    typename Traits::Queue queue_;
    std::array<std::unique_ptr<MiniChannel<Traits>>,
               static_cast<std::size_t>(kNodes* kNodes)>
        channels_;
    std::vector<int> at_root_;
    std::unordered_map<std::string, double> legacy_stats_;
    double net_bytes_ = 0.0;
    std::uint64_t net_transfers_ = 0;
    int done_chunks_ = 0;
};

template <typename Traits>
void
BM_Fig07Mix(benchmark::State& state)
{
    Fig07Harness<Traits> harness;
    std::uint64_t events = 0;
    for (auto _ : state)
        events += harness.run();
    if (harness.doneChunks() != 2 * kChunks)
        state.SkipWithError("collective did not complete");
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
    state.counters["events_per_sec"] = benchmark::Counter(
        static_cast<double>(events), benchmark::Counter::kIsRate);
}

template <typename Traits>
void
BM_ScheduleRun(benchmark::State& state)
{
    const int events = static_cast<int>(state.range(0));
    std::uint64_t total = 0;
    for (auto _ : state) {
        typename Traits::Queue queue;
        std::uint64_t sink = 0;
        for (int i = 0; i < events; ++i) {
            queue.schedule(static_cast<double>(i),
                           [&sink, i]() { sink += i; });
        }
        queue.run();
        benchmark::DoNotOptimize(sink);
        total += queue.executedCount();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total));
    state.counters["events_per_sec"] = benchmark::Counter(
        static_cast<double>(total), benchmark::Counter::kIsRate);
}

/**
 * Schedule/pop churn with the capture size typical of simnet
 * completion callbacks (this + route endpoints + bytes + lane +
 * timestamp ≈ 40 bytes): beyond std::function's small-object buffer,
 * within the 48-byte inline budget of sim::EventFn.
 */
template <typename Traits>
void
BM_ScheduleRunSimnetCapture(benchmark::State& state)
{
    const int events = static_cast<int>(state.range(0));
    struct Payload {
        std::uint64_t* sink;
        double bytes;
        double start;
        int src;
        int dst;
        int lane;
        int hops;
    };
    std::uint64_t total = 0;
    for (auto _ : state) {
        typename Traits::Queue queue;
        std::uint64_t sink = 0;
        for (int i = 0; i < events; ++i) {
            const Payload payload{&sink, 1e6, static_cast<double>(i),
                                  i & 7, (i + 1) & 7, i & 3, 2};
            queue.schedule(static_cast<double>(i), [payload]() {
                *payload.sink +=
                    static_cast<std::uint64_t>(payload.lane);
            });
        }
        queue.run();
        benchmark::DoNotOptimize(sink);
        total += queue.executedCount();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total));
    state.counters["events_per_sec"] = benchmark::Counter(
        static_cast<double>(total), benchmark::Counter::kIsRate);
}

BENCHMARK_TEMPLATE(BM_Fig07Mix, NewTraits)->Name("des/fig07_mix/new");
BENCHMARK_TEMPLATE(BM_Fig07Mix, LegacyTraits)
    ->Name("des/fig07_mix/legacy");
BENCHMARK_TEMPLATE(BM_ScheduleRun, NewTraits)
    ->Name("des/schedule_run/new")
    ->Arg(100000);
BENCHMARK_TEMPLATE(BM_ScheduleRun, LegacyTraits)
    ->Name("des/schedule_run/legacy")
    ->Arg(100000);
BENCHMARK_TEMPLATE(BM_ScheduleRunSimnetCapture, NewTraits)
    ->Name("des/schedule_run_simnet_capture/new")
    ->Arg(100000);
BENCHMARK_TEMPLATE(BM_ScheduleRunSimnetCapture, LegacyTraits)
    ->Name("des/schedule_run_simnet_capture/legacy")
    ->Arg(100000);

/** Console output plus a copy of every per-iteration run. */
class CaptureReporter : public benchmark::ConsoleReporter
{
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

double
eventsPerSec(const benchmark::BenchmarkReporter::Run& run)
{
    const auto it = run.counters.find("events_per_sec");
    return it != run.counters.end() ? it->second.value : 0.0;
}

} // namespace

int
main(int argc, char** argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    double fig07_new = 0.0;
    double fig07_legacy = 0.0;
    for (const auto& run : reporter.runs) {
        const std::string name = run.benchmark_name();
        if (name.rfind("des/fig07_mix/new", 0) == 0)
            fig07_new = eventsPerSec(run);
        else if (name.rfind("des/fig07_mix/legacy", 0) == 0)
            fig07_legacy = eventsPerSec(run);
    }
    if (fig07_new > 0.0 && fig07_legacy > 0.0)
        std::printf("\nfig07_mix events/sec: new %.3g, legacy %.3g, "
                    "speedup %.2fx\n",
                    fig07_new, fig07_legacy, fig07_new / fig07_legacy);
    return 0;
}
