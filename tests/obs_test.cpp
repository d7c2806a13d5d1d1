/**
 * @file
 * Tests for the obs:: observability layer: trace recording and JSON
 * export, the disabled fast path, metric registry semantics, the
 * per-rank counters of a real functional AllReduce, and agreement
 * between Network::exportMetrics and the raw channel telemetry.
 */

#include <cctype>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ccl/communicator.h"
#include "ccl/program_task.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulation.h"
#include "simnet/channel.h"
#include "simnet/program_driver.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/ring_embedding.h"

namespace ccube {
namespace {

// --- Minimal JSON validity checker -----------------------------------
// Recursive-descent over the full grammar; enough to prove the trace
// and metrics writers emit well-formed JSON without external deps.

class JsonChecker
{
  public:
    explicit JsonChecker(std::string text) : text_(std::move(text)) {}

    bool valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == text_.size();
    }

  private:
    bool value()
    {
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') { ++pos_; return true; }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return false;
                const char e = text_[pos_];
                if (e == 'u') {
                    for (int i = 1; i <= 4; ++i) {
                        if (pos_ + static_cast<std::size_t>(i) >=
                                text_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                text_[pos_ +
                                      static_cast<std::size_t>(i)])))
                            return false;
                    }
                    pos_ += 4;
                } else if (std::string("\"\\/bfnrt").find(e) ==
                           std::string::npos) {
                    return false;
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                return false; // raw control char must be escaped
            }
            ++pos_;
        }
        return false;
    }

    bool number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (peek() == '.') {
            ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        return pos_ > start;
    }

    bool literal(const char* word)
    {
        const std::string w(word);
        if (text_.compare(pos_, w.size(), w) != 0)
            return false;
        pos_ += w.size();
        return true;
    }

    char peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    std::string text_;
    std::size_t pos_ = 0;
};

// --- TraceRecorder ---------------------------------------------------

TEST(TraceRecorder, DisabledRecordsNothing)
{
    obs::TraceRecorder recorder;
    ASSERT_FALSE(recorder.enabled());

    recorder.completeEvent("span", "cat", 1, 0, 0.0, 5.0);
    recorder.instantEvent("mark", "cat", 1, 0, 1.0);
    {
        obs::ScopedSpan span(recorder, "scoped", "cat", 1, 0);
        span.arg("k", 1.0);
    }
    EXPECT_EQ(recorder.eventCount(), 0u);
    EXPECT_EQ(recorder.wallNowUs(), 0.0);
}

TEST(TraceRecorder, RecordsCompleteEventsWithArgs)
{
    obs::TraceRecorder recorder;
    recorder.enable();
    recorder.completeEvent("xfer", "simnet.channel", 100, 3, 10.0, 2.5,
                           {{"bytes", 4096.0}, {"queue_wait_us", 0.5}});

    const auto events = recorder.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "xfer");
    EXPECT_EQ(events[0].cat, "simnet.channel");
    EXPECT_EQ(events[0].phase, 'X');
    EXPECT_EQ(events[0].pid, 100);
    EXPECT_EQ(events[0].tid, 3);
    EXPECT_DOUBLE_EQ(events[0].ts_us, 10.0);
    EXPECT_DOUBLE_EQ(events[0].dur_us, 2.5);
    ASSERT_EQ(events[0].args.size(), 2u);
    EXPECT_EQ(events[0].args[0].first, "bytes");
    EXPECT_DOUBLE_EQ(events[0].args[0].second, 4096.0);
}

TEST(TraceRecorder, ScopedSpanMeasuresNonNegativeWallTime)
{
    obs::TraceRecorder recorder;
    recorder.enable();
    {
        obs::ScopedSpan span(recorder, "work", "test", 1, 2);
        span.arg("items", 7.0);
    }
    const auto events = recorder.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_GE(events[0].ts_us, 0.0);
    EXPECT_GE(events[0].dur_us, 0.0);
    ASSERT_EQ(events[0].args.size(), 1u);
    EXPECT_EQ(events[0].args[0].first, "items");
}

TEST(TraceRecorder, SimEpochAdvancesPastEachRun)
{
    obs::TraceRecorder recorder;
    recorder.enable();
    EXPECT_DOUBLE_EQ(recorder.simOffsetUs(), 0.0);
    recorder.advanceSimEpoch(1000.0);
    const double first = recorder.simOffsetUs();
    EXPECT_GT(first, 1000.0);
    recorder.advanceSimEpoch(500.0);
    EXPECT_GT(recorder.simOffsetUs(), first + 500.0);
}

TEST(TraceRecorder, WriteJsonIsValidAndEscapes)
{
    obs::TraceRecorder recorder;
    recorder.enable();
    recorder.setProcessName(7, "proc \"seven\"");
    recorder.setThreadName(7, 1, "track\\one");
    recorder.completeEvent("na\"me\nwith\tescapes", "cat", 7, 1, 0.0,
                           1.0, {{"k", 2.0}});
    recorder.instantEvent("tick", "cat", 7, 1, 3.0);

    std::ostringstream out;
    recorder.writeJson(out);
    const std::string json = out.str();

    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
}

TEST(TraceRecorder, ClearDropsEverything)
{
    obs::TraceRecorder recorder;
    recorder.enable();
    recorder.completeEvent("a", "c", 1, 0, 0.0, 1.0);
    recorder.advanceSimEpoch(10.0);
    recorder.clear();
    EXPECT_EQ(recorder.eventCount(), 0u);
    EXPECT_DOUBLE_EQ(recorder.simOffsetUs(), 0.0);
}

// --- MetricRegistry --------------------------------------------------

TEST(MetricRegistry, CountersGaugesHistograms)
{
    obs::MetricRegistry registry;
    registry.addCounter("hits", 2.0);
    registry.addCounter("hits", 3.0);
    registry.setGauge("level", 42.0);
    registry.observe("wait", 1.0);
    registry.observe("wait", 3.0);

    EXPECT_DOUBLE_EQ(registry.counter("hits"), 5.0);
    EXPECT_DOUBLE_EQ(registry.gauge("level"), 42.0);
    EXPECT_TRUE(registry.hasGauge("level"));
    EXPECT_FALSE(registry.hasGauge("missing"));
    EXPECT_EQ(registry.histogram("wait").count(), 2);
    EXPECT_DOUBLE_EQ(registry.histogram("wait").mean(), 2.0);

    util::RunningStats extra;
    extra.add(5.0);
    registry.mergeHistogram("wait", extra);
    EXPECT_EQ(registry.histogram("wait").count(), 3);
    EXPECT_DOUBLE_EQ(registry.histogram("wait").mean(), 3.0);
}

TEST(MetricRegistry, CsvAndJsonExport)
{
    obs::MetricRegistry registry;
    registry.addCounter("c", 1.0);
    registry.setGauge("g", 2.5);
    registry.observe("h", 4.0);

    std::ostringstream csv;
    registry.writeCsv(csv);
    const std::string csv_text = csv.str();
    EXPECT_EQ(csv_text.substr(0, csv_text.find('\n')),
              "name,kind,count,value,mean,min,max,stddev");
    EXPECT_NE(csv_text.find("c,counter"), std::string::npos);
    EXPECT_NE(csv_text.find("g,gauge"), std::string::npos);
    EXPECT_NE(csv_text.find("h,histogram"), std::string::npos);

    std::ostringstream json;
    registry.writeJson(json);
    JsonChecker checker(json.str());
    EXPECT_TRUE(checker.valid()) << json.str();
}

// --- Functional runtime counters + spans -----------------------------

TEST(RankCounters, TwoRankRingAllReduceMatchesHandCount)
{
    obs::RankCounters& counters = obs::RankCounters::global();
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    counters.reset();
    recorder.clear();
    recorder.enable();

    constexpr int kRanks = 2;
    constexpr std::size_t kElems = 256;
    ccl::RankBuffers buffers(kRanks);
    for (int r = 0; r < kRanks; ++r)
        buffers[static_cast<std::size_t>(r)]
            .assign(kElems, static_cast<float>(r + 1));

    const topo::RingEmbedding ring = topo::makeSequentialRing(kRanks);
    ccl::Communicator comm(kRanks);
    ccl::runProgram(comm, buffers,
                    sched::ringProgram(ring, sched::RingPhase::kAllReduce));

    recorder.disable();

    for (const auto& buf : buffers)
        for (float v : buf)
            ASSERT_FLOAT_EQ(v, 3.0f);

    // Classic two-phase ring with P = 2: each rank sends P−1 = 1 chunk
    // in Reduce-Scatter and one in AllGather — 2 sends and 2 receives
    // per rank, 4 of each in total.
    for (int r = 0; r < kRanks; ++r) {
        EXPECT_EQ(counters.mailboxSends(r), 2u) << "rank " << r;
        EXPECT_EQ(counters.mailboxRecvs(r), 2u) << "rank " << r;
    }
    EXPECT_EQ(counters.totalMailboxSends(), 4u);
    EXPECT_EQ(counters.totalMailboxRecvs(), 4u);
    // Every op ran on a rank-tagged thread: nothing in the unknown slot.
    EXPECT_EQ(counters.mailboxSends(-1), 0u);

    // The capture contains the allreduce phase spans and the mailbox
    // post/wait spans, each nested inside a phase span of its thread.
    const auto events = recorder.snapshot();
    int phase_spans = 0;
    int mailbox_spans = 0;
    for (const auto& e : events) {
        EXPECT_GE(e.dur_us, 0.0) << e.name;
        if (e.cat == "ccl.allreduce")
            ++phase_spans;
        if (e.cat != "ccl.mailbox")
            continue;
        ++mailbox_spans;
        bool nested = false;
        for (const auto& outer : events) {
            if (outer.cat != "ccl.allreduce" || outer.pid != e.pid ||
                outer.tid != e.tid)
                continue;
            if (e.ts_us >= outer.ts_us &&
                e.ts_us + e.dur_us <= outer.ts_us + outer.dur_us)
                nested = true;
        }
        EXPECT_TRUE(nested) << e.name << " not nested in a phase span";
    }
    // Two phases per rank; one post + one wait span per transfer.
    EXPECT_EQ(phase_spans, 2 * kRanks);
    EXPECT_EQ(mailbox_spans, 8);

    recorder.clear();
    counters.reset();
}

TEST(RankCounters, ExportToRegistryUsesRankAndTotalNames)
{
    obs::RankCounters& counters = obs::RankCounters::global();
    counters.reset();
    obs::setThreadRank(3);
    counters.addMailboxSend();
    counters.addMailboxSend();
    counters.addCasRetries(5);
    obs::setThreadRank(-1);

    obs::MetricRegistry registry;
    counters.exportTo(registry);
    EXPECT_DOUBLE_EQ(registry.counter("ccl.rank3.mailbox_sends"), 2.0);
    EXPECT_DOUBLE_EQ(registry.counter("ccl.total.mailbox_sends"), 2.0);
    EXPECT_DOUBLE_EQ(registry.counter("ccl.rank3.cas_retries"), 5.0);
    counters.reset();
}

// --- Network metric export -------------------------------------------

TEST(NetworkMetrics, ExportAgreesWithChannelTelemetry)
{
    // Channel telemetry accumulates only while a capture is enabled,
    // so open the global gate before the run (export still goes to a
    // local registry).
    obs::MetricRegistry::global().enable();
    const topo::Graph graph = topo::makeDgx1();
    const topo::DoubleTreeEmbedding dt = topo::makeDgx1DoubleTree(graph);
    sim::Simulation sim;
    simnet::Network net(sim, graph);
    const simnet::ScheduleResult result = simnet::runProgram(
        sim, net,
        sched::doubleTreeProgram(dt, sched::PhaseMode::kOverlapped, 4),
        1 << 20);
    obs::MetricRegistry::global().disable();
    ASSERT_GT(result.completion_time, 0.0);

    obs::MetricRegistry registry;
    net.exportMetrics(registry, result.completion_time, "t");

    int busy_channels = 0;
    util::RunningStats expected;
    for (int id = 0; id < graph.channelCount(); ++id) {
        const double busy = net.channelBusyTime(id);
        if (net.channelGrants(id) == 0)
            continue;
        ++busy_channels;
        const double utilization = busy / result.completion_time;
        expected.add(utilization);
        const std::string base =
            "t.channel." + std::to_string(id) + ".";
        EXPECT_NEAR(registry.gauge(base + "utilization"), utilization,
                    1e-12);
        EXPECT_NEAR(registry.gauge(base + "busy_s"), busy, 1e-12);
        EXPECT_GT(net.channelBytes(id), 0.0);
        EXPECT_NEAR(registry.gauge(base + "bytes"),
                    net.channelBytes(id), 1e-6);
    }
    ASSERT_GT(busy_channels, 0);
    const util::RunningStats exported =
        registry.histogram("t.channel_utilization");
    EXPECT_EQ(exported.count(), busy_channels);
    EXPECT_NEAR(exported.mean(), expected.mean(), 1e-12);
    EXPECT_NEAR(registry.gauge("t.horizon_s"), result.completion_time,
                1e-12);
}

} // namespace
} // namespace ccube
