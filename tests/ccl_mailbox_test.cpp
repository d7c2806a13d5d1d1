/**
 * @file
 * Tests for the P2P mailbox (receive-buffer model) and communicator,
 * including the blocking and non-blocking forms of each op agreeing
 * on results, traffic counters and post/wait span pairing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "ccl/communicator.h"
#include "ccl/mailbox.h"
#include "obs/capture.h"
#include "obs/context.h"
#include "obs/trace.h"

namespace ccube {
namespace ccl {
namespace {

TEST(Mailbox, SendRecvRoundTrip)
{
    Mailbox box(2);
    const std::vector<float> payload{1.0f, 2.0f, 3.0f};
    box.send(payload, /*tag=*/7);
    std::vector<float> out{9.0f, 9.0f, 9.0f, 9.0f}; // overwritten
    EXPECT_EQ(box.recv(out), 7);
    EXPECT_EQ(out, payload);

    // The non-blocking copy overwrites a sized buffer in place.
    box.noteOpBegin(Mailbox::OpKind::kSend);
    ASSERT_TRUE(box.trySend(std::vector<float>{5.0f, 6.0f}, 1));
    std::vector<float> into{0.0f, 0.0f};
    int tag = -1;
    ASSERT_TRUE(box.tryRecvInto(into, &tag));
    EXPECT_EQ(tag, 1);
    EXPECT_EQ(into, (std::vector<float>{5.0f, 6.0f}));
}

TEST(Mailbox, RecvReduceAccumulates)
{
    Mailbox box(1);
    box.send(std::vector<float>{1.0f, 2.0f}, 0);
    std::vector<float> acc{10.0f, 20.0f};
    box.recvReduce(acc);
    EXPECT_EQ(acc, (std::vector<float>{11.0f, 22.0f}));
}

/** What one pass of exchange() observed. */
struct Exchange {
    std::vector<float> acc{10.0f, 20.0f};
    std::uint64_t sends = 0; ///< mailbox_sends delta of rank 0
    std::uint64_t recvs = 0; ///< mailbox_recvs delta of rank 0
    std::vector<double> post_seqs;
    std::vector<double> wait_seqs;
    int ll_posts = 0; ///< post spans marked ll
};

/**
 * Sends three chunks through @p box and reduces each into
 * @p result->acc, as rank 0 under a private trace capture: with the
 * blocking send()/recvReduce(), or the way a rank task does it —
 * noteOpBegin() once per op, then trySend()/tryRecvReduce().
 */
void
exchange(Mailbox& box, bool blocking, Protocol proto, Exchange* result)
{
    obs::TraceRecorder recorder;
    recorder.enable();
    obs::ScopedCapture capture{obs::Capture(&recorder)};
    obs::setThreadRank(0);
    const obs::RankCounters& counters = obs::RankCounters::global();
    const std::uint64_t sends = counters.mailboxSends(0);
    const std::uint64_t recvs = counters.mailboxRecvs(0);
    for (int c = 0; c < 3; ++c) {
        const std::vector<float> chunk{static_cast<float>(c),
                                       static_cast<float>(c + 1)};
        int tag = -1;
        if (blocking) {
            box.send(chunk, c);
            tag = box.recvReduce(result->acc);
        } else {
            box.noteOpBegin(Mailbox::OpKind::kSend);
            EXPECT_TRUE(box.trySend(chunk, c, proto));
            box.noteOpBegin(Mailbox::OpKind::kRecv);
            EXPECT_TRUE(box.tryRecvReduce(result->acc, &tag, proto));
        }
        EXPECT_EQ(tag, c);
    }
    result->sends = counters.mailboxSends(0) - sends;
    result->recvs = counters.mailboxRecvs(0) - recvs;
    obs::setThreadRank(-1);
    for (const obs::TraceEvent& event : recorder.snapshot()) {
        const bool post = event.name.rfind("post ", 0) == 0;
        for (const auto& [key, value] : event.args) {
            if (key == "seq")
                (post ? result->post_seqs : result->wait_seqs)
                    .push_back(value);
            if (key == "ll" && value == 1.0)
                ++result->ll_posts;
        }
    }
}

TEST(Mailbox, BlockingAndTryFormsAgree)
{
    // One mailbox, three passes: the sequence numbers run on across
    // passes and lanes, so pass k pairs post #n with wait #n from 3k.
    Mailbox box(2);
    Exchange blocking;
    Exchange simple;
    Exchange ll;
    exchange(box, /*blocking=*/true, Protocol::kSimple, &blocking);
    exchange(box, /*blocking=*/false, Protocol::kSimple, &simple);
    exchange(box, /*blocking=*/false, Protocol::kLL, &ll);
    const std::vector<float> expected{10.0f + 0 + 1 + 2, 20.0f + 1 + 2 + 3};
    int pass = 0;
    for (const Exchange* e : {&blocking, &simple, &ll}) {
        SCOPED_TRACE(pass);
        EXPECT_EQ(e->acc, expected);
        EXPECT_EQ(e->sends, 3u);
        EXPECT_EQ(e->recvs, 3u);
        const double base = 3.0 * pass;
        EXPECT_EQ(e->post_seqs,
                  (std::vector<double>{base, base + 1, base + 2}));
        EXPECT_EQ(e->wait_seqs, e->post_seqs);
        ++pass;
    }
    EXPECT_EQ(blocking.ll_posts, 0);
    EXPECT_EQ(simple.ll_posts, 0);
    EXPECT_EQ(ll.ll_posts, 3);
}

TEST(Mailbox, BlockedRecvCountsAWaitStall)
{
    Mailbox box(1);
    const obs::RankCounters& counters = obs::RankCounters::global();
    const std::uint64_t stalls = counters.waitStalls(1);
    const std::uint64_t stall_ns = counters.waitStallNs(1);
    std::thread consumer([&]() {
        obs::setThreadRank(1);
        std::vector<float> out;
        EXPECT_EQ(box.recv(out), 4);
        obs::setThreadRank(-1);
    });
    // The stall is counted as the consumer starts to block; send once
    // it has (bounded, so a missing count fails instead of hanging).
    for (int i = 0; i < 10000 && counters.waitStalls(1) == stalls; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    box.send(std::vector<float>{1.0f}, 4);
    consumer.join();
    EXPECT_EQ(counters.waitStalls(1), stalls + 1);
    EXPECT_GT(counters.waitStallNs(1), stall_ns);
}

TEST(Mailbox, PreservesFifoOrderAcrossThreads)
{
    Mailbox box(3);
    constexpr int kChunks = 200;
    std::thread producer([&]() {
        for (int c = 0; c < kChunks; ++c)
            box.send(std::vector<float>{static_cast<float>(c)}, c);
    });
    for (int c = 0; c < kChunks; ++c) {
        std::vector<float> out;
        const int tag = box.recv(out);
        EXPECT_EQ(tag, c);
        EXPECT_EQ(out[0], static_cast<float>(c));
    }
    producer.join();
}

TEST(Mailbox, BackpressureWithOneSlot)
{
    // With a single receive buffer, the producer can run at most one
    // chunk ahead of the consumer — flow control via post/wait.
    Mailbox box(1);
    constexpr int kChunks = 100;
    std::atomic<int> sent{0};
    std::thread producer([&]() {
        for (int c = 0; c < kChunks; ++c) {
            box.send(std::vector<float>{0.0f}, c);
            sent.fetch_add(1);
        }
    });
    std::vector<float> out;
    for (int c = 0; c < kChunks; ++c) {
        box.recv(out);
        EXPECT_LE(sent.load(), c + 2);
    }
    producer.join();
}

TEST(Communicator, MailboxIdentityPerFlow)
{
    Communicator comm(4);
    Mailbox& a = comm.mailbox(0, 1, 1);
    Mailbox& b = comm.mailbox(0, 1, 1);
    Mailbox& c = comm.mailbox(0, 1, 2);
    Mailbox& d = comm.mailbox(1, 0, 1);
    // Flow ids are not capped: spare flows beyond the ring's and the
    // trees' get their own mailboxes too.
    Mailbox& e = comm.mailbox(0, 1, 8);
    Mailbox& f = comm.mailbox(0, 1, 12);
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &c);
    EXPECT_NE(&a, &d);
    EXPECT_NE(&e, &f);
    EXPECT_NE(&a, &e);
    EXPECT_EQ(&comm.mailbox(0, 1, 12), &f);

    // Each mailbox is built whole: label, flow and endpoints.
    struct Want {
        const Mailbox* box;
        const char* label;
        int flow, src, dst;
    };
    for (const Want& want : {Want{&a, "mb 0->1/f1", 1, 0, 1},
                             Want{&c, "mb 0->1/f2", 2, 0, 1},
                             Want{&d, "mb 1->0/f1", 1, 1, 0},
                             Want{&e, "mb 0->1/f8", 8, 0, 1},
                             Want{&f, "mb 0->1/f12", 12, 0, 1}}) {
        EXPECT_EQ(want.box->traceLabel(), want.label);
        EXPECT_EQ(want.box->flowId(), want.flow) << want.label;
        EXPECT_EQ(want.box->srcRank(), want.src) << want.label;
        EXPECT_EQ(want.box->dstRank(), want.dst) << want.label;
    }

    // A mailbox outside a communicator has no endpoints.
    const Mailbox loose(2);
    EXPECT_EQ(loose.traceLabel(), "mb ?");
    EXPECT_EQ(loose.flowId(), -1);
    EXPECT_EQ(loose.srcRank(), -1);
    EXPECT_EQ(loose.dstRank(), -1);
}

TEST(Communicator, RunExecutesEveryRank)
{
    Communicator comm(8);
    std::vector<std::atomic<int>> hits(8);
    comm.run([&](int rank) { hits[static_cast<std::size_t>(rank)]++; });
    for (const auto& h : hits)
        EXPECT_EQ(h.load(), 1);
}

} // namespace
} // namespace ccl
} // namespace ccube
