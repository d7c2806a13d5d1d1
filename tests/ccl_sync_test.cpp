/**
 * @file
 * Tests for the device-side-style synchronization primitives of
 * Fig. 11: spin lock, bounded semaphore (post/wait), checkable
 * counter (check) — including multi-threaded stress.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "ccl/sync_primitives.h"

namespace ccube {
namespace ccl {
namespace {

TEST(SpinLock, MutualExclusionUnderContention)
{
    SpinLock lock;
    int counter = 0;
    constexpr int kThreads = 4;
    constexpr int kIters = 2000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&]() {
            for (int i = 0; i < kIters; ++i) {
                SpinLockGuard guard(lock);
                ++counter;
            }
        });
    }
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(counter, kThreads * kIters);
}

TEST(BoundedSemaphore, PostThenWait)
{
    BoundedSemaphore sem(4);
    sem.post();
    sem.post();
    EXPECT_EQ(sem.value(), 2);
    sem.wait();
    EXPECT_EQ(sem.value(), 1);
}

TEST(BoundedSemaphore, WaitBlocksUntilPost)
{
    BoundedSemaphore sem(1);
    std::thread poster([&]() { sem.post(); });
    sem.wait(); // must complete once the poster runs
    poster.join();
    EXPECT_EQ(sem.value(), 0);
}

TEST(BoundedSemaphore, PostBlocksAtCapacity)
{
    BoundedSemaphore sem(1, /*initial=*/1);
    std::atomic<bool> posted{false};
    std::thread poster([&]() {
        sem.post(); // blocks: already at capacity
        posted.store(true);
    });
    // Give the poster a chance to block, then drain one slot.
    while (sem.value() != 1)
        std::this_thread::yield();
    EXPECT_FALSE(posted.load());
    sem.wait();
    poster.join();
    EXPECT_TRUE(posted.load());
    EXPECT_EQ(sem.value(), 1);
}

TEST(BoundedSemaphore, ProducerConsumerConservation)
{
    BoundedSemaphore sem(3);
    constexpr int kItems = 5000;
    std::thread producer([&]() {
        for (int i = 0; i < kItems; ++i)
            sem.post();
    });
    std::thread consumer([&]() {
        for (int i = 0; i < kItems; ++i)
            sem.wait();
    });
    producer.join();
    consumer.join();
    EXPECT_EQ(sem.value(), 0);
}

TEST(CheckableCounter, PostAndCheckNow)
{
    CheckableCounter counter;
    EXPECT_TRUE(counter.checkNow(0));
    EXPECT_FALSE(counter.checkNow(1));
    counter.post();
    EXPECT_TRUE(counter.checkNow(1));
    EXPECT_EQ(counter.value(), 1);
}

TEST(CheckableCounter, CheckDoesNotConsume)
{
    // The paper's check() "just checks" — unlike wait() it never
    // updates the count, so repeated checks all pass.
    CheckableCounter counter;
    counter.post();
    counter.post();
    counter.check(2);
    counter.check(2);
    counter.check(1);
    EXPECT_EQ(counter.value(), 2);
}

TEST(CheckableCounter, CheckBlocksUntilValueReached)
{
    CheckableCounter counter;
    std::atomic<bool> released{false};
    std::thread checker([&]() {
        counter.check(3);
        released.store(true);
    });
    counter.post();
    counter.post();
    EXPECT_FALSE(released.load());
    counter.post();
    checker.join();
    EXPECT_TRUE(released.load());
}

TEST(CheckableCounter, Reset)
{
    CheckableCounter counter;
    counter.post();
    counter.reset();
    EXPECT_EQ(counter.value(), 0);
    EXPECT_FALSE(counter.checkNow(1));
}

TEST(CheckableCounter, ManyPostersConsistentTotal)
{
    CheckableCounter counter;
    constexpr int kThreads = 4;
    constexpr int kPosts = 2500;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&]() {
            for (int i = 0; i < kPosts; ++i)
                counter.post();
        });
    }
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(counter.value(), kThreads * kPosts);
}

} // namespace
} // namespace ccl
} // namespace ccube
