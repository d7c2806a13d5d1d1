/**
 * @file
 * Steady-state DES sends allocate nothing: this binary replaces the
 * global operator new with a counting one and checks that, once warm,
 * a closed loop of sends — each arrival issues the next — performs no
 * heap allocation, on a backed-up switch-fabric channel (cut-through)
 * and on a GPU detour (store-and-forward). The replacement forwards to
 * malloc/free, so it composes with ASan's allocator.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

#include "simnet/channel.h"
#include "simnet/transfer_engine.h"
#include "topo/switch_fabric.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<long> g_allocations{0};

void*
countedAlloc(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void*
checkedAlloc(std::size_t size)
{
    if (void* p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

} // namespace

void* operator new(std::size_t size) { return checkedAlloc(size); }
void* operator new[](std::size_t size) { return checkedAlloc(size); }
void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    return countedAlloc(size);
}
void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    return countedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

namespace ccube {
namespace simnet {
namespace {

/**
 * Keeps @p depth sends of one compiled route in flight: every arrival
 * issues the next until @p total have been sent. Counting covers the
 * sends after the first @p warmup arrivals. A @p fat_arrival callback
 * captures more than ArrivalFn holds in place, so it heap-allocates.
 */
class ClosedLoop
{
  public:
    ClosedLoop(TransferEngine& engine, int route, int warmup, int total,
               bool fat_arrival = false)
        : engine_(engine), route_(route), warmup_(warmup), total_(total),
          fat_arrival_(fat_arrival)
    {
    }

    void start(int depth)
    {
        for (int i = 0; i < depth; ++i)
            issue();
    }

    int arrived() const { return arrived_; }

  private:
    void issue()
    {
        ++sent_;
        if (fat_arrival_)
            engine_.send(route_, 1e6,
                         [this, pad = std::array<char, 32>{}]() {
                             onArrival(pad[0]);
                         });
        else
            engine_.send(route_, 1e6, [this]() { onArrival(0); });
    }

    void onArrival(char pad)
    {
        arrived_ += 1 + pad;
        if (arrived_ == warmup_)
            g_counting.store(true, std::memory_order_relaxed);
        if (sent_ < total_)
            issue();
        else
            g_counting.store(false, std::memory_order_relaxed);
    }

    TransferEngine& engine_;
    int route_;
    int warmup_;
    int total_;
    bool fat_arrival_;
    int sent_ = 0;
    int arrived_ = 0;
};

/** Allocations while @p loop runs past its warm-up on @p sim. */
long
steadyStateAllocations(sim::Simulation& sim, ClosedLoop& loop, int depth)
{
    g_allocations.store(0);
    loop.start(depth);
    sim.run();
    g_counting.store(false);
    return g_allocations.load();
}

constexpr int kDepth = 40;   // sends in flight: a backlog of many blocks
constexpr int kWarmup = 200;
constexpr int kTotal = 2200; // 2,000 counted sends

TEST(SteadyStateSends, BackedUpFabricChannelAllocatesNothing)
{
    topo::SwitchFabricParams params;
    params.num_nodes = 16;
    params.links_per_node = 1;
    const topo::Graph g = topo::makeSwitchFabric(params);
    sim::Simulation sim;
    Network net(sim, g);
    TransferEngine engine(net);
    const int route = engine.compile(topo::Route{g.shortestPath(0, 15)});
    ClosedLoop loop(engine, route, kWarmup, kTotal);
    EXPECT_EQ(steadyStateAllocations(sim, loop, kDepth), 0);
    EXPECT_EQ(loop.arrived(), kTotal);
}

TEST(SteadyStateSends, DetourRouteAllocatesNothing)
{
    topo::Graph g("detour");
    g.addNode("a");
    g.addNode("b");
    g.addNode("c");
    g.addLink(0, 1, 25e9, 1e-6);
    g.addLink(1, 2, 25e9, 1e-6);
    sim::Simulation sim;
    Network net(sim, g);
    TransferEngine engine(net);
    const int route = engine.compile(topo::Route{{0, 1, 2}});
    ClosedLoop loop(engine, route, kWarmup, kTotal);
    EXPECT_EQ(steadyStateAllocations(sim, loop, kDepth), 0);
    EXPECT_EQ(loop.arrived(), kTotal);
}

TEST(SteadyStateSends, CounterSeesHeapClosures)
{
    // The same loop with an arrival callback too big for ArrivalFn's
    // buffer: every counted send allocates it, and the counter sees it.
    topo::Graph g("direct");
    g.addNode("a");
    g.addNode("b");
    g.addLink(0, 1, 25e9, 1e-6);
    sim::Simulation sim;
    Network net(sim, g);
    TransferEngine engine(net);
    const int route = engine.compile(topo::Route{{0, 1}});
    ClosedLoop loop(engine, route, kWarmup, kTotal, /*fat_arrival=*/true);
    EXPECT_GE(steadyStateAllocations(sim, loop, kDepth),
              kTotal - kWarmup - kDepth);
    EXPECT_EQ(loop.arrived(), kTotal);
}

} // namespace
} // namespace simnet
} // namespace ccube
