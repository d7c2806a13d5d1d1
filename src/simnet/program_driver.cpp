#include "simnet/program_driver.h"

#include <algorithm>

#include "obs/monitor.h"
#include "util/logging.h"

namespace ccube {
namespace simnet {

ProgramDriver::ProgramDriver(Network& network,
                             const sched::Program& program,
                             double total_bytes, ccl::Protocol proto)
    : net_(network), engine_(network, proto), program_(program),
      total_bytes_(total_bytes), inbox_(program.edges.size()),
      waiter_(program.edges.size(), -1),
      available_at_(static_cast<std::size_t>(program.num_ranks),
                    std::vector<double>(
                        static_cast<std::size_t>(program.numChunks()),
                        -1.0))
{
    CCUBE_CHECK(total_bytes > 0.0, "non-positive payload");
    const double part_bytes =
        total_bytes / static_cast<double>(program.parts.size());
    for (const sched::Part& part : program.parts)
        chunk_bytes_.push_back(part_bytes / part.chunks);
    // Edge e compiles to route handle e (handles count up from 0).
    for (const sched::Edge& edge : program.edges) {
        CCUBE_CHECK(edge.src != edge.dst,
                    "edge " << edge.src
                            << " → itself: a ring needs at least two ranks");
        topo::Route route = program.route(edge);
        std::vector<topo::NodeId>& hops = route.hops;
        if (hops.empty())
            hops = network.graph().shortestPath(edge.src, edge.dst,
                                                topo::LinkKind::kNvlink);
        if (hops.empty())
            hops = network.graph().shortestPath(edge.src, edge.dst,
                                                topo::LinkKind::kPcie);
        CCUBE_CHECK(!hops.empty(), "no NVLink or PCIe path "
                                       << edge.src << " → " << edge.dst);
        engine_.compile(route, edge.lane);
    }
    // Every rank finalizes every chunk the skip mask keeps.
    for (int c = 0; c < program.numChunks(); ++c)
        pending_ += program.skip.done(c) ? 0 : program.num_ranks;
    threads_.reserve(program.threads.size());
    for (std::size_t t = 0; t < program.threads.size(); ++t)
        threads_.push_back(
            ThreadState{sched::Cursor(program, static_cast<int>(t))});
}

void
ProgramDriver::start(double at)
{
    net_.simulation().at(at, [this]() {
        for (std::size_t t = 0; t < threads_.size(); ++t)
            resume(static_cast<int>(t));
    });
}

void
ProgramDriver::resume(int thread)
{
    ThreadState& state = threads_[static_cast<std::size_t>(thread)];
    sched::Cursor& cursor = state.cursor;
    for (; !cursor.done(); cursor.advance()) {
        const sched::Step& step = cursor.step();
        switch (step.op) {
          case sched::Op::kSend:
            if (step.after_drain && state.in_flight > 0) {
                state.awaits_drain = true;
                return;
            }
            issue(thread, step.edge);
            break;
          case sched::Op::kRecv:
          case sched::Op::kRecvReduce:
          case sched::Op::kForward: {
            Inbox& inbox = inbox_[static_cast<std::size_t>(step.edge)];
            if (inbox.empty()) {
                waiter_[static_cast<std::size_t>(step.edge)] = thread;
                return;
            }
            state.landed = std::max(state.landed, inbox.pop());
            if (step.op == sched::Op::kForward)
                issue(thread, step.out);
            break;
          }
          case sched::Op::kFinal: {
            const sched::Thread& t =
                program_.threads[static_cast<std::size_t>(thread)];
            double& slot =
                available_at_[static_cast<std::size_t>(t.rank)]
                             [static_cast<std::size_t>(cursor.globalChunk())];
            CCUBE_CHECK(slot < 0.0, "chunk " << cursor.globalChunk()
                                             << " delivered twice to "
                                             << t.rank);
            slot = state.landed;
            completion_time_ = std::max(completion_time_, slot);
            --pending_;
            break;
          }
        }
    }
}

void
ProgramDriver::issue(int thread, int edge)
{
    ++threads_[static_cast<std::size_t>(thread)].in_flight;
    const int part = program_.threads[static_cast<std::size_t>(thread)].part;
    engine_.send(edge, chunk_bytes_[static_cast<std::size_t>(part)],
                 [this, thread, edge]() { onComplete(thread, edge); });
}

void
ProgramDriver::onComplete(int thread, int edge)
{
    // One completion serves both endpoints: the sender's channel
    // drained and the receiver's chunk landed.
    ThreadState& sender = threads_[static_cast<std::size_t>(thread)];
    if (--sender.in_flight == 0 && sender.awaits_drain) {
        sender.awaits_drain = false;
        resume(thread);
    }
    inbox_[static_cast<std::size_t>(edge)].push(net_.simulation().now());
    int& waiter = waiter_[static_cast<std::size_t>(edge)];
    if (waiter >= 0) {
        const int next = waiter;
        waiter = -1;
        resume(next);
    }
}

void
ProgramDriver::Inbox::push(double at)
{
    // Drop the taken prefix once it is at least half the buffer, so a
    // long-lived backlog stays bounded by its live length.
    if (head > 0 && 2 * head >= landed.size()) {
        landed.erase(landed.begin(),
                     landed.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
    }
    landed.push_back(at);
}

ScheduleResult
ProgramDriver::result() const
{
    CCUBE_CHECK(finished(), "schedule has not completed");
    return partialResult(completion_time_);
}

ScheduleResult
ProgramDriver::partialResult(double stalled_at) const
{
    ScheduleResult out;
    out.num_chunks = program_.numChunks();
    out.completion_time = finished() ? completion_time_ : stalled_at;
    out.chunk_at_rank = available_at_;
    out.geometry = program_.geometry(total_bytes_);
    out.chunk_ready.assign(static_cast<std::size_t>(out.num_chunks), -1.0);
    for (int c = 0; c < out.num_chunks; ++c) {
        double latest = 0.0;
        bool complete = true;
        for (const auto& per_rank : available_at_) {
            const double at = per_rank[static_cast<std::size_t>(c)];
            if (at < 0.0) {
                complete = false;
                break;
            }
            latest = std::max(latest, at);
        }
        if (complete)
            out.chunk_ready[static_cast<std::size_t>(c)] = latest;
    }
    return out;
}

ScheduleResult
runProgram(sim::Simulation& simulation, Network& network,
           const sched::Program& program, double total_bytes,
           ccl::Protocol proto)
{
    ProgramDriver driver(network, program, total_bytes, proto);
    const double at = simulation.now();
    driver.start(at);
    simulation.run();
    ScheduleResult result = driver.result();
    obs::Monitor& monitor = obs::Monitor::global();
    if (monitor.enabled())
        monitor.collectiveComplete(program.op, at, result.completion_time,
                                   total_bytes);
    return result;
}

std::vector<int>
treeChannelIds(const topo::Graph& graph,
               const topo::TreeEmbedding& embedding, int lane, bool down)
{
    std::vector<int> out;
    for (const topo::Route& edge_route : embedding.routes) {
        const topo::Route route = down ? edge_route : edge_route.reversed();
        for (std::size_t h = 0; h + 1 < route.hops.size(); ++h)
            out.push_back(laneChannel(graph, route.hops[h],
                                      route.hops[h + 1], lane));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace simnet
} // namespace ccube
