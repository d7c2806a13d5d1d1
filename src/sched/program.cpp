#include "sched/program.h"

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <tuple>
#include <utility>

#include "util/logging.h"

namespace ccube {
namespace sched {

using topo::NodeId;

int
Program::numChunks() const
{
    int total = 0;
    for (const Part& part : parts)
        total += part.chunks;
    return total;
}

topo::Route
Program::route(const Edge& edge) const
{
    const auto first = hops.begin() + edge.hop_first;
    return topo::Route{std::vector<NodeId>(first, first + edge.hop_count)};
}

Cursor::Cursor(const Program& program, int thread)
    : program_(&program)
{
    const Thread& t = program.threads[static_cast<std::size_t>(thread)];
    const Part& part = program.parts[static_cast<std::size_t>(t.part)];
    chunks_ = part.chunks;
    chunk_offset_ = part.chunk_offset;
    loop_ = t.first_loop;
    end_loop_ = t.first_loop + t.num_loops;
    settle();
}

int
Cursor::chunk() const
{
    const Step& s = step();
    const int raw = (s.base + s.stride * iter_) % chunks_;
    return raw < 0 ? raw + chunks_ : raw;
}

bool
Cursor::next()
{
    const Loop& loop = program_->loops[static_cast<std::size_t>(loop_)];
    if (++pos_ < loop.num_steps)
        return false;
    pos_ = 0;
    if (++iter_ == loop.count) {
        iter_ = 0;
        ++loop_;
    }
    return true;
}

bool
Cursor::settle()
{
    bool boundary = false;
    while (loop_ != end_loop_) {
        const Loop& loop = program_->loops[static_cast<std::size_t>(loop_)];
        if (loop.count == 0 || loop.num_steps == 0) {
            ++loop_;
            continue;
        }
        if (!program_->skip.done(globalChunk()))
            break;
        boundary |= next();
    }
    return boundary;
}

bool
Cursor::advance()
{
    const bool boundary = next();
    return settle() || boundary;
}

namespace {

/** Appends edges, threads, loops and steps to a program. */
class Builder
{
  public:
    explicit Builder(Program& program) : p_(program) {}

    /** An edge over @p path (front → back); empty: shortest path. */
    int edge(NodeId src, NodeId dst, int flow, int lane,
             std::span<const NodeId> path = {})
    {
        p_.edges.push_back(Edge{src, dst, flow, lane,
                                static_cast<int>(p_.hops.size()),
                                static_cast<int>(path.size())});
        p_.hops.insert(p_.hops.end(), path.begin(), path.end());
        return static_cast<int>(p_.edges.size()) - 1;
    }

    void thread(NodeId rank, const char* role, int part)
    {
        p_.threads.push_back(Thread{rank, role, part,
                                    static_cast<int>(p_.loops.size()), 0});
    }

    void loop(int count, std::string span = {})
    {
        p_.loops.push_back(Loop{count, static_cast<int>(p_.steps.size()),
                                0, std::move(span)});
        ++p_.threads.back().num_loops;
    }

    void step(Op op, int edge, int base, int stride,
              bool after_drain = false, int out = -1)
    {
        p_.steps.push_back(Step{op, after_drain, edge, out, base, stride});
        ++p_.loops.back().num_steps;
    }

    /** Chunk i of every iteration of a tree pipeline. */
    void chunkStep(Op op, int edge = -1, int out = -1)
    {
        step(op, edge, 0, 1, false, out);
    }

  private:
    Program& p_;
};

void
appendRing(Program& program, const topo::RingEmbedding& ring,
           RingPhase phase, int part, int flow)
{
    const int p = ring.size();
    Builder b(program);
    const int first_edge = static_cast<int>(program.edges.size());
    for (int pos = 0; pos < p; ++pos)
        b.edge(ring.order[static_cast<std::size_t>(pos)], ring.next(pos),
               flow, 0);
    const bool all = phase == RingPhase::kAllReduce;
    for (int pos = 0; pos < p; ++pos) {
        const int out = first_edge + pos;
        const int in = first_edge + (pos + p - 1) % p;
        b.thread(ring.order[static_cast<std::size_t>(pos)], "ring", part);
        if (phase != RingPhase::kAllGather) {
            // Reduce-Scatter step s: send slice pos−s, fold in pos−s−1.
            b.loop(p - 1, all ? "ring.reduce_scatter" : "");
            b.step(Op::kSend, out, pos, -1, /*after_drain=*/true);
            b.step(Op::kRecvReduce, in, pos - 1, -1);
        }
        if (all) {
            // This position now owns the reduced slice pos+1.
            b.loop(1);
            b.step(Op::kFinal, -1, pos + 1, 0);
        }
        if (phase != RingPhase::kReduceScatter) {
            // AllGather step s: pass slice pos+1−s on, take pos−s.
            b.loop(p - 1, all ? "ring.allgather" : "");
            b.step(Op::kSend, out, pos + 1, -1, /*after_drain=*/true);
            b.step(Op::kRecv, in, pos, -1);
            if (all)
                b.step(Op::kFinal, -1, pos, -1);
        }
    }
}

/**
 * Mailbox flow ids of one tree. The builders here own the flow-id
 * convention: a ring runs on flow 0, tree 0 on flows 1/2 and tree 1
 * on flows 3/4 (reduce/broadcast); the functional world only keys
 * mailboxes by whatever flow an edge carries.
 */
struct TreeFlows {
    int reduce = 1;
    int broadcast = 2;
};

/** First flow id above the ring's and the trees' (0–4). */
constexpr int kFirstSpareFlow = 5;

/**
 * The functional world binds each edge to the mailbox (src, dst,
 * flow), so no two edges of a program may share that key. A contended
 * embedding (the recovery ladder's mirrored double tree) can split a
 * detour into a hop that another edge of the same flow already takes;
 * the later edge then moves to the pair's first free spare flow.
 */
void
separateMailboxes(Program& program)
{
    std::set<std::tuple<NodeId, NodeId, int>> taken;
    for (Edge& edge : program.edges) {
        if (taken.emplace(edge.src, edge.dst, edge.flow).second)
            continue;
        edge.flow = kFirstSpareFlow;
        while (!taken.emplace(edge.src, edge.dst, edge.flow).second)
            ++edge.flow;
    }
}

/**
 * Splits @p path (travel order) at its rank transits into edges, in
 * travel order; other inner nodes stay on the edge's physical route.
 */
std::vector<int>
segment(Builder& b, std::span<const NodeId> path, int num_ranks, int flow,
        int lane)
{
    std::vector<int> out;
    std::size_t from = 0;
    for (std::size_t i = 1; i < path.size(); ++i) {
        if (i + 1 < path.size() && !topo::isRankTransit(path[i], num_ranks))
            continue;
        out.push_back(b.edge(path[from], path[i], flow, lane,
                             path.subspan(from, i - from + 1)));
        from = i;
    }
    return out;
}

void
appendTree(Program& program, const topo::TreeEmbedding& embedding,
           TreeDirection direction, PhaseMode mode, int chunks,
           TreeFlows flows, TreeLanes lanes, int part, const char* role)
{
    const topo::BinaryTree& tree = embedding.tree;
    const int p = tree.numNodes();
    const bool want_reduce = direction != TreeDirection::kBroadcast;
    const bool want_bcast = direction != TreeDirection::kReduce;
    Builder b(program);

    // Per child: the edge leaving / entering it in each direction.
    std::vector<int> down_first(static_cast<std::size_t>(p), -1);
    std::vector<int> down_last(static_cast<std::size_t>(p), -1);
    std::vector<int> up_first(static_cast<std::size_t>(p), -1);
    std::vector<int> up_last(static_cast<std::size_t>(p), -1);

    // Edges, and a forwarder per rank transit and direction (the
    // paper's static forwarding kernels, §IV-A), broadcast first.
    bool detoured = false;
    const auto forwarder = [&](int in, int out) {
        detoured = true;
        const Edge& from = program.edges[static_cast<std::size_t>(in)];
        const Edge& to = program.edges[static_cast<std::size_t>(out)];
        b.thread(from.dst, "forward", part);
        b.loop(chunks, "tree.forward " + std::to_string(from.src) + "->" +
                           std::to_string(to.dst));
        b.chunkStep(Op::kForward, in, out);
    };
    const auto tree_edges = tree.edges();
    for (std::size_t e = 0; e < tree_edges.size(); ++e) {
        const NodeId child = tree_edges[e].second;
        const std::vector<NodeId>& down_path = embedding.routes[e].hops;
        const std::vector<NodeId> up_path(down_path.rbegin(),
                                          down_path.rend());
        std::vector<int> down;
        std::vector<int> up;
        if (want_bcast) {
            down = segment(b, down_path, p, flows.broadcast, lanes.down);
            down_first[static_cast<std::size_t>(child)] = down.front();
            down_last[static_cast<std::size_t>(child)] = down.back();
        }
        if (want_reduce) {
            up = segment(b, up_path, p, flows.reduce, lanes.up);
            up_first[static_cast<std::size_t>(child)] = up.front();
            up_last[static_cast<std::size_t>(child)] = up.back();
        }
        const int m = static_cast<int>(std::max(down.size(), up.size()));
        for (int k = 1; k < m; ++k) {
            if (want_bcast)
                forwarder(down[static_cast<std::size_t>(k - 1)],
                          down[static_cast<std::size_t>(k)]);
            if (want_reduce)
                forwarder(up[static_cast<std::size_t>(m - k - 1)],
                          up[static_cast<std::size_t>(m - k)]);
        }
    }

    const bool all = direction == TreeDirection::kAllReduce;
    const bool overlapped = mode == PhaseMode::kOverlapped;
    for (NodeId rank = 0; rank < p; ++rank) {
        const bool root = rank == tree.root();
        const std::vector<NodeId>& children = tree.children(rank);
        const auto reduceBody = [&]() {
            for (NodeId child : children)
                b.chunkStep(Op::kRecvReduce,
                            up_last[static_cast<std::size_t>(child)]);
            if (!root)
                b.chunkStep(Op::kSend,
                            up_first[static_cast<std::size_t>(rank)]);
        };
        const auto sendChildren = [&]() {
            for (NodeId child : children)
                b.chunkStep(Op::kSend,
                            down_first[static_cast<std::size_t>(child)]);
        };
        const auto broadcastLoop = [&]() {
            b.loop(chunks, "tree.broadcast");
            b.chunkStep(Op::kRecv, down_last[static_cast<std::size_t>(rank)]);
            if (all)
                b.chunkStep(Op::kFinal);
            sendChildren();
        };

        if (direction == TreeDirection::kBroadcast) {
            b.thread(rank, role, part);
            if (root) {
                b.loop(chunks);
                sendChildren();
            } else {
                broadcastLoop();
            }
            continue;
        }
        if (root) {
            b.thread(rank, role, part);
            b.loop(chunks, "tree.reduce");
            reduceBody();
            if (all) {
                b.chunkStep(Op::kFinal);
                // Overlapped: each chunk fans out the moment it is
                // reduced; two-phase: only after the last one.
                if (!overlapped)
                    b.loop(chunks);
                sendChildren();
            }
            continue;
        }
        // Non-root: the reduction pipeline, then (two-phase, same
        // thread) or alongside it (overlapped, own thread) the
        // broadcast pipeline.
        b.thread(rank, all && overlapped ? "reduce" : role, part);
        b.loop(chunks, "tree.reduce");
        reduceBody();
        if (all) {
            if (overlapped)
                b.thread(rank, role, part);
            broadcastLoop();
        }
    }
    // Only a detour split at a rank transit can repeat a mailbox key.
    if (detoured)
        separateMailboxes(program);
}

} // namespace

Program
ringProgram(const topo::RingEmbedding& ring, RingPhase phase)
{
    CCUBE_CHECK(ring.size() >= 1, "empty ring");
    Program program;
    program.op = phase == RingPhase::kAllReduce       ? "ring_allreduce"
                 : phase == RingPhase::kReduceScatter ? "ring_reduce_scatter"
                                                      : "ring_all_gather";
    program.num_ranks = ring.size();
    program.parts.push_back(Part{ring.size(), 0});
    appendRing(program, ring, phase, 0, /*flow=*/0);
    return program;
}

Program
treeProgram(const topo::TreeEmbedding& embedding, TreeDirection direction,
            PhaseMode mode, int chunks, TreeLanes lanes)
{
    CCUBE_CHECK(chunks >= 1, "need at least one chunk");
    CCUBE_CHECK(embedding.tree.valid(), "invalid tree");
    Program program;
    program.op = direction == TreeDirection::kAllReduce ? "tree_allreduce"
                 : direction == TreeDirection::kReduce  ? "tree_reduce"
                                                        : "tree_broadcast";
    program.num_ranks = embedding.tree.numNodes();
    program.parts.push_back(Part{chunks, 0});
    appendTree(program, embedding, direction, mode, chunks, TreeFlows{},
               lanes, 0, "tree");
    return program;
}

Program
doubleTreeProgram(const topo::DoubleTreeEmbedding& embedding,
                  PhaseMode mode, int chunks_per_tree, LanePolicy lanes)
{
    CCUBE_CHECK(chunks_per_tree >= 1, "need at least one chunk per tree");
    CCUBE_CHECK(embedding.tree0.tree.numNodes() ==
                    embedding.tree1.tree.numNodes(),
                "double tree over different rank counts");
    const bool p2p = lanes == LanePolicy::kPointToPoint;
    Program program;
    program.op = "double_tree_allreduce";
    program.num_ranks = embedding.tree0.tree.numNodes();
    program.parts = {Part{chunks_per_tree, 0},
                     Part{chunks_per_tree, chunks_per_tree}};
    appendTree(program, embedding.tree0, TreeDirection::kAllReduce, mode,
               chunks_per_tree, TreeFlows{1, 2}, TreeLanes{0, p2p ? 0 : 1},
               0, "tree0");
    appendTree(program, embedding.tree1, TreeDirection::kAllReduce, mode,
               chunks_per_tree, TreeFlows{3, 4}, TreeLanes{p2p ? 1 : 0, 1},
               1, "tree1");
    return program;
}

Program
multiRingProgram(const std::vector<topo::RingEmbedding>& rings)
{
    CCUBE_CHECK(!rings.empty(), "need at least one ring");
    Program program;
    program.op = "multi_ring_allreduce";
    program.num_ranks = rings.front().size();
    for (std::size_t r = 0; r < rings.size(); ++r) {
        program.parts.push_back(Part{rings[r].size(), program.numChunks()});
        appendRing(program, rings[r], RingPhase::kAllReduce,
                   static_cast<int>(r), static_cast<int>(r));
    }
    // Each ring that uses an ordered pair gets the pair's next lane.
    std::map<std::pair<NodeId, NodeId>, int> next_lane;
    for (Edge& edge : program.edges)
        edge.lane = next_lane[{edge.src, edge.dst}]++;
    return program;
}

} // namespace sched
} // namespace ccube
