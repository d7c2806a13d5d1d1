#include "ccl/tuner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "ccl/program_task.h"
#include "model/overlapped_tree_model.h"
#include "model/ring_model.h"
#include "model/tree_model.h"
#include "obs/metrics.h"
#include "topo/embedding_search.h"
#include "topo/graph.h"
#include "util/logging.h"

namespace ccube {
namespace ccl {

namespace {

/** Size buckets: powers of two from 64 B to 256 MiB. */
constexpr int kMinLog2 = 6;
constexpr int kMaxLog2 = 28;
constexpr int kNumBuckets = kMaxLog2 - kMinLog2 + 1;

constexpr AllReduceAlgorithm kAlgorithms[] = {
    AllReduceAlgorithm::kRing,
    AllReduceAlgorithm::kTree,
    AllReduceAlgorithm::kOverlappedTree,
    AllReduceAlgorithm::kDoubleTree,
    AllReduceAlgorithm::kCCubeDoubleTree,
};
constexpr int kNumAlgorithms =
    static_cast<int>(sizeof(kAlgorithms) / sizeof(kAlgorithms[0]));

constexpr Protocol kProtocols[] = {Protocol::kSimple, Protocol::kLL};

int
bucketFor(double bytes)
{
    if (bytes <= static_cast<double>(1ull << kMinLog2))
        return 0;
    const int b = static_cast<int>(std::floor(std::log2(bytes)));
    return std::clamp(b, kMinLog2, kMaxLog2) - kMinLog2;
}

/** Representative size: the bucket's geometric middle, 1.5·2^b. */
double
bucketBytes(int bucket)
{
    return 1.5 * static_cast<double>(1ull << (kMinLog2 + bucket));
}

std::string
humanBytes(double bytes)
{
    std::ostringstream out;
    if (bytes >= 1024.0 * 1024.0)
        out << bytes / (1024.0 * 1024.0) << "MiB";
    else if (bytes >= 1024.0)
        out << bytes / 1024.0 << "KiB";
    else
        out << bytes << "B";
    return out.str();
}

/**
 * The channel model the table is computed against: the slowest NVLink
 * channel (bottleneck link) of the topology. Purely a function of the
 * graph — no clocks — so tables are deterministic.
 */
model::AlphaBeta
baseLink(const topo::Graph& graph)
{
    double min_bw = 0.0;
    double max_lat = 0.0;
    bool found = false;
    for (const topo::ChannelDesc& channel : graph.channels()) {
        if (channel.kind != topo::LinkKind::kNvlink)
            continue;
        if (!found || channel.bandwidth < min_bw)
            min_bw = channel.bandwidth;
        max_lat = std::max(max_lat, channel.latency);
        found = true;
    }
    if (!found || min_bw <= 0.0)
        return model::AlphaBeta{};
    return model::AlphaBeta::fromBandwidth(max_lat, min_bw);
}

/**
 * Cache key half: a signature of the topology *shape* — name, node
 * and channel counts, and the bottleneck link parameters. Two graphs
 * with the same signature tune identically.
 */
std::string
topologySignature(const topo::Graph& graph)
{
    const model::AlphaBeta link = baseLink(graph);
    std::ostringstream out;
    out << graph.name() << "#n" << graph.nodeCount() << "#c"
        << graph.channelCount() << "#a" << link.alpha << "#b"
        << link.beta;
    return out.str();
}

/** Model-predicted completion (seconds) and the chunk count used. */
double
predictSeconds(AllReduceAlgorithm algorithm, const model::AlphaBeta& link,
               int p, double bytes, int* num_chunks)
{
    const int pm = std::max(p, 2);
    int chunks = 1;
    double t = 0.0;
    switch (algorithm) {
    case AllReduceAlgorithm::kRing: {
        t = model::RingModel(link).allReduceTime(pm, bytes);
        chunks = pm; // the ring's P slices
        break;
    }
    case AllReduceAlgorithm::kTree: {
        model::TreeModel tree(link);
        chunks = tree.optimalChunksInt(pm, bytes);
        t = tree.allReduceTimeChunked(pm, bytes, chunks);
        break;
    }
    case AllReduceAlgorithm::kOverlappedTree: {
        chunks = model::TreeModel(link).optimalChunksInt(pm, bytes);
        t = model::OverlappedTreeModel(link).allReduceTimeChunked(
            pm, bytes, chunks);
        break;
    }
    case AllReduceAlgorithm::kDoubleTree: {
        // Two trees carry half each, concurrently on disjoint lanes.
        model::TreeModel tree(link);
        chunks = tree.optimalChunksInt(pm, bytes / 2.0);
        t = tree.allReduceTimeChunked(pm, bytes / 2.0, chunks);
        break;
    }
    case AllReduceAlgorithm::kCCubeDoubleTree: {
        chunks = model::TreeModel(link).optimalChunksInt(pm,
                                                         bytes / 2.0);
        t = model::OverlappedTreeModel(link).allReduceTimeChunked(
            pm, bytes / 2.0, chunks);
        break;
    }
    }
    if (num_chunks != nullptr)
        *num_chunks = std::clamp(chunks, 1, 64);
    return t;
}

} // namespace

const char*
algorithmName(AllReduceAlgorithm algorithm)
{
    switch (algorithm) {
    case AllReduceAlgorithm::kRing:
        return "ring";
    case AllReduceAlgorithm::kTree:
        return "tree";
    case AllReduceAlgorithm::kOverlappedTree:
        return "overlapped_tree";
    case AllReduceAlgorithm::kDoubleTree:
        return "double_tree";
    case AllReduceAlgorithm::kCCubeDoubleTree:
        return "ccube_double_tree";
    }
    return "?";
}

sched::Program
allReduceProgram(const topo::Graph& graph, int p,
                 AllReduceAlgorithm algorithm, int num_chunks)
{
    return AllReducePlan(graph, p).build(algorithm, num_chunks);
}

AllReducePlan::AllReducePlan(const topo::Graph& graph, int p)
    : graph_(graph), p_(p)
{
}

bool
AllReducePlan::matches(const topo::Graph& graph) const
{
    if (graph.name() != graph_.name() ||
        graph.nodeCount() != graph_.nodeCount() ||
        graph.channelCount() != graph_.channelCount())
        return false;
    for (topo::NodeId node = 0; node < graph.nodeCount(); ++node) {
        if (graph.isSwitch(node) != graph_.isSwitch(node))
            return false;
    }
    return std::equal(
        graph.channels().begin(), graph.channels().end(),
        graph_.channels().begin(),
        [](const topo::ChannelDesc& a, const topo::ChannelDesc& b) {
            return a.src == b.src && a.dst == b.dst && a.kind == b.kind &&
                   a.bandwidth == b.bandwidth && a.latency == b.latency;
        });
}

std::shared_ptr<const BoundProgram>
AllReducePlan::find(AllReduceAlgorithm algorithm, int num_chunks) const
{
    const auto it = programs_.find({algorithm, num_chunks});
    return it == programs_.end() ? nullptr : it->second;
}

std::shared_ptr<const BoundProgram>
AllReducePlan::add(Communicator& comm, AllReduceAlgorithm algorithm,
                   int num_chunks)
{
    // The bound mailboxes outlive every abort (bindProgram), so the
    // plan survives clearAbort() unchanged.
    std::shared_ptr<const BoundProgram> bound =
        bindProgram(comm, build(algorithm, num_chunks));
    programs_[{algorithm, num_chunks}] = bound;
    return bound;
}

sched::Program
AllReducePlan::build(AllReduceAlgorithm algorithm, int num_chunks)
{
    switch (algorithm) {
      case AllReduceAlgorithm::kRing: {
        if (!ring_)
            ring_ = topo::findHamiltonianRing(graph_, p_);
        CCUBE_CHECK(ring_->size() == p_,
                    "no Hamiltonian ring on this topology");
        return sched::ringProgram(*ring_, sched::RingPhase::kAllReduce);
      }
      case AllReduceAlgorithm::kTree:
      case AllReduceAlgorithm::kOverlappedTree:
        if (!tree_)
            tree_ = topo::embedTree(graph_, topo::BinaryTree::inorder(p_));
        return sched::treeProgram(
            *tree_, sched::TreeDirection::kAllReduce,
            algorithm == AllReduceAlgorithm::kTree
                ? sched::PhaseMode::kTwoPhase
                : sched::PhaseMode::kOverlapped,
            num_chunks);
      case AllReduceAlgorithm::kDoubleTree:
      case AllReduceAlgorithm::kCCubeDoubleTree: {
        if (!double_tree_) {
            topo::EmbeddingSearchOptions search;
            search.num_ranks = p_;
            const auto found =
                topo::findConflictFreeDoubleTree(graph_, search);
            CCUBE_CHECK(found.has_value(),
                        "no conflict-free double tree on this topology");
            double_tree_ = *found;
        }
        return sched::doubleTreeProgram(
            *double_tree_,
            algorithm == AllReduceAlgorithm::kDoubleTree
                ? sched::PhaseMode::kTwoPhase
                : sched::PhaseMode::kOverlapped,
            num_chunks);
      }
    }
    util::panic("unknown AllReduce algorithm");
}

Tuner&
Tuner::global()
{
    static Tuner instance;
    return instance;
}

Tuner::Table&
Tuner::tableFor(const topo::Graph& graph, int p)
{
    // Caller holds mutex_.
    const std::pair<std::string, int> key{topologySignature(graph), p};
    auto it = cache_.find(key);
    if (it != cache_.end())
        return it->second;

    Table table;
    table.link = baseLink(graph);
    table.buckets.resize(static_cast<std::size_t>(kNumBuckets));
    for (int b = 0; b < kNumBuckets; ++b) {
        Cell& cell = table.buckets[static_cast<std::size_t>(b)];
        cell.proto_by_alg.assign(static_cast<std::size_t>(kNumAlgorithms),
                                 Protocol::kSimple);
        const double bytes = bucketBytes(b);
        double best_time = std::numeric_limits<double>::infinity();
        for (int a = 0; a < kNumAlgorithms; ++a) {
            const AllReduceAlgorithm algorithm =
                kAlgorithms[static_cast<std::size_t>(a)];
            double alg_best = std::numeric_limits<double>::infinity();
            for (Protocol proto : kProtocols) {
                const ProtocolCosts costs = protocolCosts(proto);
                const model::AlphaBeta link = model::applyProtocol(
                    table.link, costs.payload_factor,
                    costs.alpha_factor);
                int chunks = 1;
                const double t = predictSeconds(algorithm, link, p,
                                                bytes, &chunks);
                if (t < alg_best) {
                    alg_best = t;
                    cell.proto_by_alg[static_cast<std::size_t>(a)] =
                        proto;
                }
                if (t < best_time) {
                    best_time = t;
                    cell.best.algorithm = algorithm;
                    cell.best.protocol = proto;
                    cell.best.num_chunks = chunks;
                    cell.best.predicted_us = t * 1e6;
                }
            }
        }
    }
    return cache_.emplace(key, std::move(table)).first->second;
}

TunerChoice
Tuner::choose(const topo::Graph& graph, int p, std::size_t elems)
{
    const double bytes =
        static_cast<double>(elems) * sizeof(float);
    std::lock_guard<std::mutex> lock(mutex_);
    TunerChoice choice =
        tableFor(graph, p)
            .buckets[static_cast<std::size_t>(bucketFor(bytes))]
            .best;
    // Never split finer than the buffer has elements.
    if (elems > 0)
        choice.num_chunks = std::min(
            choice.num_chunks,
            static_cast<int>(std::min<std::size_t>(elems, 64)));
    return choice;
}

std::string
Tuner::formatTable(const topo::Graph& graph, int p)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Table& table = tableFor(graph, p);
    std::ostringstream out;
    out << "# tuner table topo=" << graph.name() << " p=" << p
        << " alpha=" << table.link.alpha << "s beta=" << table.link.beta
        << "s/B\n";
    out << "# columns: per-algorithm protocol pick, then the best "
           "(algorithm x protocol x chunks) cell\n";
    out << "bucket";
    for (int a = 0; a < kNumAlgorithms; ++a)
        out << "\t"
            << algorithmName(kAlgorithms[static_cast<std::size_t>(a)]);
    out << "\tbest\tproto\tchunks\tpred_us\n";
    for (int b = 0; b < kNumBuckets; ++b) {
        const Cell& cell = table.buckets[static_cast<std::size_t>(b)];
        out << humanBytes(static_cast<double>(1ull << (kMinLog2 + b)));
        for (int a = 0; a < kNumAlgorithms; ++a)
            out << "\t"
                << protocolName(
                       cell.proto_by_alg[static_cast<std::size_t>(a)]);
        out << "\t" << algorithmName(cell.best.algorithm) << "\t"
            << protocolName(cell.best.protocol) << "\t"
            << cell.best.num_chunks << "\t" << cell.best.predicted_us
            << "\n";
    }
    return out.str();
}

void
Tuner::clearCache()
{
    std::lock_guard<std::mutex> lock(mutex_);
    cache_.clear();
}

AllReduceTrace
Communicator::runAuto(RankBuffers& buffers, const topo::Graph& graph)
{
    const std::size_t elems = buffers.empty() ? 0 : buffers[0].size();
    const TunerChoice cell =
        Tuner::global().choose(graph, numRanks(), elems);
    obs::MetricRegistry& metrics = obs::MetricRegistry::global();
    metrics.addCounter(std::string("ccl.tuner.alg.") +
                           algorithmName(cell.algorithm),
                       1.0);
    metrics.addCounter(std::string("ccl.tuner.proto.") +
                           protocolName(cell.protocol),
                       1.0);
    if (!plan_ || !plan_->matches(graph))
        plan_ = std::make_unique<AllReducePlan>(graph, numRanks());
    std::shared_ptr<const BoundProgram> bound =
        plan_->find(cell.algorithm, cell.num_chunks);
    metrics.addCounter(bound ? "ccl.plan.hit" : "ccl.plan.miss", 1.0);
    if (!bound)
        bound = plan_->add(*this, cell.algorithm, cell.num_chunks);
    return runProgram(*this, buffers, std::move(bound), cell.protocol);
}

} // namespace ccl
} // namespace ccube
