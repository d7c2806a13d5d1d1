#include "topo/tree_embedding.h"

#include <algorithm>
#include <deque>
#include <functional>

#include "topo/detour_router.h"
#include "util/logging.h"

namespace ccube {
namespace topo {

BinaryTree::BinaryTree(int num_nodes)
    : parent_(static_cast<std::size_t>(num_nodes), kInvalidNode),
      children_(static_cast<std::size_t>(num_nodes))
{
    CCUBE_CHECK(num_nodes > 0, "tree needs at least one node");
}

BinaryTree
BinaryTree::inorder(int num_nodes)
{
    BinaryTree tree(num_nodes);
    // Recursive midpoint construction: the middle rank of a range is
    // the subtree root; halves become left/right subtrees.
    std::function<NodeId(int, int)> build = [&](int lo, int hi) -> NodeId {
        if (lo >= hi)
            return kInvalidNode;
        const int mid = lo + (hi - lo) / 2;
        const NodeId left = build(lo, mid);
        const NodeId right = build(mid + 1, hi);
        if (left != kInvalidNode)
            tree.addEdge(mid, left);
        if (right != kInvalidNode)
            tree.addEdge(mid, right);
        return mid;
    };
    tree.setRoot(build(0, num_nodes));
    return tree;
}

BinaryTree
BinaryTree::mirrored() const
{
    const int p = numNodes();
    auto map = [p](NodeId n) { return p - 1 - n; };
    BinaryTree out(p);
    out.setRoot(map(root_));
    for (const auto& [parent, child] : edges())
        out.addEdge(map(parent), map(child));
    return out;
}

BinaryTree
BinaryTree::shifted(int shift) const
{
    const int p = numNodes();
    auto map = [p, shift](NodeId n) {
        return static_cast<NodeId>(((n + shift) % p + p) % p);
    };
    BinaryTree out(p);
    out.setRoot(map(root_));
    for (const auto& [parent, child] : edges())
        out.addEdge(map(parent), map(child));
    return out;
}

void
BinaryTree::addEdge(NodeId parent, NodeId child)
{
    CCUBE_CHECK(parent >= 0 && parent < numNodes(), "bad parent " << parent);
    CCUBE_CHECK(child >= 0 && child < numNodes(), "bad child " << child);
    CCUBE_CHECK(parent_[static_cast<std::size_t>(child)] == kInvalidNode,
                "node " << child << " already has a parent");
    CCUBE_CHECK(children_[static_cast<std::size_t>(parent)].size() < 2,
                "node " << parent << " already has two children");
    parent_[static_cast<std::size_t>(child)] = parent;
    children_[static_cast<std::size_t>(parent)].push_back(child);
}

void
BinaryTree::setRoot(NodeId root)
{
    CCUBE_CHECK(root >= 0 && root < numNodes(), "bad root " << root);
    root_ = root;
}

NodeId
BinaryTree::parent(NodeId node) const
{
    CCUBE_CHECK(node >= 0 && node < numNodes(), "bad node " << node);
    return parent_[static_cast<std::size_t>(node)];
}

const std::vector<NodeId>&
BinaryTree::children(NodeId node) const
{
    CCUBE_CHECK(node >= 0 && node < numNodes(), "bad node " << node);
    return children_[static_cast<std::size_t>(node)];
}

int
BinaryTree::depthOf(NodeId node) const
{
    int depth = 0;
    for (NodeId n = node; n != root_; n = parent(n)) {
        CCUBE_CHECK(n != kInvalidNode, "node " << node << " detached");
        ++depth;
        CCUBE_CHECK(depth <= numNodes(), "cycle while walking to root");
    }
    return depth;
}

int
BinaryTree::height() const
{
    int max_depth = 0;
    for (NodeId n = 0; n < numNodes(); ++n)
        max_depth = std::max(max_depth, depthOf(n));
    return max_depth + 1;
}

std::vector<NodeId>
BinaryTree::leaves() const
{
    std::vector<NodeId> result;
    for (NodeId n = 0; n < numNodes(); ++n)
        if (children_[static_cast<std::size_t>(n)].empty())
            result.push_back(n);
    return result;
}

std::vector<NodeId>
BinaryTree::interior() const
{
    std::vector<NodeId> result;
    for (NodeId n = 0; n < numNodes(); ++n)
        if (!children_[static_cast<std::size_t>(n)].empty())
            result.push_back(n);
    return result;
}

std::vector<std::pair<NodeId, NodeId>>
BinaryTree::edges() const
{
    std::vector<std::pair<NodeId, NodeId>> result;
    for (NodeId n : bfsOrder())
        for (NodeId c : children_[static_cast<std::size_t>(n)])
            result.emplace_back(n, c);
    return result;
}

std::vector<NodeId>
BinaryTree::bfsOrder() const
{
    std::vector<NodeId> order;
    if (root_ == kInvalidNode)
        return order;
    std::deque<NodeId> frontier{root_};
    while (!frontier.empty()) {
        const NodeId n = frontier.front();
        frontier.pop_front();
        order.push_back(n);
        for (NodeId c : children_[static_cast<std::size_t>(n)])
            frontier.push_back(c);
    }
    return order;
}

bool
BinaryTree::valid() const
{
    if (root_ == kInvalidNode)
        return false;
    if (parent_[static_cast<std::size_t>(root_)] != kInvalidNode)
        return false;
    const auto order = bfsOrder();
    if (static_cast<int>(order.size()) != numNodes())
        return false;
    for (NodeId n = 0; n < numNodes(); ++n) {
        if (n != root_ && parent_[static_cast<std::size_t>(n)] ==
                              kInvalidNode) {
            return false;
        }
        if (children_[static_cast<std::size_t>(n)].size() > 2)
            return false;
    }
    return true;
}

std::vector<NodeId>
Route::transits() const
{
    if (hops.size() <= 2)
        return {};
    return std::vector<NodeId>(hops.begin() + 1, hops.end() - 1);
}

Route
Route::reversed() const
{
    Route out = *this;
    std::reverse(out.hops.begin(), out.hops.end());
    return out;
}

TreeEmbedding::TreeEmbedding(BinaryTree t)
    : tree(std::move(t))
{
}

const Route&
TreeEmbedding::routeToChild(NodeId child) const
{
    const auto all = tree.edges();
    for (std::size_t i = 0; i < all.size(); ++i)
        if (all[i].second == child)
            return routes[i];
    util::panic("no route to child — node is the root or unknown");
}

TreeEmbedding
embedTree(const Graph& graph, BinaryTree tree)
{
    CCUBE_CHECK(tree.valid(), "cannot embed an invalid tree");
    TreeEmbedding embedding(std::move(tree));
    for (const auto& [parent, child] : embedding.tree.edges()) {
        Route route;
        if (graph.hasChannel(parent, child)) {
            route.hops = {parent, child};
        } else {
            route.hops = graph.shortestPath(parent, child,
                                            LinkKind::kNvlink);
            CCUBE_CHECK(!route.hops.empty(),
                        "no NVLink path " << parent << " → " << child);
        }
        embedding.routes.push_back(std::move(route));
    }
    return embedding;
}

TreeEmbedding
directEmbedding(BinaryTree tree)
{
    CCUBE_CHECK(tree.valid(), "cannot embed an invalid tree");
    TreeEmbedding embedding(std::move(tree));
    for (const auto& [parent, child] : embedding.tree.edges())
        embedding.routes.push_back(Route{{parent, child}});
    return embedding;
}

} // namespace topo
} // namespace ccube
