#ifndef CCUBE_TESTS_CCL_TEST_UTIL_H_
#define CCUBE_TESTS_CCL_TEST_UTIL_H_

/**
 * @file
 * Inputs shared by the functional collective tests: direct-route
 * logical topologies at any P, and rank buffers with random or exact
 * integer contents.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ccl/allreduce.h"
#include "topo/double_tree.h"
#include "topo/ring_embedding.h"
#include "topo/tree_embedding.h"
#include "util/rng.h"

namespace ccube {

/**
 * Purely logical topologies at arbitrary P: every logical edge is a
 * direct route, so the protocol exercises mailboxes and ordering
 * without needing a physical graph of that size.
 */
struct LogicalTopologies {
    explicit LogicalTopologies(int ranks)
        : ring(topo::makeSequentialRing(ranks)),
          tree(topo::directEmbedding(topo::BinaryTree::inorder(ranks))),
          double_tree(
              topo::directEmbedding(topo::BinaryTree::inorder(ranks)),
              topo::directEmbedding(
                  topo::BinaryTree::inorder(ranks).mirrored()))
    {
    }

    topo::RingEmbedding ring;
    topo::TreeEmbedding tree;
    topo::DoubleTreeEmbedding double_tree;
};

/** @p ranks buffers of @p elems floats in [-1, 1) drawn from @p seed. */
inline ccl::RankBuffers
seededBuffers(int ranks, int elems, std::uint64_t seed)
{
    util::Rng rng(seed);
    ccl::RankBuffers buffers(static_cast<std::size_t>(ranks));
    for (auto& b : buffers) {
        b.resize(static_cast<std::size_t>(elems));
        rng.fill(b, -1.0f, 1.0f);
    }
    return buffers;
}

/**
 * Integer-valued buffers: every element is a small integer, so every
 * partial sum at P ≤ 1024 is exactly representable in float and the
 * reduced result is independent of reduction order, bit for bit.
 */
inline ccl::RankBuffers
integerBuffers(int ranks, int elems)
{
    ccl::RankBuffers buffers(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
        auto& b = buffers[static_cast<std::size_t>(r)];
        b.resize(static_cast<std::size_t>(elems));
        for (int i = 0; i < elems; ++i)
            b[static_cast<std::size_t>(i)] =
                static_cast<float>((r * 7 + i * 13) % 17 - 8);
    }
    return buffers;
}

/** Exact (order-independent) AllReduce expectation for integerBuffers. */
inline std::vector<float>
integerSums(int ranks, int elems)
{
    std::vector<float> expected(static_cast<std::size_t>(elems));
    for (int i = 0; i < elems; ++i) {
        long sum = 0;
        for (int r = 0; r < ranks; ++r)
            sum += (r * 7 + i * 13) % 17 - 8;
        expected[static_cast<std::size_t>(i)] =
            static_cast<float>(sum);
    }
    return expected;
}

} // namespace ccube

#endif // CCUBE_TESTS_CCL_TEST_UTIL_H_
