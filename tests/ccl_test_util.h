#ifndef CCUBE_TESTS_CCL_TEST_UTIL_H_
#define CCUBE_TESTS_CCL_TEST_UTIL_H_

/**
 * @file
 * Inputs shared by the functional collective tests: the DGX-1
 * embeddings, direct-route logical topologies at any P, rank buffers
 * with random or exact integer contents, and a byte-exact comparison.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "ccl/allreduce.h"
#include "topo/dgx1.h"
#include "topo/double_tree.h"
#include "topo/ring_embedding.h"
#include "topo/tree_embedding.h"
#include "util/rng.h"

namespace ccube {

/** The DGX-1 (P=8) and its ring, tree and double-tree embeddings. */
struct Dgx1Topologies {
    topo::Graph graph = topo::makeDgx1();
    topo::RingEmbedding ring = topo::findHamiltonianRing(graph, 8);
    topo::TreeEmbedding tree =
        topo::embedTree(graph, topo::BinaryTree::inorder(8));
    topo::DoubleTreeEmbedding double_tree =
        topo::makeDgx1DoubleTree(graph);
};

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

/** Requires @p got to equal @p want byte for byte; @p what names the
 *  run in the failure message. */
inline void
expectBytesIdentical(const ccl::RankBuffers& got,
                     const ccl::RankBuffers& want, const std::string& what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got[r].size(), want[r].size()) << what;
        if (std::memcmp(got[r].data(), want[r].data(),
                        got[r].size() * sizeof(float)) != 0) {
            for (std::size_t i = 0; i < got[r].size(); ++i)
                ASSERT_EQ(got[r][i], want[r][i])
                    << what << ": rank " << r << " elem " << i
                    << " diverges from the reference";
        }
    }
}

} // namespace ccube

#endif // CCUBE_TESTS_CCL_TEST_UTIL_H_
