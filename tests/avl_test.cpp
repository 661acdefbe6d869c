// Tests for the custom AVL tree behind the read index, including balance
// invariants under randomized workloads (property tests vs std::map).
#include <gtest/gtest.h>

#include <map>

#include "segmentstore/avl_map.h"
#include "sim/random.h"

namespace pravega::segmentstore {
namespace {

TEST(AvlMapTest, InsertFindErase) {
    AvlMap<int64_t, int> tree;
    EXPECT_TRUE(tree.insert(10, 100));
    EXPECT_TRUE(tree.insert(5, 50));
    EXPECT_TRUE(tree.insert(20, 200));
    EXPECT_EQ(tree.size(), 3u);
    ASSERT_NE(tree.find(10), nullptr);
    EXPECT_EQ(*tree.find(10), 100);
    EXPECT_EQ(tree.find(11), nullptr);
    EXPECT_TRUE(tree.erase(10));
    EXPECT_FALSE(tree.erase(10));
    EXPECT_EQ(tree.find(10), nullptr);
    EXPECT_EQ(tree.size(), 2u);
}

TEST(AvlMapTest, InsertOverwrites) {
    AvlMap<int64_t, int> tree;
    EXPECT_TRUE(tree.insert(1, 10));
    EXPECT_FALSE(tree.insert(1, 20));
    EXPECT_EQ(*tree.find(1), 20);
    EXPECT_EQ(tree.size(), 1u);
}

TEST(AvlMapTest, FloorEntry) {
    AvlMap<int64_t, int> tree;
    for (int64_t k : {0, 100, 200, 300}) tree.insert(k, static_cast<int>(k));
    EXPECT_EQ(*tree.floorEntry(150).first, 100);
    EXPECT_EQ(*tree.floorEntry(100).first, 100);  // exact match
    EXPECT_EQ(*tree.floorEntry(99).first, 0);
    EXPECT_EQ(*tree.floorEntry(1000).first, 300);
    EXPECT_EQ(tree.floorEntry(-1).first, nullptr);
}

TEST(AvlMapTest, CeilingEntry) {
    AvlMap<int64_t, int> tree;
    for (int64_t k : {10, 20, 30}) tree.insert(k, 0);
    EXPECT_EQ(*tree.ceilingEntry(15).first, 20);
    EXPECT_EQ(*tree.ceilingEntry(20).first, 20);
    EXPECT_EQ(*tree.ceilingEntry(5).first, 10);
    EXPECT_EQ(tree.ceilingEntry(31).first, nullptr);
}

TEST(AvlMapTest, FirstLastEntry) {
    AvlMap<int64_t, int> tree;
    EXPECT_EQ(tree.firstEntry().first, nullptr);
    EXPECT_EQ(tree.lastEntry().first, nullptr);
    for (int64_t k : {50, 10, 90, 30}) tree.insert(k, 0);
    EXPECT_EQ(*tree.firstEntry().first, 10);
    EXPECT_EQ(*tree.lastEntry().first, 90);
}

TEST(AvlMapTest, ForEachInOrder) {
    AvlMap<int64_t, int> tree;
    for (int64_t k : {5, 3, 8, 1, 4, 9}) tree.insert(k, 0);
    std::vector<int64_t> keys;
    tree.forEach([&](const int64_t& k, int&) {
        keys.push_back(k);
        return true;
    });
    EXPECT_EQ(keys, (std::vector<int64_t>{1, 3, 4, 5, 8, 9}));
}

TEST(AvlMapTest, ForEachEarlyStop) {
    AvlMap<int64_t, int> tree;
    for (int64_t k = 0; k < 10; ++k) tree.insert(k, 0);
    int visited = 0;
    tree.forEach([&](const int64_t&, int&) { return ++visited < 3; });
    EXPECT_EQ(visited, 3);
}

TEST(AvlMapTest, SequentialInsertStaysBalanced) {
    // The read-index workload: monotonically increasing offsets. A naive
    // BST would degenerate to a list; AVL height must stay logarithmic.
    AvlMap<int64_t, int> tree;
    for (int64_t k = 0; k < 4096; ++k) tree.insert(k, 0);
    EXPECT_TRUE(tree.checkInvariants());
    EXPECT_LE(tree.height(), 14);  // 1.44 * log2(4096) ≈ 17; AVL ≈ 13
}

TEST(AvlMapTest, MoveSemantics) {
    AvlMap<int64_t, int> a;
    a.insert(1, 1);
    AvlMap<int64_t, int> b = std::move(a);
    EXPECT_EQ(b.size(), 1u);
    EXPECT_EQ(a.size(), 0u);
}

TEST(AvlMapTest, Clear) {
    AvlMap<int64_t, int> tree;
    for (int64_t k = 0; k < 100; ++k) tree.insert(k, 0);
    tree.clear();
    EXPECT_TRUE(tree.empty());
    EXPECT_EQ(tree.find(5), nullptr);
    tree.insert(5, 5);  // usable after clear
    EXPECT_EQ(tree.size(), 1u);
}

class AvlPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AvlPropertyTest, MatchesStdMapUnderRandomOps) {
    AvlMap<int64_t, int64_t> tree;
    std::map<int64_t, int64_t> reference;
    sim::Rng rng(GetParam());

    for (int op = 0; op < 5000; ++op) {
        int64_t key = static_cast<int64_t>(rng.nextBounded(1000));
        switch (rng.nextBounded(4)) {
            case 0:
            case 1: {
                int64_t value = static_cast<int64_t>(rng.next());
                EXPECT_EQ(tree.insert(key, value), !reference.contains(key));
                reference[key] = value;
                break;
            }
            case 2: {
                EXPECT_EQ(tree.erase(key), reference.erase(key) > 0);
                break;
            }
            case 3: {
                auto floor = tree.floorEntry(key);
                auto rit = reference.upper_bound(key);
                if (rit == reference.begin()) {
                    EXPECT_EQ(floor.first, nullptr);
                } else {
                    --rit;
                    ASSERT_NE(floor.first, nullptr);
                    EXPECT_EQ(*floor.first, rit->first);
                    EXPECT_EQ(*floor.second, rit->second);
                }
                break;
            }
        }
        if (op % 500 == 0) {
            ASSERT_TRUE(tree.checkInvariants());
        }
    }
    ASSERT_TRUE(tree.checkInvariants());
    EXPECT_EQ(tree.size(), reference.size());
    for (const auto& [k, v] : reference) {
        auto* found = tree.find(k);
        ASSERT_NE(found, nullptr) << k;
        EXPECT_EQ(*found, v);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AvlPropertyTest, ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

}  // namespace
}  // namespace pravega::segmentstore
