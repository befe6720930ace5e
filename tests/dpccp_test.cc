#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "sql/dpccp.h"

namespace ires::sql {
namespace {

bool Connected(uint32_t mask, const std::vector<uint32_t>& adjacency) {
  if (mask == 0) return false;
  uint32_t reached = mask & static_cast<uint32_t>(-static_cast<int32_t>(mask));
  while (true) {
    uint32_t next = reached;
    for (uint32_t rest = reached; rest != 0; rest &= rest - 1) {
      next |= adjacency[__builtin_ctz(rest)] & mask;
    }
    if (next == reached) break;
    reached = next;
  }
  return reached == mask;
}

// Ground truth: all unordered csg-cmp pairs by brute force.
std::set<std::pair<uint32_t, uint32_t>> BruteForcePairs(
    const std::vector<uint32_t>& adjacency, int n) {
  std::set<std::pair<uint32_t, uint32_t>> pairs;
  const uint32_t full = (1u << n) - 1;
  for (uint32_t s1 = 1; s1 <= full; ++s1) {
    if (!Connected(s1, adjacency)) continue;
    for (uint32_t s2 = 1; s2 <= full; ++s2) {
      if ((s1 & s2) != 0 || !Connected(s2, adjacency)) continue;
      // An edge must link the two sets.
      bool linked = false;
      for (uint32_t rest = s1; rest != 0 && !linked; rest &= rest - 1) {
        linked = (adjacency[__builtin_ctz(rest)] & s2) != 0;
      }
      if (!linked) continue;
      const uint32_t a = std::min(s1, s2);
      const uint32_t b = std::max(s1, s2);
      pairs.emplace(a, b);
    }
  }
  return pairs;
}

std::vector<uint32_t> MakeAdjacency(
    int n, const std::vector<std::pair<int, int>>& edges) {
  std::vector<uint32_t> adjacency(n, 0);
  for (auto [a, b] : edges) {
    adjacency[a] |= 1u << b;
    adjacency[b] |= 1u << a;
  }
  return adjacency;
}

void ExpectMatchesBruteForce(const std::vector<uint32_t>& adjacency, int n) {
  std::set<std::pair<uint32_t, uint32_t>> produced;
  int emissions = 0;
  EnumerateCsgCmpPairs(adjacency, n, [&](uint32_t s1, uint32_t s2) {
    ASSERT_NE(s1, 0u);
    ASSERT_NE(s2, 0u);
    ASSERT_EQ(s1 & s2, 0u);
    ++emissions;
    produced.emplace(std::min(s1, s2), std::max(s1, s2));
  });
  const auto expected = BruteForcePairs(adjacency, n);
  EXPECT_EQ(produced, expected);
  // Exactly-once property: one emission per unordered pair.
  EXPECT_EQ(emissions, static_cast<int>(expected.size()));
}

TEST(DpccpTest, Chain) {
  ExpectMatchesBruteForce(MakeAdjacency(4, {{0, 1}, {1, 2}, {2, 3}}), 4);
}

TEST(DpccpTest, Star) {
  ExpectMatchesBruteForce(MakeAdjacency(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}}),
                          5);
}

TEST(DpccpTest, Cycle) {
  ExpectMatchesBruteForce(MakeAdjacency(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4},
                                            {4, 0}}),
                          5);
}

TEST(DpccpTest, Clique) {
  std::vector<std::pair<int, int>> edges;
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) edges.emplace_back(a, b);
  }
  ExpectMatchesBruteForce(MakeAdjacency(5, edges), 5);
}

TEST(DpccpTest, TwoVertexEdge) {
  ExpectMatchesBruteForce(MakeAdjacency(2, {{0, 1}}), 2);
}

TEST(DpccpTest, ChainPairCountIsKnownClosedForm) {
  // For a chain of n vertices the number of csg-cmp pairs is
  // (n^3 - n) / 6 (Moerkotte & Neumann).
  for (int n : {2, 3, 4, 5, 6, 7}) {
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
    const auto adjacency = MakeAdjacency(n, edges);
    int count = 0;
    EnumerateCsgCmpPairs(adjacency, n,
                         [&](uint32_t, uint32_t) { ++count; });
    EXPECT_EQ(count, (n * n * n - n) / 6) << "chain n=" << n;
  }
}

TEST(DpccpTest, CliqueCsgCountIsAllSubsets) {
  // Every non-empty subset of a clique is connected: 2^n - 1.
  std::vector<std::pair<int, int>> edges;
  for (int a = 0; a < 6; ++a) {
    for (int b = a + 1; b < 6; ++b) edges.emplace_back(a, b);
  }
  EXPECT_EQ(CountConnectedSubgraphs(MakeAdjacency(6, edges), 6), 63);
}

class DpccpRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(DpccpRandomTest, MatchesBruteForceOnRandomConnectedGraphs) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 7);
  const int n = static_cast<int>(rng.UniformInt(2, 7));
  // Random spanning tree + extra random edges keeps the graph connected.
  std::vector<std::pair<int, int>> edges;
  for (int v = 1; v < n; ++v) {
    edges.emplace_back(v, static_cast<int>(rng.UniformInt(0, v - 1)));
  }
  const int extra = static_cast<int>(rng.UniformInt(0, n));
  for (int e = 0; e < extra; ++e) {
    const int a = static_cast<int>(rng.UniformInt(0, n - 1));
    const int b = static_cast<int>(rng.UniformInt(0, n - 1));
    if (a != b) edges.emplace_back(a, b);
  }
  ExpectMatchesBruteForce(MakeAdjacency(n, edges), n);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, DpccpRandomTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace ires::sql
