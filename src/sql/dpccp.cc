#include "sql/dpccp.h"

namespace ires::sql {

namespace {

// Neighborhood of a vertex set: union of members' adjacency, minus the set.
uint32_t Neighborhood(const std::vector<uint32_t>& adjacency, uint32_t set) {
  uint32_t out = 0;
  for (uint32_t rest = set; rest != 0; rest &= rest - 1) {
    out |= adjacency[__builtin_ctz(rest)];
  }
  return out & ~set;
}

// Enumerates connected supersets of `seed` grown only through vertices not
// in `excluded`, invoking `visit` on each (including `seed` itself is the
// caller's job). This is EnumerateCsgRec of the DPccp paper.
void EnumerateCsgRec(const std::vector<uint32_t>& adjacency, uint32_t seed,
                     uint32_t excluded,
                     const std::function<void(uint32_t)>& visit) {
  const uint32_t neighbors = Neighborhood(adjacency, seed) & ~excluded;
  if (neighbors == 0) return;
  // All non-empty subsets of the neighborhood, in subset-enumeration order.
  for (uint32_t sub = neighbors; sub != 0; sub = (sub - 1) & neighbors) {
    visit(seed | sub);
  }
  for (uint32_t sub = neighbors; sub != 0; sub = (sub - 1) & neighbors) {
    EnumerateCsgRec(adjacency, seed | sub, excluded | neighbors, visit);
  }
}

// All csg-cmp-pairs whose csg grew from the start vertex `v` — one
// iteration of the outer loop.
void EnumerateForSeed(const std::vector<uint32_t>& adjacency, int n, int v,
                      const std::function<void(uint32_t, uint32_t)>& emit) {
  // EnumerateCmp for one csg S1: complements are connected sets seeded at
  // neighbors of S1 with index above min(S1), grown away from the
  // "forbidden" prefix.
  auto enumerate_cmp = [&](uint32_t s1) {
    const int min_vertex = __builtin_ctz(s1);
    const uint32_t b_min = (1u << (min_vertex + 1)) - 1;  // B_{min(S1)}
    const uint32_t x = b_min | s1;
    const uint32_t neighbors = Neighborhood(adjacency, s1) & ~x;
    if (neighbors == 0) return;
    // Seeds in descending vertex order, as in the paper.
    for (int w = n - 1; w >= 0; --w) {
      const uint32_t bit = 1u << w;
      if ((neighbors & bit) == 0) continue;
      emit(s1, bit);
      // Grow the complement through vertices outside X and outside the
      // lower-ordered neighborhood seeds (B_w ∩ N).
      const uint32_t b_w = (1u << (w + 1)) - 1;
      EnumerateCsgRec(adjacency, bit, x | (b_w & neighbors),
                      [&](uint32_t s2) { emit(s1, s2); });
    }
  };

  const uint32_t seed = 1u << v;
  enumerate_cmp(seed);
  const uint32_t b_v = (1u << (v + 1)) - 1;
  EnumerateCsgRec(adjacency, seed, b_v,
                  [&](uint32_t s1) { enumerate_cmp(s1); });
}

}  // namespace

void EnumerateCsgCmpPairs(
    const std::vector<uint32_t>& adjacency, int n,
    const std::function<void(uint32_t, uint32_t)>& emit) {
  for (int v = n - 1; v >= 0; --v) {
    EnumerateForSeed(adjacency, n, v, emit);
  }
}

int CountConnectedSubgraphs(const std::vector<uint32_t>& adjacency, int n) {
  int count = 0;
  for (int v = n - 1; v >= 0; --v) {
    ++count;  // the singleton
    const uint32_t b_v = (1u << (v + 1)) - 1;
    EnumerateCsgRec(adjacency, 1u << v, b_v, [&](uint32_t) { ++count; });
  }
  return count;
}

}  // namespace ires::sql
