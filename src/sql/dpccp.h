#ifndef IRES_SQL_DPCCP_H_
#define IRES_SQL_DPCCP_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace ires::sql {

/// Enumerates all csg-cmp-pairs of a connected join graph (Moerkotte &
/// Neumann, "Analysis of two existing and one new dynamic programming
/// algorithm for the generation of optimal bushy join trees"): every pair
/// (S1, S2) of disjoint, individually connected vertex sets with at least
/// one edge between them is produced exactly once (up to symmetry; S1 holds
/// the smaller minimum vertex). This is the enumeration MuSQLE's optimizer
/// extends with engine selection.
///
/// `adjacency[v]` is the neighbor bitmask of vertex v; `n` <= 31 vertices.
/// The callback receives (csg, cmp) bitmasks.
void EnumerateCsgCmpPairs(
    const std::vector<uint32_t>& adjacency, int n,
    const std::function<void(uint32_t, uint32_t)>& emit);

/// Number of connected subgraphs of the graph (used by tests and to size
/// planning-effort estimates).
int CountConnectedSubgraphs(const std::vector<uint32_t>& adjacency, int n);

}  // namespace ires::sql

#endif  // IRES_SQL_DPCCP_H_
