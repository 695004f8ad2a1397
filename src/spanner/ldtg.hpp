#pragma once
/// \file ldtg.hpp
/// k-Local Delaunay Triangulation Graph (LDTG) — the paper's planar spanner.
///
/// Two constructions are provided:
///
///  * `LdtgRule::PaperWitness` — the paper's rule: a UDG link uv is accepted
///    iff uv is an edge of the Delaunay triangulation of N_k(u) (and of
///    N_k(v)), and every 1-hop witness w of u (and of v) that has both u and
///    v in its k-hop neighborhood also sees uv in the Delaunay triangulation
///    of N_k(w). This yields a planar graph directly, avoiding the separate
///    planarization step of Li et al.
///
///  * `LdtgRule::LDel` — Li/Calinescu/Wan LDel(k): uv accepted iff uv is in
///    the Delaunay triangulations of both N_k(u) and N_k(v) (no witnesses).
///    Kept as an ablation comparator; may be non-planar for k = 1.
///
/// `buildLdtg` is the *global analysis* builder (it uses true k-hop sets).
/// `localSpannerNeighbors` is the *distributed per-node* computation used by
/// the protocol agent: it consumes exactly the knowledge a node has gathered
/// from hello beacons (its <= k-hop neighbor positions) and returns the
/// node's spanner neighbors.

#include <cstdint>
#include <vector>

#include "geometry/point.hpp"
#include "graph/graph.hpp"

namespace glr::spanner {

enum class LdtgRule {
  PaperWitness,
  LDel,
};

/// Global LDTG over all positions (analysis/testing use).
[[nodiscard]] graph::Graph buildLdtg(
    const std::vector<geom::Point2>& positions, double radius, int k = 2,
    LdtgRule rule = LdtgRule::PaperWitness);

/// A node's local knowledge of one other node, as gathered from beacons.
struct KnownNode {
  int id = -1;
  geom::Point2 pos;
  /// True if this node is a direct (1-hop) neighbor of the computing node.
  bool oneHop = false;
};

/// Distributed per-node LDTG edge selection.
///
/// `selfId`/`selfPos` describe the computing node; `known` is its gathered
/// k-hop knowledge (positions may be slightly stale, exactly as in the
/// protocol). Returns ids of accepted spanner neighbors, sorted. With
/// `applyWitnessRule`, 1-hop witnesses veto edges that their locally visible
/// neighborhoods triangulate differently (paper rule); without, the node
/// keeps every local-Delaunay edge incident to itself (LDel-style).
///
/// Route checks repeat while neighborhoods sit still, so results are memoised
/// in a thread-local cache keyed by computing node and guarded by an *exact*
/// (bit-level) comparison of every input — a hit returns the previous answer
/// only when the function would recompute it verbatim, so caching is
/// bit-identical by construction. Within one computation, one Delaunay
/// triangulation of the whole local view yields the candidate edges; each
/// witness then vets a candidate with `geom::Delaunay::edgeStatus` on its
/// visible set, an exact one-scan test, and triangulates that set only when
/// the test ties (see `SpannerCacheStats::witnessBuilds`).
[[nodiscard]] std::vector<int> localSpannerNeighbors(
    int selfId, geom::Point2 selfPos, const std::vector<KnownNode>& known,
    double radius, bool applyWitnessRule = true);

/// Counters for the localSpannerNeighbors memo cache (thread-local).
struct SpannerCacheStats {
  std::uint64_t hits = 0;    // answered from the memo, no geometry run
  std::uint64_t misses = 0;  // recomputed (input changed or first check)
  /// Witness views triangulated because the one-scan edge test could not
  /// decide (a cocircular tie).
  std::uint64_t witnessBuilds = 0;
};
[[nodiscard]] SpannerCacheStats localSpannerCacheStats();

/// Drops every memoised entry and zeroes the counters (call between
/// scenarios/benchmark phases so retained entries never outlive a run).
void resetLocalSpannerCache();

}  // namespace glr::spanner
