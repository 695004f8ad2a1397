#include "spanner/ldtg.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_set>

#include "geometry/delaunay.hpp"
#include "graph/id_slot_index.hpp"
#include "spanner/udg.hpp"

namespace glr::spanner {

namespace {

/// Canonical 64-bit key for an undirected edge between global node ids.
[[nodiscard]] std::uint64_t edgeKey(int u, int v) {
  const auto lo = static_cast<std::uint32_t>(std::min(u, v));
  const auto hi = static_cast<std::uint32_t>(std::max(u, v));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

/// Delaunay edge set of a subset of global nodes, keyed by global ids.
[[nodiscard]] std::unordered_set<std::uint64_t> localDelaunayEdges(
    const std::vector<geom::Point2>& positions,
    const std::vector<int>& members) {
  std::unordered_set<std::uint64_t> out;
  std::vector<geom::Point2> pts;
  pts.reserve(members.size());
  for (int id : members) pts.push_back(positions[id]);
  const auto dt = geom::Delaunay::build(pts);
  for (const auto& [a, b] : dt.edges()) {
    out.insert(edgeKey(members[a], members[b]));
  }
  // Map duplicate-position members onto their canonical representative's
  // edges so membership tests by global id still succeed.
  for (std::size_t i = 0; i < members.size(); ++i) {
    const int canon = dt.canonicalIndex(static_cast<int>(i));
    if (canon != static_cast<int>(i)) {
      out.insert(edgeKey(members[i], members[canon]));
    }
  }
  return out;
}

}  // namespace

graph::Graph buildLdtg(const std::vector<geom::Point2>& positions,
                       double radius, int k, LdtgRule rule) {
  const std::size_t n = positions.size();
  const graph::Graph udg = buildUnitDiskGraph(positions, radius);

  // Per-node k-hop member lists and local Delaunay edge sets.
  std::vector<std::vector<int>> kHood(n);
  std::vector<std::unordered_set<std::uint64_t>> dtEdges(n);
  std::vector<std::unordered_set<int>> kHoodSet(n);
  for (std::size_t u = 0; u < n; ++u) {
    auto members = kHopNeighbors(udg, static_cast<int>(u), k);
    members.push_back(static_cast<int>(u));
    std::sort(members.begin(), members.end());
    kHood[u] = members;
    kHoodSet[u].insert(members.begin(), members.end());
    dtEdges[u] = localDelaunayEdges(positions, members);
  }

  graph::Graph out{n};
  for (const auto& [u, v] : udg.edges()) {
    const std::uint64_t key = edgeKey(u, v);
    if (!dtEdges[u].contains(key) || !dtEdges[v].contains(key)) continue;
    if (rule == LdtgRule::PaperWitness) {
      bool vetoed = false;
      // Witnesses are the 1-hop neighbors of either endpoint that can see
      // both endpoints in their own k-hop neighborhood.
      for (int endpoint : {u, v}) {
        for (int w : udg.neighbors(endpoint)) {
          if (w == u || w == v) continue;
          if (!kHoodSet[w].contains(u) || !kHoodSet[w].contains(v)) continue;
          if (!dtEdges[w].contains(key)) {
            vetoed = true;
            break;
          }
        }
        if (vetoed) break;
      }
      if (vetoed) continue;
    }
    out.addEdge(u, v);
  }
  return out;
}

namespace {

/// One witness's view: the subset of the local point set it can see and
/// the local-view -> witness-local index map, gathered once per call and
/// shared by every candidate edge the witness vets. Pooled so steady-state
/// route checks reuse the storage.
struct WitnessView {
  std::vector<geom::Point2> pts;
  std::vector<int> localOf;  // local-view index -> witness-local; -1 absent
};

/// Reused workspace for localSpannerNeighbors: the GLR route check runs it
/// on every check interval for every node. Persisting the point buffers,
/// the witness views and the Delaunay result objects (rebuilt in place via
/// Delaunay::buildInto) makes the steady-state spanner path allocation-free
/// apart from the returned neighbor list.
struct SpannerScratch {
  std::vector<int> ids;
  std::vector<geom::Point2> pts;
  std::vector<char> oneHop;
  std::vector<std::size_t> candidates;
  geom::Delaunay dt;
  geom::Delaunay witnessDt;  // a witness view, when its edge test ties

  // Per-call witness-view cache: witnessSlot[wi] is the pool slot holding
  // witness wi's visible set (-1 = not gathered yet this call). The visible
  // set depends only on the witness, never on the candidate under test, so
  // reuse is exact.
  std::vector<WitnessView> witnessPool;
  std::vector<int> witnessSlot;
  std::size_t witnessUsed = 0;

  // Local-view slot of each gathered id; dedups `known` without a per-call
  // hash map.
  graph::IdSlotIndex slotOf;
};

SpannerScratch& spannerScratch() {
  static thread_local SpannerScratch s;
  return s;
}

/// Bit-level double equality: the memo below must hit only when every input
/// is *identical to the bits*, so value equality (which conflates +0/-0 and
/// rejects NaN == NaN) is not the right predicate.
[[nodiscard]] bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Memoised (inputs -> result) entry for one computing node. The full input
/// is retained and compared bit-for-bit on lookup, so a hit can never alias
/// two distinct neighborhoods (no hash-collision risk).
struct SpannerMemo {
  bool valid = false;
  bool witnessRule = false;
  double radius = 0.0;
  geom::Point2 selfPos;
  std::vector<KnownNode> known;
  std::vector<int> result;
};

struct SpannerMemoCache {
  std::vector<SpannerMemo> byId;  // indexed by selfId (dense, >= 0)
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t witnessBuilds = 0;
};

SpannerMemoCache& spannerMemoCache() {
  static thread_local SpannerMemoCache c;
  return c;
}

[[nodiscard]] bool memoMatches(const SpannerMemo& m, geom::Point2 selfPos,
                               const std::vector<KnownNode>& known,
                               double radius, bool witnessRule) {
  if (!m.valid || m.witnessRule != witnessRule ||
      !sameBits(m.radius, radius) || !sameBits(m.selfPos.x, selfPos.x) ||
      !sameBits(m.selfPos.y, selfPos.y) || m.known.size() != known.size()) {
    return false;
  }
  for (std::size_t i = 0; i < known.size(); ++i) {
    const KnownNode& a = m.known[i];
    const KnownNode& b = known[i];
    if (a.id != b.id || a.oneHop != b.oneHop || !sameBits(a.pos.x, b.pos.x) ||
        !sameBits(a.pos.y, b.pos.y)) {
      return false;
    }
  }
  return true;
}

}  // namespace

SpannerCacheStats localSpannerCacheStats() {
  const SpannerMemoCache& c = spannerMemoCache();
  return {c.hits, c.misses, c.witnessBuilds};
}

void resetLocalSpannerCache() {
  SpannerMemoCache& c = spannerMemoCache();
  c.byId.clear();
  c.byId.shrink_to_fit();
  c.hits = 0;
  c.misses = 0;
  c.witnessBuilds = 0;
}

std::vector<int> localSpannerNeighbors(int selfId, geom::Point2 selfPos,
                                       const std::vector<KnownNode>& known,
                                       double radius, bool applyWitnessRule) {
  // Memo fast path: while a node's gathered knowledge sits still between
  // route checks (the common steady state), the previous answer is returned
  // without touching any geometry. The guard compares every input bit for
  // bit, so a hit is exactly the recomputation it skips.
  SpannerMemoCache& memoCache = spannerMemoCache();
  SpannerMemo* memo = nullptr;
  if (selfId >= 0) {
    const auto mi = static_cast<std::size_t>(selfId);
    if (memoCache.byId.size() <= mi) memoCache.byId.resize(mi + 1);
    memo = &memoCache.byId[mi];
    if (memoMatches(*memo, selfPos, known, radius, applyWitnessRule)) {
      ++memoCache.hits;
      return memo->result;
    }
    ++memoCache.misses;
  }
  const auto memoise = [&](const std::vector<int>& result) {
    if (memo == nullptr) return;
    memo->valid = true;
    memo->witnessRule = applyWitnessRule;
    memo->radius = radius;
    memo->selfPos = selfPos;
    memo->known = known;
    memo->result = result;
  };

  const double r2 = radius * radius;
  SpannerScratch& s = spannerScratch();

  // Assemble the local point set: self first, then known nodes (dedup ids).
  s.slotOf.clear();
  s.slotOf.insert(selfId, 0);
  s.ids.assign(1, selfId);
  s.pts.assign(1, selfPos);
  s.oneHop.assign(1, 1);
  for (const KnownNode& kn : known) {
    if (s.slotOf.find(kn.id) >= 0) continue;
    s.slotOf.insert(kn.id, static_cast<int>(s.ids.size()));
    s.ids.push_back(kn.id);
    s.pts.push_back(kn.pos);
    s.oneHop.push_back(kn.oneHop ? 1 : 0);
  }
  if (s.ids.size() < 2) {
    memoise({});
    return {};
  }

  // Delaunay of the whole local view; candidates are edges incident to self
  // whose other endpoint is a direct neighbor within range.
  geom::Delaunay::buildInto(s.dt, s.pts);
  s.candidates.clear();
  for (int nb : s.dt.neighbors(s.dt.canonicalIndex(0))) {
    const auto i = static_cast<std::size_t>(nb);
    if (i == 0 || !s.oneHop[i]) continue;
    if (geom::dist2(selfPos, s.pts[i]) > r2) continue;
    s.candidates.push_back(i);
  }

  std::vector<int> accepted;
  accepted.reserve(s.candidates.size());
  if (!applyWitnessRule) {
    for (std::size_t i : s.candidates) accepted.push_back(s.ids[i]);
    std::sort(accepted.begin(), accepted.end());
    memoise(accepted);
    return accepted;
  }

  // Witness rule, evaluated on the knowledge this node actually has: every
  // 1-hop neighbor w that (locally) sees both self and the candidate must
  // also keep the edge in the Delaunay triangulation of w's visible
  // neighborhood. Delaunay::edgeStatus answers that for the exact
  // triangulation buildInto would make, in one scan of w's view. The view
  // is triangulated only when the scan ties: cocircular points leave the
  // edge to insertion order, which continuous mobility never produces.
  s.witnessSlot.assign(s.ids.size(), -1);
  s.witnessUsed = 0;
  const auto witnessView = [&](std::size_t wi) -> const WitnessView& {
    int slot = s.witnessSlot[wi];
    if (slot >= 0) return s.witnessPool[static_cast<std::size_t>(slot)];
    slot = static_cast<int>(s.witnessUsed++);
    if (s.witnessPool.size() < s.witnessUsed) s.witnessPool.emplace_back();
    s.witnessSlot[wi] = slot;
    WitnessView& view = s.witnessPool[static_cast<std::size_t>(slot)];
    const geom::Point2 wPos = s.pts[wi];
    view.pts.clear();
    view.localOf.assign(s.ids.size(), -1);
    for (std::size_t x = 0; x < s.ids.size(); ++x) {
      if (geom::dist2(s.pts[x], wPos) <= r2) {
        view.localOf[x] = static_cast<int>(view.pts.size());
        view.pts.push_back(s.pts[x]);
      }
    }
    return view;
  };
  const auto witnessKeeps = [&](const WitnessView& view, int selfLocal,
                                int vLocal) {
    const geom::EdgeStatus status =
        geom::Delaunay::edgeStatus(view.pts, selfLocal, vLocal);
    if (status != geom::EdgeStatus::Tie) {
      return status == geom::EdgeStatus::Edge;
    }
    geom::Delaunay::buildInto(s.witnessDt, view.pts);
    ++memoCache.witnessBuilds;
    return s.witnessDt.hasEdge(s.witnessDt.canonicalIndex(selfLocal),
                               s.witnessDt.canonicalIndex(vLocal));
  };

  for (std::size_t vi : s.candidates) {
    const geom::Point2 vPos = s.pts[vi];
    bool vetoed = false;
    for (std::size_t wi = 1; wi < s.ids.size() && !vetoed; ++wi) {
      if (wi == vi || !s.oneHop[wi]) continue;
      const geom::Point2 wPos = s.pts[wi];
      // w's neighborhood as visible from self's knowledge.
      if (geom::dist2(wPos, selfPos) > r2 || geom::dist2(wPos, vPos) > r2) {
        continue;  // witness cannot see both endpoints
      }
      const WitnessView& view = witnessView(wi);
      const int selfLocal = view.localOf[0];
      const int vLocal = view.localOf[vi];
      if (selfLocal >= 0 && vLocal >= 0 &&
          !witnessKeeps(view, selfLocal, vLocal)) {
        vetoed = true;
      }
    }
    if (!vetoed) accepted.push_back(s.ids[vi]);
  }
  std::sort(accepted.begin(), accepted.end());
  memoise(accepted);
  return accepted;
}

}  // namespace glr::spanner
