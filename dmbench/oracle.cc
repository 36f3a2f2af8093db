// Independent answer check. The reference answers are recomputed by
// brute force from the in-memory PmTree the store was built from; no
// R*-tree, heap, codec, buffer pool or router is involved.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_set>

#include "bench.h"

namespace dmbench {

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h *= 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 31);
}

std::string Describe(const char* what, size_t expected, size_t got) {
  return std::string(what) + ": expected " + std::to_string(expected) +
         " vertices, got " + std::to_string(got);
}

}  // namespace

Fingerprint FingerprintOf(const dm::DmQueryResult& r) {
  Fingerprint f;
  f.vertices = static_cast<int64_t>(r.vertices.size());
  f.triangles = static_cast<int64_t>(r.triangles.size());
  uint64_t h = 1469598103934665603ULL;
  for (dm::VertexId v : r.vertices) h = Mix(h, static_cast<uint64_t>(v));
  for (const dm::Triangle& tri : r.triangles) {
    for (int i = 0; i < 3; ++i) h = Mix(h, static_cast<uint64_t>(tri[i]));
  }
  f.hash = h;
  return f;
}

Oracle::Oracle(
    const dm::PmTree& tree,
    const std::vector<std::pair<dm::VertexId, dm::VertexId>>& base_edges)
    : tree_(tree), bounds_(tree.bounds()) {
  const auto leaves = static_cast<size_t>(tree.num_leaves());
  adj_offsets_.assign(leaves + 1, 0);
  for (const auto& [a, b] : base_edges) {
    ++adj_offsets_[static_cast<size_t>(a) + 1];
    ++adj_offsets_[static_cast<size_t>(b) + 1];
  }
  for (size_t i = 0; i < leaves; ++i) adj_offsets_[i + 1] += adj_offsets_[i];
  adj_.resize(static_cast<size_t>(adj_offsets_[leaves]));
  std::vector<int64_t> fill(adj_offsets_.begin(), adj_offsets_.end() - 1);
  for (const auto& [a, b] : base_edges) {
    adj_[static_cast<size_t>(fill[static_cast<size_t>(a)]++)] = b;
    adj_[static_cast<size_t>(fill[static_cast<size_t>(b)]++)] = a;
  }
  anc_.assign(leaves, dm::kInvalidVertex);

  const auto n = static_cast<double>(tree.num_nodes());
  grid_ = std::max(1, static_cast<int>(std::sqrt(n / 32.0)));
  cells_.resize(static_cast<size_t>(grid_) * static_cast<size_t>(grid_));
  auto cell = [&](double v, double lo, double extent) {
    const int c = extent > 0 ? static_cast<int>((v - lo) / extent * grid_) : 0;
    return std::clamp(c, 0, grid_ - 1);
  };
  for (const dm::PmNode& node : tree.nodes()) {
    const int cx = cell(node.pos.x, bounds_.lo_x, bounds_.width());
    const int cy = cell(node.pos.y, bounds_.lo_y, bounds_.height());
    cells_[static_cast<size_t>(cy) * grid_ + cx].push_back(node.id);
  }
}

template <typename Fn>
void Oracle::ForEachInRoi(const dm::Rect& roi, const Fn& fn) const {
  auto cell = [&](double v, double lo, double extent) {
    const int c = extent > 0 ? static_cast<int>((v - lo) / extent * grid_) : 0;
    return std::clamp(c, 0, grid_ - 1);
  };
  const int x0 = cell(roi.lo_x, bounds_.lo_x, bounds_.width());
  const int x1 = cell(roi.hi_x, bounds_.lo_x, bounds_.width());
  const int y0 = cell(roi.lo_y, bounds_.lo_y, bounds_.height());
  const int y1 = cell(roi.hi_y, bounds_.lo_y, bounds_.height());
  for (int cy = y0; cy <= y1; ++cy) {
    for (int cx = x0; cx <= x1; ++cx) {
      for (dm::VertexId id : cells_[static_cast<size_t>(cy) * grid_ + cx]) {
        const dm::PmNode& n = tree_.node(id);
        if (roi.Contains(n.pos.x, n.pos.y)) fn(n);
      }
    }
  }
}

std::vector<dm::VertexId> Oracle::Uniform(const dm::Rect& roi,
                                          double e) const {
  // Q(M, r, e): the nodes alive at e whose position lies in r.
  std::vector<dm::VertexId> out;
  ForEachInRoi(roi, [&](const dm::PmNode& n) {
    if (n.AliveAt(e)) out.push_back(n.id);
  });
  std::sort(out.begin(), out.end());
  return out;
}

template <typename Req>
std::vector<dm::VertexId> Oracle::Refine(const dm::Rect& roi, double e_top,
                                         const Req& required) const {
  // Position-restricted refinement: start from the cut at e_top inside
  // the ROI and split every node coarser than the required LOD at its
  // position into those children that lie in the ROI; a node whose
  // children all fall outside stays (the range query cannot see them).
  std::vector<dm::VertexId> out;
  std::vector<dm::VertexId> work;
  ForEachInRoi(roi, [&](const dm::PmNode& n) {
    if (n.AliveAt(e_top)) work.push_back(n.id);
  });
  while (!work.empty()) {
    const dm::PmNode& n = tree_.node(work.back());
    work.pop_back();
    if (n.e_low > required(n.pos) && !n.is_leaf()) {
      bool any = false;
      for (dm::VertexId c : {n.child1, n.child2}) {
        const dm::PmNode& cn = tree_.node(c);
        if (roi.Contains(cn.pos.x, cn.pos.y)) {
          work.push_back(c);
          any = true;
        }
      }
      if (!any) out.push_back(n.id);
      continue;
    }
    out.push_back(n.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string Oracle::CheckMultiBase(const std::vector<dm::VertexId>& reference,
                                   const std::vector<dm::VertexId>& got) const {
  // The stitched multi-base cut may refine one generation further than
  // the single-base reference near slice boundaries. It must agree up
  // to the refinement relation, with bounded disagreement.
  const std::unordered_set<dm::VertexId> ref(reference.begin(),
                                             reference.end());
  const std::unordered_set<dm::VertexId> mb(got.begin(), got.end());
  std::unordered_set<dm::VertexId> mb_ancestors;
  int64_t diff = 0;
  for (dm::VertexId v : got) {
    bool under_ref = ref.count(v) > 0;
    if (!under_ref) ++diff;
    for (dm::VertexId p = tree_.node(v).parent; p != dm::kInvalidVertex;
         p = tree_.node(p).parent) {
      if (!under_ref && ref.count(p) > 0) under_ref = true;
      if (!mb_ancestors.insert(p).second && under_ref) break;
    }
    if (!under_ref) {
      return "multi-base vertex " + std::to_string(v) +
             " refines no vertex of the reference cut";
    }
  }
  for (dm::VertexId v : reference) {
    if (mb.count(v) > 0) continue;
    ++diff;
    if (mb_ancestors.count(v) == 0) {
      return "reference vertex " + std::to_string(v) +
             " is not covered by the multi-base cut";
    }
  }
  const auto limit = static_cast<int64_t>(reference.size()) / 10 + 4;
  if (diff > limit) {
    return "multi-base cut differs from the reference in " +
           std::to_string(diff) + " vertices (limit " + std::to_string(limit) +
           ")";
  }
  return "";
}

std::vector<dm::VertexId> Oracle::Reference(const dm::QueryRequest& q) const {
  switch (q.kind) {
    case dm::QueryRequest::Kind::kUniform:
      return Uniform(q.roi, q.e);
    case dm::QueryRequest::Kind::kView: {
      const dm::ViewQuery& v = q.view;
      return Refine(v.roi, v.e_max, [&v](const dm::Point3& p) {
        return std::max(v.RequiredE(p.x, p.y), v.e_min);
      });
    }
    case dm::QueryRequest::Kind::kPerspective: {
      const dm::PerspectiveQuery& p = q.perspective;
      double lo = 0;
      double hi = 0;
      p.Range(&lo, &hi);
      return Refine(p.roi, hi, [&p](const dm::Point3& pos) {
        return p.RequiredE(pos.x, pos.y);
      });
    }
  }
  return {};
}

std::string Oracle::Check(const dm::QueryRequest& q,
                          const dm::DmQueryResult& r) const {
  const auto expected = Reference(q);
  if (q.kind == dm::QueryRequest::Kind::kView && q.multi_base) {
    return CheckMultiBase(expected, r.vertices);
  }
  if (expected != r.vertices) {
    return Describe(KindName(q), expected.size(), r.vertices.size());
  }
  return "";
}

bool Oracle::Folded(const std::vector<dm::VertexId>& cut) const {
  // Quotient edges: map every leaf under a cut node to that node, then
  // every base edge between two different cut nodes is a cut edge.
  std::vector<dm::VertexId> touched;
  std::vector<dm::VertexId> stack;
  for (dm::VertexId s : cut) {
    stack.push_back(s);
    while (!stack.empty()) {
      const dm::PmNode& n = tree_.node(stack.back());
      stack.pop_back();
      if (n.is_leaf()) {
        anc_[static_cast<size_t>(n.id)] = s;
        touched.push_back(n.id);
      } else {
        stack.push_back(n.child1);
        stack.push_back(n.child2);
      }
    }
  }
  std::vector<std::pair<dm::VertexId, dm::VertexId>> edges;
  for (dm::VertexId leaf : touched) {
    const dm::VertexId a = anc_[static_cast<size_t>(leaf)];
    const auto lo = adj_offsets_[static_cast<size_t>(leaf)];
    const auto hi = adj_offsets_[static_cast<size_t>(leaf) + 1];
    for (auto k = lo; k < hi; ++k) {
      const dm::VertexId b = anc_[static_cast<size_t>(adj_[static_cast<size_t>(k)])];
      if (b != dm::kInvalidVertex && a < b) edges.emplace_back(a, b);
    }
  }
  for (dm::VertexId leaf : touched) anc_[static_cast<size_t>(leaf)] = dm::kInvalidVertex;
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  if (edges.size() < 2) return false;

  // Proper crossings between edges without a shared end, found through a
  // uniform grid over the edges' bounding boxes.
  double lo_x = 1e300, lo_y = 1e300, hi_x = -1e300, hi_y = -1e300, len = 0;
  for (const auto& [a, b] : edges) {
    const dm::Point3& p = tree_.node(a).pos;
    const dm::Point3& q = tree_.node(b).pos;
    lo_x = std::min({lo_x, p.x, q.x});
    lo_y = std::min({lo_y, p.y, q.y});
    hi_x = std::max({hi_x, p.x, q.x});
    hi_y = std::max({hi_y, p.y, q.y});
    len += std::hypot(q.x - p.x, q.y - p.y);
  }
  const double cell = std::max(
      {2.0 * len / static_cast<double>(edges.size()),
       (hi_x - lo_x) / 1024.0, (hi_y - lo_y) / 1024.0, 1e-9});
  const auto nx = static_cast<int64_t>((hi_x - lo_x) / cell) + 1;
  std::vector<std::pair<int64_t, uint32_t>> entries;  // (cell, edge)
  for (size_t i = 0; i < edges.size(); ++i) {
    const dm::Point3& p = tree_.node(edges[i].first).pos;
    const dm::Point3& q = tree_.node(edges[i].second).pos;
    const auto x0 = static_cast<int64_t>((std::min(p.x, q.x) - lo_x) / cell);
    const auto x1 = static_cast<int64_t>((std::max(p.x, q.x) - lo_x) / cell);
    const auto y0 = static_cast<int64_t>((std::min(p.y, q.y) - lo_y) / cell);
    const auto y1 = static_cast<int64_t>((std::max(p.y, q.y) - lo_y) / cell);
    for (int64_t y = y0; y <= y1; ++y) {
      for (int64_t x = x0; x <= x1; ++x) {
        entries.emplace_back(y * nx + x, static_cast<uint32_t>(i));
      }
    }
  }
  std::sort(entries.begin(), entries.end());
  auto orient = [](const dm::Point3& p, const dm::Point3& q,
                   const dm::Point3& r) {
    return (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x);
  };
  for (size_t i = 0; i < entries.size();) {
    size_t j = i;
    while (j < entries.size() && entries[j].first == entries[i].first) ++j;
    for (size_t a = i; a < j; ++a) {
      const auto& [u1, v1] = edges[entries[a].second];
      const dm::Point3& p1 = tree_.node(u1).pos;
      const dm::Point3& q1 = tree_.node(v1).pos;
      for (size_t b = a + 1; b < j; ++b) {
        const auto& [u2, v2] = edges[entries[b].second];
        if (u1 == u2 || u1 == v2 || v1 == u2 || v1 == v2) continue;
        const dm::Point3& p2 = tree_.node(u2).pos;
        const dm::Point3& q2 = tree_.node(v2).pos;
        const double o1 = orient(p1, q1, p2);
        const double o2 = orient(p1, q1, q2);
        const double o3 = orient(p2, q2, p1);
        const double o4 = orient(p2, q2, q1);
        if (((o1 > 0 && o2 < 0) || (o1 < 0 && o2 > 0)) &&
            ((o3 > 0 && o4 < 0) || (o3 < 0 && o4 > 0))) {
          return true;
        }
      }
    }
    i = j;
  }
  return false;
}

std::string CheckMesh(const dm::PmTree& tree, const dm::DmQueryResult& r) {
  const auto& vs = r.vertices;
  if (vs.empty()) return "empty mesh";
  if (r.positions.size() != vs.size()) return "positions not parallel to ids";
  for (size_t i = 0; i < vs.size(); ++i) {
    if (i > 0 && vs[i - 1] >= vs[i]) return "vertex ids not strictly sorted";
    if (vs[i] < 0 || vs[i] >= tree.num_nodes()) {
      return "vertex id " + std::to_string(vs[i]) + " out of range";
    }
    const dm::Point3& want = tree.node(vs[i]).pos;
    if (std::memcmp(&want, &r.positions[i], sizeof(want)) != 0) {
      return "position of vertex " + std::to_string(vs[i]) + " differs";
    }
  }
  std::vector<std::pair<dm::VertexId, dm::VertexId>> edges;
  edges.reserve(r.triangles.size() * 3);
  for (const dm::Triangle& t : r.triangles) {
    for (int i = 0; i < 3; ++i) {
      if (!std::binary_search(vs.begin(), vs.end(), t[i])) {
        return "triangle vertex " + std::to_string(t[i]) +
               " is not in the result";
      }
      dm::VertexId a = t[i];
      dm::VertexId b = t[(i + 1) % 3];
      if (a == b) return "degenerate triangle";
      if (a > b) std::swap(a, b);
      edges.emplace_back(a, b);
    }
  }
  std::sort(edges.begin(), edges.end());
  for (size_t i = 0; i + 2 < edges.size(); ++i) {
    if (edges[i] == edges[i + 2]) {
      return "edge " + std::to_string(edges[i].first) + "-" +
             std::to_string(edges[i].second) + " used by more than two "
             "triangles";
    }
  }
  return "";
}

}  // namespace dmbench
