// Input generators. Every LOD is a resolution fraction taken from the
// terrain's LOD ladder (the LOD whose uniform cut keeps that share of
// the points), never a fraction of the maximum LOD: QEM errors span
// orders of magnitude, so linear fractions of max_lod select cuts of a
// handful of vertices.
//
// Each generator draws candidates from the seed and keeps those the
// `accept` predicate admits (the workloads leave out inputs whose
// reference cut folds; see README.md), redrawing until the fixed
// composition is filled.

#include <algorithm>
#include <cmath>

#include "bench.h"
#include "common/rng.h"

namespace dmbench {

namespace {

constexpr double kPi = 3.14159265358979323846;
// Redraws per slot before a candidate is kept regardless (the answer
// check then reports it).
constexpr int kMaxDraws = 200;

dm::QueryRequest Uniform(const dm::Rect& roi, double e) {
  dm::QueryRequest q;
  q.kind = dm::QueryRequest::Kind::kUniform;
  q.roi = roi;
  q.e = e;
  return q;
}

dm::QueryRequest View(const dm::ViewQuery& v, bool multi_base) {
  dm::QueryRequest q;
  q.kind = dm::QueryRequest::Kind::kView;
  q.view = v;
  q.multi_base = multi_base;
  return q;
}

/// Viewer at `viewer`; the required LOD rises from the ladder LOD at
/// `near_fraction` at the viewer to the one at `far_fraction` at the
/// ROI's farthest corner.
dm::QueryRequest Perspective(const Terrain& t, const dm::Rect& roi,
                             dm::Point2 viewer, double near_fraction,
                             double far_fraction) {
  dm::QueryRequest q;
  q.kind = dm::QueryRequest::Kind::kPerspective;
  q.perspective.roi = roi;
  q.perspective.viewer = viewer;
  q.perspective.e_floor = t.Lod(near_fraction);
  q.perspective.e_cap = t.tree->max_lod();
  double far = 0;
  for (double cx : {roi.lo_x, roi.hi_x}) {
    for (double cy : {roi.lo_y, roi.hi_y}) {
      far = std::max(far, std::hypot(cx - viewer.x, cy - viewer.y));
    }
  }
  q.perspective.tolerance =
      std::max(0.0, t.Lod(far_fraction) - q.perspective.e_floor) /
      std::max(far, 1e-9);
  return q;
}

/// A view plane rising from the ladder LOD at `near_fraction` on the
/// ROI's low edge to the one at `far_fraction` on its high edge.
dm::ViewQuery LadderView(const Terrain& t, const dm::Rect& roi,
                         double near_fraction, double far_fraction,
                         bool along_y) {
  dm::ViewQuery v;
  v.roi = roi;
  v.e_min = t.Lod(near_fraction);
  v.e_max = std::max(v.e_min, t.Lod(far_fraction));
  v.gradient_along_y = along_y;
  return v;
}

/// Draws from `make` until `accept` admits a candidate.
template <typename Make>
dm::QueryRequest Draw(const Make& make, const Accept& accept,
                      int64_t* candidates) {
  dm::QueryRequest q;
  for (int i = 0; i < kMaxDraws; ++i) {
    q = make();
    ++*candidates;
    if (accept(q)) break;
  }
  return q;
}

}  // namespace

dm::Rect RoiAround(const dm::Rect& b, double area_fraction, double cx,
                   double cy) {
  const double side = std::sqrt(area_fraction * b.Area());
  const double w = std::min(side, b.width());
  const double h = std::min(side, b.height());
  const double x0 = std::clamp(cx - w / 2, b.lo_x, b.hi_x - w);
  const double y0 = std::clamp(cy - h / 2, b.lo_y, b.hi_y - h);
  return dm::Rect::Of(x0, y0, x0 + w, y0 + h);
}

const char* KindName(const dm::QueryRequest& q) {
  switch (q.kind) {
    case dm::QueryRequest::Kind::kUniform:
      return "uniform";
    case dm::QueryRequest::Kind::kView:
      return q.multi_base ? "multi_base" : "single_base";
    case dm::QueryRequest::Kind::kPerspective:
      return "perspective";
  }
  return "unknown";
}

std::vector<dm::QueryRequest> PaperColdRound(const Terrain& t, uint64_t seed,
                                             bool small, const Accept& accept,
                                             int64_t* candidates) {
  // The fig6/fig8 grid: every ROI size crossed with every LOD setting of
  // every query kind; the seed only places the ROIs (and orients the
  // view planes), so rounds of different seeds do the same mix of work.
  static constexpr double kRois[] = {0.01, 0.02, 0.05, 0.10, 0.15, 0.20};
  // Uniform cuts: the coarse half of fig6's LOD sweep.
  static constexpr double kUniformLods[] = {0.05, 0.02, 0.01, 0.005};
  // View planes as (near, far) ladder fractions, one decade apart.
  static constexpr std::pair<double, double> kViews[] = {
      {0.10, 0.010}, {0.05, 0.005}, {0.02, 0.002}};
  const int locations = small ? 1 : 4;
  dm::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  const dm::Rect& b = t.bounds();
  std::vector<dm::QueryRequest> round;
  for (double roi_frac : kRois) {
    auto place = [&] {
      return RoiAround(b, t.RoiArea(roi_frac), rng.Uniform(b.lo_x, b.hi_x),
                       rng.Uniform(b.lo_y, b.hi_y));
    };
    for (int l = 0; l < locations; ++l) {
      for (double lod : kUniformLods) {
        round.push_back(Draw([&] { return Uniform(place(), t.Lod(lod)); },
                             accept, candidates));
      }
      for (const auto& [near, far] : kViews) {
        for (bool multi : {false, true}) {
          round.push_back(Draw(
              [&] {
                return View(LadderView(t, place(), near, far,
                                       rng.NextBelow(2) == 0),
                            multi);
              },
              accept, candidates));
        }
      }
    }
  }
  return round;
}

dm::QueryRequest MultiBaseCanary(const Terrain& t) {
  // fig8's plane: e_min at the ladder's 50% cut, rising at half of
  // theta_max towards the dataset's maximum LOD, over the central 10%.
  const dm::Rect& b = t.bounds();
  const dm::Rect roi = RoiAround(b, t.RoiArea(0.10), (b.lo_x + b.hi_x) / 2,
                                 (b.lo_y + b.hi_y) / 2);
  return View(dm::ViewQuery::FromAngle(roi, t.Lod(0.5), 0.5,
                                       t.tree->max_lod(), true),
              true);
}

std::vector<dm::QueryRequest> FlythroughSession(const Terrain& t, int session,
                                                uint64_t seed, int frames,
                                                const Accept& accept,
                                                int64_t* candidates) {
  // A camera orbiting the crater centre, looking along its path. Session
  // k keeps its own fixed radius and direction, so every seed's sessions
  // cover the same rings of terrain in the same sense and a pass costs
  // the same I/O; the seed sets where on the ring each camera starts.
  // Each frame's ROI lies ahead of the camera and
  // overlaps the previous frame's by most of its area. Two frames in
  // three are perspective queries (viewer at the camera), the third a
  // multi-base view query. A frame the predicate refuses is skipped, so
  // the orbit stays closed and repeated passes see the same cache state
  // at every frame.
  static constexpr double kRadii[] = {0.22, 0.27};
  dm::Rng rng(seed * 0xD1B54A32D192ED03ULL + 7 + static_cast<uint64_t>(session));
  const dm::Rect& b = t.bounds();
  const double side = std::min(b.width(), b.height());
  const double cx = (b.lo_x + b.hi_x) / 2;
  const double cy = (b.lo_y + b.hi_y) / 2;
  const double radius = kRadii[session % 2] * side;
  const double phase = rng.Uniform(0, 2 * kPi);
  const double dir = session % 2 == 0 ? 1.0 : -1.0;
  const double area = t.RoiArea(0.08);
  const double look = 0.5 * std::sqrt(area) * side;
  std::vector<dm::QueryRequest> frames_out;
  frames_out.reserve(static_cast<size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    const double a = phase + dir * 2 * kPi * f / frames;
    const dm::Point2 cam{cx + radius * std::cos(a), cy + radius * std::sin(a)};
    // Heading: the orbit's tangent.
    const double hx = -dir * std::sin(a);
    const double hy = dir * std::cos(a);
    const dm::Rect roi =
        RoiAround(b, area, cam.x + look * hx, cam.y + look * hy);
    dm::QueryRequest q;
    if (f % 3 != 2) {
      q = Perspective(t, roi, cam, 0.10, 0.01);
    } else {
      const bool along_y = std::abs(hy) >= std::abs(hx);
      q = View(LadderView(t, roi, 0.10, 0.01, along_y), true);
    }
    ++*candidates;
    if (accept(q)) frames_out.push_back(q);
  }
  return frames_out;
}

std::vector<dm::QueryRequest> IndependentUsers(const Terrain& t, uint64_t seed,
                                               int count, const Accept& accept,
                                               int64_t* candidates) {
  // Users at independent random places, cycling through the four query
  // kinds; ROI sizes and ladder LODs cycle on a fixed pattern so every
  // seed asks for the same mix.
  static constexpr double kRois[] = {0.01, 0.02, 0.04};
  static constexpr double kLods[] = {0.10, 0.05, 0.02};
  dm::Rng rng(seed * 0xA24BAED4963EE407ULL + 3);
  const dm::Rect& b = t.bounds();
  std::vector<dm::QueryRequest> users;
  users.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double area = t.RoiArea(kRois[i % 3]);
    const double lod = kLods[(i / 3) % 3];
    const int kind = (i / 9) % 4;
    users.push_back(Draw(
        [&] {
          const dm::Rect roi = RoiAround(b, area, rng.Uniform(b.lo_x, b.hi_x),
                                         rng.Uniform(b.lo_y, b.hi_y));
          const bool along_y = rng.NextBelow(2) == 0;
          switch (kind) {
            case 0:
              return Uniform(roi, t.Lod(lod));
            case 1:
              return View(LadderView(t, roi, lod, lod / 10, along_y), false);
            case 2:
              return View(LadderView(t, roi, lod, lod / 10, along_y), true);
            default:
              return Perspective(
                  t, roi, dm::Point2{(roi.lo_x + roi.hi_x) / 2, roi.lo_y},
                  lod, lod / 10);
          }
        },
        accept, candidates));
  }
  return users;
}

}  // namespace dmbench
