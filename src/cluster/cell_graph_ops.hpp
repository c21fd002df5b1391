// Shared cell-graph primitives (DESIGN §12, §14).
//
// The cell-graph formulation bins points into square cells of side
// Eps/(2*sqrt(2)) with the origin fixed at (0,0): the cell diagonal is
// Eps/2, so every pair of points sharing a cell is mutually within Eps,
// and a cell's membership never depends on which other points exist (a
// partition boundary never shifts it). Two consequences drive the
// cell-graph cluster phase:
//   * a cell holding >= MinPts points makes every one of its points a
//     core point wholesale — the strict generalization of the paper's
//     dense-box rule (§3.2.3);
//   * all core points of one cell belong to one cluster outright, so
//     clusters form by connecting *cells*: only cells within
//     kCellGraphRings Chebyshev distance can contribute an Eps-close
//     core pair.
//
// The batch cell-graph cluster path (gpu/mrscan_gpu.cpp, over an
// index::Grid) and the long-lived clustering service (src/serve, over a
// MutableCellGrid) connect clusters the same way: they walk the same
// kRingOffsets table, and link two cells when a bichromatic closest-pair
// test over their core points finds a pair within Eps. The test itself —
// early-exiting at the first Eps-close pair, charging one op per
// distance computed — lives here so both consumers provably run the
// identical kernel.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "geometry/bbox.hpp"
#include "geometry/cell.hpp"
#include "geometry/point.hpp"

namespace mrscan::cluster {

/// Cell side for the cell-graph formulation: Eps / (2 * sqrt(2)), i.e. a
/// cell diagonal of Eps/2.
inline double cell_graph_side(double eps) {
  return eps * 0.3535533905932738;  // 1 / (2 * sqrt(2))
}

/// Cells at Chebyshev distance d have boxes at least (d-1) * side apart;
/// with side Eps/(2*sqrt(2)) the largest d whose corner gap
/// sqrt(2)*(d-1)*side can still be <= Eps is 3.
inline constexpr std::int32_t kCellGraphRings = 3;

/// Cells within Chebyshev distance kCellGraphRings of a cell, excluding
/// the cell itself: 48, one bit each in a 64-bit mask.
inline constexpr int kRingCells =
    (2 * kCellGraphRings + 1) * (2 * kCellGraphRings + 1) - 1;
static_assert(kRingCells <= 64);

/// The ring-3 offsets in geom::for_each_neighbor_within order (dy outer,
/// dx inner). The order is point-symmetric, so the offset pointing back
/// from neighbour k to the cell is kRingCells - 1 - k.
inline constexpr std::array<geom::CellKey, kRingCells> kRingOffsets = [] {
  std::array<geom::CellKey, kRingCells> offsets{};
  int k = 0;
  for (std::int32_t dy = -kCellGraphRings; dy <= kCellGraphRings; ++dy) {
    for (std::int32_t dx = -kCellGraphRings; dx <= kCellGraphRings; ++dx) {
      if (dx == 0 && dy == 0) continue;
      offsets[k++] = geom::CellKey{dx, dy};
    }
  }
  return offsets;
}();

inline constexpr int reverse_offset(int k) { return kRingCells - 1 - k; }

/// Squared gap between two boxes (0 for touching/overlapping): the
/// Eps-reachability prefilter for a cell-pair connection — when the gap
/// between the cells' core-point bounding boxes exceeds Eps, no core
/// pair can link them and the closest-pair test is skipped entirely.
inline double box_gap2(const geom::BBox& a, const geom::BBox& b) {
  const double gx = std::max({0.0, a.min_x - b.max_x, b.min_x - a.max_x});
  const double gy = std::max({0.0, a.min_y - b.max_y, b.min_y - a.max_y});
  return gx * gx + gy * gy;
}

/// Bichromatic closest-pair Eps test: true when some cross pair from the
/// two point sets is within Eps (squared threshold `eps2`), early-exiting
/// at the first hit. `a(i)` / `b(j)` return the i-th / j-th point of each
/// side; every distance computed adds one to `ops` (the cost-model
/// charge). Scan order is (i, j) row-major, so the op count for a given
/// pair of sets is deterministic.
template <typename PointAtA, typename PointAtB>
bool bcp_within_eps(std::size_t count_a, std::size_t count_b, PointAtA&& a,
                    PointAtB&& b, double eps2, std::uint64_t& ops) {
  for (std::size_t i = 0; i < count_a; ++i) {
    const geom::Point& pa = a(i);
    for (std::size_t j = 0; j < count_b; ++j) {
      ++ops;
      if (geom::dist2(pa, b(j)) <= eps2) return true;
    }
  }
  return false;
}

}  // namespace mrscan::cluster
