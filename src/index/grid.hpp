// Uniform Eps x Eps grid index over a point set.
//
// Cells are exactly Eps on a side, so the Eps-neighbourhood of any point is
// contained in its cell's 3x3 neighbourhood — the property both the
// partitioner's shadow regions (§3.1.1) and the merge algorithm's per-cell
// representative points (§3.3.1) rely on.
//
// Storage is CSR-style: points are bucketed by cell code, cells are kept
// sorted by code, and per-cell point index lists are contiguous.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "geometry/cell.hpp"
#include "geometry/point.hpp"
#include "index/query_scratch.hpp"

namespace mrscan::index {

class Grid {
 public:
  /// Build over `points` (indices into this span are what queries return).
  /// The span must outlive the Grid.
  Grid(geom::GridGeometry geometry, std::span<const geom::Point> points);

  const geom::GridGeometry& geometry() const { return geometry_; }
  std::size_t point_count() const { return points_.size(); }
  std::size_t cell_count() const { return codes_.size(); }

  /// Sorted, de-duplicated cell codes of all non-empty cells.
  std::span<const std::uint64_t> codes() const { return codes_; }

  bool has_cell(geom::CellKey key) const;

  /// Indices (into the original span) of points in `key`'s cell; empty span
  /// when the cell has no points.
  std::span<const std::uint32_t> points_in(geom::CellKey key) const;

  /// Number of points in `key`'s cell.
  std::size_t count_in(geom::CellKey key) const {
    return points_in(key).size();
  }

  /// Visit indices of every point within `radius` of `p` (inclusive). The
  /// scan covers ceil(radius / cell_size) rings of cells around p's cell —
  /// the classic 3x3 scan is the radius <= cell_size case — so any radius
  /// is answered exactly instead of silently dropping neighbours beyond
  /// the first ring. A callback returning bool may stop the scan early by
  /// returning false; `ops` (when non-null) accumulates the distance tests
  /// performed, the work unit the virtual GPU's cost model charges for.
  template <typename Fn>
  void for_each_in_radius(const geom::Point& p, double radius, Fn&& fn,
                          std::uint64_t* ops = nullptr) const {
    const double r2 = radius * radius;
    const geom::CellKey c = geometry_.cell_of(p);
    const auto rings = static_cast<std::int32_t>(
        std::ceil(radius / geometry_.cell_size));
    std::uint64_t work = 0;
    bool stop = false;
    for (std::int32_t dy = -rings; dy <= rings && !stop; ++dy) {
      for (std::int32_t dx = -rings; dx <= rings && !stop; ++dx) {
        for (std::uint32_t idx :
             points_in(geom::CellKey{c.ix + dx, c.iy + dy})) {
          ++work;
          if (geom::dist2(p, points_[idx]) > r2) continue;
          if constexpr (std::is_void_v<
                            std::invoke_result_t<Fn&, std::uint32_t>>) {
            fn(idx);
          } else {
            if (!fn(idx)) {
              stop = true;
              break;
            }
          }
        }
      }
    }
    if (ops) *ops += work;
  }

  /// Eps-neighbourhood size of p, with early exit once `at_least` neighbours
  /// are seen (0 = count all). The point itself counts as its own neighbour
  /// when it is a member of the indexed set, matching classic DBSCAN.
  /// `ops` as in for_each_in_radius.
  std::size_t count_in_radius(const geom::Point& p, double radius,
                              std::size_t at_least = 0,
                              std::uint64_t* ops = nullptr) const;

  /// Collect neighbour indices into `scratch.results` (cleared first) and
  /// return them as a span, valid until the next query through `scratch`.
  /// Grid traversal needs no stack; the scratch supplies the reusable
  /// result buffer so the query path stays allocation-free once warm, the
  /// same engine contract as KDTree.
  std::span<const std::uint32_t> radius_query(
      const geom::Point& p, double radius, QueryScratch& scratch,
      std::uint64_t* ops = nullptr) const {
    auto& out = scratch.results;
    out.clear();
    for_each_in_radius(
        p, radius, [&](std::uint32_t idx) { out.push_back(idx); }, ops);
    return out;
  }

  /// Batched collection over point indices into the indexed span:
  /// fn(q, neighbors, ops) per query, in order; neighbors borrows
  /// scratch.results.
  template <typename Fn>
  void radius_query_many(std::span<const std::uint32_t> queries,
                         double radius, QueryScratch& scratch,
                         Fn&& fn) const {
    for (std::size_t q = 0; q < queries.size(); ++q) {
      std::uint64_t ops = 0;
      const auto neighbors =
          radius_query(points_[queries[q]], radius, scratch, &ops);
      fn(q, neighbors, ops);
    }
  }

 private:
  std::size_t cell_slot(geom::CellKey key) const;  // npos when absent

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  geom::GridGeometry geometry_;
  std::span<const geom::Point> points_;
  std::vector<std::uint64_t> codes_;    // sorted cell codes
  std::vector<std::uint32_t> offsets_;  // size cells+1
  std::vector<std::uint32_t> order_;    // point indices grouped by cell
};

}  // namespace mrscan::index
