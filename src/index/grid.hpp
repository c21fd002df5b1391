// Uniform grid over a point set: the one immutable cell-bucketing
// structure.
//
// With cells exactly Eps on a side, the Eps-neighbourhood of any point is
// contained in its cell's 3x3 neighbourhood — the property both the
// partitioner's shadow regions (§3.1.1) and the merge algorithm's per-cell
// representative points (§3.3.1) rely on. The cell-graph cluster path
// builds the same grid at side Eps/(2*sqrt(2)) (DESIGN §12), and the
// dense-box connection kernel buckets box centres in it at side 2*Eps.
//
// Storage is CSR-style: points are bucketed by cell code, cells are kept
// sorted by code, and each cell's point indices are contiguous and
// ascending. Iteration over cells and members is therefore deterministic
// by construction (DESIGN §8), and lookups are a binary search over the
// sorted codes — nothing is hashed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/cell.hpp"
#include "geometry/point.hpp"

namespace mrscan::index {

class Grid {
 public:
  static constexpr std::uint32_t kNoCell = 0xffffffffu;

  /// Bucket `points` into the geometry's cells. Members are reported as
  /// indices into this span; the grid keeps no reference to it.
  Grid(geom::GridGeometry geometry, std::span<const geom::Point> points);

  const geom::GridGeometry& geometry() const { return geometry_; }
  std::size_t point_count() const { return order_.size(); }
  std::size_t cell_count() const { return codes_.size(); }

  /// Sorted, de-duplicated cell codes of all non-empty cells: cell c (an
  /// ordinal in [0, cell_count())) has code codes()[c].
  std::span<const std::uint64_t> codes() const { return codes_; }

  /// Ordinal of the cell with this code, or kNoCell when it is empty.
  std::uint32_t find(std::uint64_t code) const;

  /// Indices (into the original span) of the points in cell ordinal c,
  /// ascending.
  std::span<const std::uint32_t> members(std::uint32_t c) const {
    return std::span<const std::uint32_t>(order_).subspan(
        offsets_[c], offsets_[c + 1] - offsets_[c]);
  }

  bool has_cell(geom::CellKey key) const {
    return find(geom::cell_code(key)) != kNoCell;
  }

  /// Points in `key`'s cell; empty span when the cell has no points.
  std::span<const std::uint32_t> points_in(geom::CellKey key) const {
    const std::uint32_t c = find(geom::cell_code(key));
    if (c == kNoCell) return {};
    return members(c);
  }

 private:
  geom::GridGeometry geometry_;
  std::vector<std::uint64_t> codes_;    // sorted cell codes
  std::vector<std::uint32_t> offsets_;  // size cells+1
  std::vector<std::uint32_t> order_;    // point indices grouped by cell
};

}  // namespace mrscan::index
