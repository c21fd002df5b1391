// The mutable Eps/(2*sqrt(2)) cell graph backing the serving path
// (DESIGN §14).
//
// Where the batch cell-graph path buckets a leaf once into an immutable
// index::Grid, this grid lives for the whole service lifetime and absorbs
// per-epoch inserts and removals. It keeps the invariants that make the
// cell-graph phase deterministic and exact:
//   * cell side is cluster::cell_graph_side(eps) with the origin fixed at
//     (0,0), so cell membership never shifts as points come and go;
//   * members are kept in ascending point-id order, so every scan over a
//     cell is deterministic and stable across epochs (ids are global,
//     not slot-dependent).
// Cells live in a flat array under a dense index, and each cell lists the
// indices of its allocated ring-3 neighbours, so neighbourhood scans are
// array reads. The code -> index hash map is consulted only when a cell
// is allocated or released and is never iterated (mrscan_analyze's
// unordered-iteration rule); every iteration surface is an index list the
// caller sorts. An index stays valid while its cell is occupied, and an
// emptied cell keeps its index until the owner release()s it, so the
// owner can retire the cell's graph state first.
//
// Besides its members, each cell carries the cell-graph state the
// service maintains across epochs: its core members, their fingerprint
// and bounding box, and the cached BCP outcomes towards its ring-3
// neighbours as two bitmasks over kRingOffsets. A parallel dense array
// holds the connected component of each core cell.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/cell_graph_ops.hpp"
#include "geometry/bbox.hpp"
#include "geometry/cell.hpp"
#include "geometry/point.hpp"

namespace mrscan::cluster {

class MutableCellGrid {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Member {
    geom::PointId id = 0;
    std::uint32_t slot = 0;
  };

  struct Cell {
    std::uint64_t code = 0;
    /// Index of the allocated cell at each ring offset, or kNone.
    std::array<std::uint32_t, kRingCells> ring{};
    /// Ascending point id; empty only between a removal that vacated the
    /// cell and its release().
    std::vector<Member> members;
    /// Owner slots of the core members (ascending id), their box, and an
    /// FNV fingerprint of their ids (meaningful when core_slots is not
    /// empty). The cell is a core cell when core_slots is not empty.
    std::vector<std::uint32_t> core_slots;
    std::uint64_t core_fp = 0;
    geom::BBox core_bbox;
    /// Bit k: the BCP test towards the core cell at ring offset k is
    /// cached (tested) and found a pair within Eps (linked).
    std::uint64_t tested = 0;
    std::uint64_t linked = 0;
  };

  explicit MutableCellGrid(double side) : side_(side) {}

  /// Whether p lies in a cell whose whole ring-3 neighbourhood has int32
  /// addresses: both coordinates finite and each cell index at least
  /// kCellGraphRings inside the int32 range. Only such points may enter
  /// the grid; key_of() is defined for them alone.
  bool addressable(const geom::Point& p) const {
    constexpr double kLo =
        std::numeric_limits<std::int32_t>::min() + kCellGraphRings;
    constexpr double kHi =
        std::numeric_limits<std::int32_t>::max() - kCellGraphRings;
    const double fx = std::floor(p.x / side_);
    const double fy = std::floor(p.y / side_);
    // NaN fails every comparison, so it is rejected here too.
    return fx >= kLo && fx <= kHi && fy >= kLo && fy <= kHi;
  }

  geom::CellKey key_of(const geom::Point& p) const {
    return geom::CellKey{
        static_cast<std::int32_t>(std::floor(p.x / side_)),
        static_cast<std::int32_t>(std::floor(p.y / side_))};
  }

  /// Insert a member into the cell at `key` (allocating the cell when it
  /// is new), keeping members sorted by point id. The id must not
  /// already be present in the cell. Returns the cell index.
  std::uint32_t insert(geom::CellKey key, geom::PointId id,
                       std::uint32_t slot);

  /// Remove the member with this id from cell `index`. A vacated cell
  /// keeps its index until release().
  void remove(std::uint32_t index, geom::PointId id);

  /// Return a vacated cell's index to the free list. Its graph state must
  /// already be retired (no core members, no cached edges, no component);
  /// the next cell allocated at this index reuses its vectors' capacity.
  void release(std::uint32_t index);

  /// Index of the allocated ring-3 neighbour of cell `index` at offset k,
  /// or kNone. A vacated-but-unreleased neighbour is allocated.
  std::uint32_t neighbor(std::uint32_t index, int k) const {
    return cells_[index].ring[k];
  }

  Cell& cell(std::uint32_t index) { return cells_[index]; }
  const Cell& cell(std::uint32_t index) const { return cells_[index]; }

  std::span<const Member> members(std::uint32_t index) const {
    return cells_[index].members;
  }

  /// Connected component of a core cell, kNone otherwise. Held in its own
  /// dense array rather than in Cell: the per-epoch label pass reads it
  /// once per live point, in cell-random order.
  std::uint32_t component(std::uint32_t index) const {
    return components_[index];
  }
  void set_component(std::uint32_t index, std::uint32_t component) {
    components_[index] = component;
  }

  /// Allocated cells (occupied plus vacated-but-unreleased).
  std::size_t cell_count() const { return index_.size(); }

 private:
  struct CodeHash {
    std::size_t operator()(std::uint64_t code) const {
      return geom::CellKeyHash{}(geom::cell_from_code(code));
    }
  };

  double side_ = 1.0;
  std::vector<Cell> cells_;
  std::vector<std::uint32_t> components_;  // parallel to cells_
  std::vector<std::uint32_t> free_;
  std::unordered_map<std::uint64_t, std::uint32_t, CodeHash> index_;
};

}  // namespace mrscan::cluster
