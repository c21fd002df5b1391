// Partition plans: which Eps x Eps grid cells each clustering leaf owns,
// plus its shadow region (§3.1.1).
//
// A plan is computed from a cell histogram alone — no individual point
// data — which is what lets the partitioner distribute (§3.1.3): leaves
// send per-cell counts up the tree, the root plans serially, boundaries
// are broadcast back.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/cell.hpp"
#include "index/cell_histogram.hpp"

namespace mrscan::partition {

struct PartitionPart {
  /// Cell codes owned by this partition, in spatial iteration order.
  std::vector<std::uint64_t> owned_cells;
  /// Shadow region: every non-empty grid neighbour of an owned cell that
  /// is not itself owned — so each owned point's Eps-neighbourhood is
  /// complete within the partition.
  std::vector<std::uint64_t> shadow_cells;
  std::uint64_t owned_points = 0;
  std::uint64_t shadow_points = 0;

  std::uint64_t total_points() const { return owned_points + shadow_points; }
};

struct PartitionPlan {
  geom::GridGeometry geometry;
  /// Shadow radius in cells: 2 when cells are Eps-sized, 2k when the grid
  /// is refined to Eps/k cells (§5.1.2 future work). The shadow covers
  /// everything within 2*Eps of the partition boundary so that points in
  /// the inner Eps band carry *exact* core flags — which is what makes
  /// owned labels partition-invariant (border attachment and core
  /// connectivity near a cut see the same evidence every leaf sees).
  std::int32_t shadow_rings = 2;
  std::vector<PartitionPart> parts;
  /// Cells handed to the previous partition during backward rebalancing
  /// (Figure 2c/2d); deterministic, exported as metric
  /// "partition.rebalance_moves".
  std::uint64_t rebalance_moves = 0;

  std::size_t part_count() const { return parts.size(); }
  std::uint64_t total_owned_points() const;
  std::uint64_t total_points_with_shadow() const;

  /// Owner part of each cell (index into parts), or npos for unowned.
  static constexpr std::uint32_t kUnowned = 0xffffffffu;
  std::uint32_t owner_of(std::uint64_t cell_code) const;

  /// Validate internal consistency (each cell owned once; shadows disjoint
  /// from ownership; counts match the histogram). Throws on violation.
  void validate(const index::CellHistogram& hist) const;

 private:
  friend PartitionPlan make_plan(geom::GridGeometry,
                                 std::vector<PartitionPart>, std::int32_t);
  /// Build the cell -> owner map from the parts' owned cells.
  void reindex();

  std::vector<std::pair<std::uint64_t, std::uint32_t>> owner_;  // sorted
};

/// Assemble a plan and build its ownership index.
PartitionPlan make_plan(geom::GridGeometry geometry,
                        std::vector<PartitionPart> parts,
                        std::int32_t shadow_rings = 2);

}  // namespace mrscan::partition
