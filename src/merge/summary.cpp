#include "merge/summary.hpp"

#include <algorithm>
#include <unordered_map>

#include "geometry/rep_points.hpp"
#include "util/assert.hpp"

namespace mrscan::merge {

mrnet::Packet MergeSummary::to_packet() const {
  mrnet::Packet p;
  p.put_u64(clusters.size());
  for (const ClusterSummary& cluster : clusters) {
    p.put_u64(cluster.owned_points);
    p.put_u64(cluster.cells.size());
    for (const CellSummary& cell : cluster.cells) {
      p.put_u64(cell.cell_code);
      p.put_u8(cell.from_shadow ? 1 : 0);
      p.put_pod_vector(cell.reps);
      p.put_pod_vector(cell.noncore);
    }
  }
  return p;
}

MergeSummary MergeSummary::from_packet(const mrnet::Packet& packet) {
  MergeSummary summary;
  auto r = packet.reader();
  // Smallest encodings: a cluster is owned_points + a cell count; a cell
  // is its code, the shadow flag and two empty vector counts.
  constexpr std::size_t kMinClusterBytes = 8 + 8;
  constexpr std::size_t kMinCellBytes = 8 + 1 + 8 + 8;
  summary.clusters.resize(r.get_count(kMinClusterBytes));
  for (ClusterSummary& cluster : summary.clusters) {
    cluster.owned_points = r.get_u64();
    cluster.cells.resize(r.get_count(kMinCellBytes));
    for (CellSummary& cell : cluster.cells) {
      cell.cell_code = r.get_u64();
      cell.from_shadow = r.get_u8() != 0;
      cell.reps = r.get_pod_vector<SummaryPoint>();
      cell.noncore = r.get_pod_vector<SummaryPoint>();
    }
  }
  return summary;
}

MergeSummary build_leaf_summary(const LeafSummaryInput& input) {
  MRSCAN_REQUIRE(input.labels != nullptr);
  MRSCAN_REQUIRE(input.labels->size() == input.points.size());
  MRSCAN_REQUIRE(input.owned_count <= input.points.size());

  const auto& labels = *input.labels;
  auto is_owned_cell = [&](std::uint64_t code) {
    return std::binary_search(input.owned_cells.begin(),
                              input.owned_cells.end(), code);
  };
  auto is_shadow_cell = [&](std::uint64_t code) {
    return std::binary_search(input.shadow_cells.begin(),
                              input.shadow_cells.end(), code);
  };

  // Boundary cells: shadow cells, plus owned cells adjacent to a shadow
  // cell — the only cells another leaf can also see.
  auto is_boundary_cell = [&](std::uint64_t code) {
    if (is_shadow_cell(code)) return true;
    if (!is_owned_cell(code)) return false;
    bool boundary = false;
    geom::for_each_neighbor_within(
        geom::cell_from_code(code), input.shadow_rings,
        [&](geom::CellKey nbr) {
          if (is_shadow_cell(geom::cell_code(nbr))) boundary = true;
        });
    return boundary;
  };

  // Group member point indices by (cluster, cell), boundary cells only.
  struct CellBucket {
    std::vector<std::uint32_t> core;
    std::vector<std::uint32_t> noncore;
  };
  // cluster id -> cell code -> bucket
  std::vector<std::unordered_map<std::uint64_t, CellBucket>> buckets;
  std::vector<std::uint64_t> owned_points_of;

  for (std::uint32_t i = 0; i < input.points.size(); ++i) {
    const dbscan::ClusterId c = labels.cluster[i];
    if (c < 0) continue;
    const auto ci = static_cast<std::size_t>(c);
    if (ci >= buckets.size()) {
      buckets.resize(ci + 1);
      owned_points_of.resize(ci + 1, 0);
    }
    if (i < input.owned_count) ++owned_points_of[ci];

    const std::uint64_t code =
        geom::cell_code(input.geometry.cell_of(input.points[i]));
    if (!is_boundary_cell(code)) continue;
    CellBucket& bucket = buckets[ci][code];
    if (labels.core[i]) {
      bucket.core.push_back(i);
    } else {
      bucket.noncore.push_back(i);
    }
  }

  MergeSummary summary;
  summary.clusters.resize(buckets.size());
  for (std::size_t ci = 0; ci < buckets.size(); ++ci) {
    ClusterSummary& cluster = summary.clusters[ci];
    cluster.owned_points = owned_points_of[ci];

    // Deterministic cell order.
    std::vector<std::uint64_t> codes;
    codes.reserve(buckets[ci].size());
    // det-unordered-iter-ok: keys are sorted immediately below
    for (const auto& [code, bucket] : buckets[ci]) codes.push_back(code);
    std::sort(codes.begin(), codes.end());

    for (const std::uint64_t code : codes) {
      const CellBucket& bucket = buckets[ci].at(code);
      CellSummary cell;
      cell.cell_code = code;
      cell.from_shadow = is_shadow_cell(code);
      const auto reps = geom::select_cell_representatives(
          input.geometry, geom::cell_from_code(code), input.points,
          bucket.core);
      for (const std::uint32_t idx : reps) {
        cell.reps.push_back(SummaryPoint{input.points[idx].id,
                                         input.points[idx].x,
                                         input.points[idx].y});
      }
      for (const std::uint32_t idx : bucket.noncore) {
        cell.noncore.push_back(SummaryPoint{input.points[idx].id,
                                            input.points[idx].x,
                                            input.points[idx].y});
      }
      cluster.cells.push_back(std::move(cell));
    }
  }
  return summary;
}

}  // namespace mrscan::merge
