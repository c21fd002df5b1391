// Cell-graph cluster path: UnionFind (promoted into src/cluster/), the
// cell-graph grid geometry (an index::Grid at side Eps/(2*sqrt(2))), and
// adversarial property tests for the bichromatic closest-pair (BCP) cell
// connection — the places the formulation could silently diverge from
// DBSCAN (boundary inclusivity, duplicate mass, degenerate grids, the
// cell-core rule's exact threshold).
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cell_graph_ops.hpp"
#include "cluster/union_find.hpp"
#include "cluster_equiv.hpp"
#include "data/twitter.hpp"
#include "dbscan/sequential.hpp"
#include "gpu/device.hpp"
#include "gpu/mrscan_gpu.hpp"
#include "index/grid.hpp"
#include "sweep/sweep.hpp"

namespace mcl = mrscan::cluster;
namespace md = mrscan::dbscan;
namespace mg = mrscan::geom;
namespace gpu = mrscan::gpu;
namespace mi = mrscan::index;

namespace {

/// The grid the batch cell-graph path builds: origin fixed at (0,0).
mi::Grid cell_graph_grid(const mg::PointSet& points, double side) {
  return mi::Grid(mg::GridGeometry{0.0, 0.0, side}, points);
}

gpu::MrScanGpuConfig leaf_config(double eps, std::size_t min_pts,
                                 mcl::ClusterAlgo algo) {
  gpu::MrScanGpuConfig config;
  config.params = {eps, min_pts};
  config.cluster_algo = algo;
  return config;
}

/// Run one leaf on both cluster paths and require the full labelings to
/// agree exactly: identical core flags, and (renumber() canonicalizes
/// both by first appearance) identical cluster vectors.
gpu::GpuDbscanResult expect_paths_identical(const mg::PointSet& points,
                                            double eps,
                                            std::size_t min_pts) {
  gpu::VirtualDevice dev_tp, dev_cg;
  const auto two_pass = gpu::mrscan_gpu_dbscan(
      points, leaf_config(eps, min_pts, mcl::ClusterAlgo::kTwoPass),
      dev_tp);
  auto cell_graph = gpu::mrscan_gpu_dbscan(
      points, leaf_config(eps, min_pts, mcl::ClusterAlgo::kCellGraph),
      dev_cg);
  EXPECT_EQ(cell_graph.labels.core, two_pass.labels.core);
  EXPECT_EQ(cell_graph.labels.cluster, two_pass.labels.cluster);
  return cell_graph;
}

/// Core flags and core-restricted partition must match sequential DBSCAN
/// exactly (border ties are the only legitimate divergence).
void expect_matches_sequential(const mg::PointSet& points, double eps,
                               std::size_t min_pts,
                               const gpu::GpuDbscanResult& got) {
  const auto ref =
      md::dbscan_sequential(points, md::DbscanParams{eps, min_pts});
  EXPECT_EQ(got.labels.core, ref.core);
  EXPECT_EQ(got.labels.cluster_count(), ref.cluster_count());
  EXPECT_TRUE(mrscan::sweep::equivalent_partitions_where(
      got.labels.cluster, ref.cluster, ref.core));
}

}  // namespace

// ---- UnionFind (promoted from src/util/ into src/cluster/) ----------

TEST(UnionFind, SingletonsAreDistinct) {
  mcl::UnionFind uf(5);
  EXPECT_EQ(uf.count_sets(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(uf.find(i), i);
}

TEST(UnionFind, UniteMergesAndFindAgrees) {
  mcl::UnionFind uf(6);
  uf.unite(0, 1);
  uf.unite(2, 3);
  EXPECT_TRUE(uf.same(0, 1));
  EXPECT_FALSE(uf.same(1, 2));
  uf.unite(1, 3);
  EXPECT_TRUE(uf.same(0, 2));
  EXPECT_EQ(uf.count_sets(), 3u);  // {0,1,2,3}, {4}, {5}
}

TEST(UnionFind, SetSizeTracksUnions) {
  mcl::UnionFind uf(4);
  EXPECT_EQ(uf.set_size(0), 1u);
  uf.unite(0, 1);
  uf.unite(0, 2);
  EXPECT_EQ(uf.set_size(2), 3u);
}

TEST(UnionFind, AddExtendsStructure) {
  mcl::UnionFind uf(2);
  const auto id = uf.add();
  EXPECT_EQ(id, 2u);
  uf.unite(0, id);
  EXPECT_TRUE(uf.same(0, 2));
}

TEST(UnionFind, TransitiveChainCollapses) {
  const std::uint32_t n = 1000;
  mcl::UnionFind uf(n);
  for (std::uint32_t i = 0; i + 1 < n; ++i) uf.unite(i, i + 1);
  EXPECT_EQ(uf.count_sets(), 1u);
  EXPECT_EQ(uf.set_size(0), n);
}

TEST(UnionFind, ValidateAcceptsHeavilyUsedStructure) {
  mcl::UnionFind uf(500);
  for (std::uint32_t i = 0; i < 500; i += 2) uf.unite(i, (i * 7 + 3) % 500);
  uf.validate();  // aborts on a cyclic or out-of-range parent chain
  for (std::uint32_t i = 0; i < 500; ++i) uf.find(i);  // full halving
  uf.validate();
  SUCCEED();
}

// ---- The cell-graph grid: an index::Grid with origin (0,0) ----------

TEST(CellGrid, SideIsEpsOverTwoRootTwo) {
  const double side = mcl::cell_graph_side(1.0);
  // Cell diagonal = Eps/2: intra-cell pairs are always within Eps.
  EXPECT_NEAR(side * std::sqrt(2.0), 0.5, 1e-12);
}

TEST(CellGrid, CellsSortedByCodeMembersByIndex) {
  // Deliberately scrambled input across three cells of side 1.
  const mg::PointSet pts{{0, 2.5, 0.5}, {1, 0.5, 0.5}, {2, 2.5, 0.5},
                         {3, 0.5, 2.5}, {4, 0.5, 0.5}};
  const mi::Grid grid = cell_graph_grid(pts, 1.0);
  const auto codes = grid.codes();
  ASSERT_EQ(grid.cell_count(), 3u);
  for (std::size_t c = 1; c < codes.size(); ++c) {
    EXPECT_LT(codes[c - 1], codes[c]);
  }
  std::size_t total = 0;
  for (std::uint32_t c = 0; c < grid.cell_count(); ++c) {
    const auto members = grid.members(c);
    total += members.size();
    for (std::size_t i = 1; i < members.size(); ++i) {
      EXPECT_LT(members[i - 1], members[i]);
    }
    for (const std::uint32_t p : members) {
      EXPECT_EQ(mg::cell_code(grid.geometry().cell_of(pts[p])), codes[c]);
    }
  }
  EXPECT_EQ(total, pts.size());
  // Cell (0,0) holds points 1 and 4, in index order.
  const std::uint32_t origin = grid.find(mg::cell_code(mg::CellKey{0, 0}));
  ASSERT_NE(origin, mi::Grid::kNoCell);
  EXPECT_EQ(std::vector<std::uint32_t>(grid.members(origin).begin(),
                                       grid.members(origin).end()),
            (std::vector<std::uint32_t>{1, 4}));
}

TEST(CellGrid, FindHitsOccupiedAndMissesEmptyCells) {
  const mg::PointSet pts{{0, 0.5, 0.5}, {1, -1.5, 2.5}, {2, 3.5, -0.5}};
  const mi::Grid grid = cell_graph_grid(pts, 1.0);
  const auto codes = grid.codes();
  for (std::uint32_t c = 0; c < grid.cell_count(); ++c) {
    EXPECT_EQ(grid.find(codes[c]), c);
  }
  EXPECT_EQ(grid.find(mg::cell_code(mg::CellKey{-2, 2})),
            grid.find(mg::cell_code(grid.geometry().cell_of(pts[1]))));
  // Empty cells miss whether their code falls between the occupied
  // codes or above them all.
  EXPECT_EQ(grid.find(mg::cell_code(mg::CellKey{1, 0})), mi::Grid::kNoCell);
  EXPECT_EQ(grid.find(mg::cell_code(mg::CellKey{-5, 0})), mi::Grid::kNoCell);
  EXPECT_EQ(grid.find(mg::cell_code(mg::CellKey{-1, 0})), mi::Grid::kNoCell);
}

TEST(CellGrid, GridOriginIsAbsoluteNotPerPointSet) {
  // The same point must land in the same cell key regardless of what
  // other points exist — partition boundaries must not shift cells.
  const mg::Point p{0, 3.7, -1.2};
  const mi::Grid a = cell_graph_grid(mg::PointSet{p}, 0.5);
  const mi::Grid b = cell_graph_grid(mg::PointSet{{1, -100.0, 50.0}, p}, 0.5);
  EXPECT_EQ(a.geometry().cell_of(p), b.geometry().cell_of(p));
  EXPECT_EQ(a.geometry().cell_of(p), (mg::CellKey{7, -3}));
  const std::uint32_t in_b = b.find(a.codes()[0]);
  ASSERT_NE(in_b, mi::Grid::kNoCell);
  ASSERT_EQ(b.members(in_b).size(), 1u);
  EXPECT_EQ(b.members(in_b)[0], 1u);
}

// ---- Adversarial BCP properties -------------------------------------

TEST(CellGraph, ExactEpsChainOnIntegerGridIsInclusive) {
  // Points on the integer line, consecutive pairs at distance exactly
  // Eps = 1.0 (representable, so dist2 == eps2 exactly). The DBSCAN
  // Eps-neighbourhood is inclusive; a '<' anywhere in the BCP test or
  // the classification would shatter this into singletons.
  mg::PointSet pts;
  for (std::uint64_t i = 0; i < 12; ++i) {
    pts.push_back({i, static_cast<double>(i), 0.0});
  }
  const auto result = expect_paths_identical(pts, 1.0, 2);
  expect_matches_sequential(pts, 1.0, 2, result);
  EXPECT_EQ(result.labels.cluster_count(), 1u);
  // One point per cell: nothing qualifies for the wholesale rule.
  EXPECT_EQ(result.stats.cellgraph_core_cells, 0u);
  EXPECT_GT(result.stats.cellgraph_bcp_pairs, 0u);
}

TEST(CellGraph, AxisAlignedCellsThreeApartStillConnect) {
  // Two clumps whose cells are Chebyshev distance 3 apart on the x axis:
  // box gap 2*side ~ 0.707 Eps < Eps. A ring bound of 2 would miss the
  // edge and report two clusters.
  const double eps = 1.0;
  const double side = mcl::cell_graph_side(eps);
  mg::PointSet pts;
  for (std::uint64_t i = 0; i < 5; ++i) {
    pts.push_back({i, 0.6 * side, 0.5 * side});
    pts.push_back({100 + i, 3.2 * side, 0.5 * side});
  }
  ASSERT_EQ(cell_graph_grid(pts, side).cell_count(), 2u);  // really 2 cells
  const auto result = expect_paths_identical(pts, eps, 5);
  expect_matches_sequential(pts, eps, 5, result);
  EXPECT_EQ(result.labels.cluster_count(), 1u);
  EXPECT_EQ(result.stats.cellgraph_core_cells, 2u);
}

TEST(CellGraph, NeighborCellsBeyondEpsStayApart) {
  // Cells at Chebyshev distance (3,3) — the ring's corner, whose box gap
  // is exactly Eps, so the pair survives the prefilter — but whose points
  // are all farther than Eps: the BCP test itself must reject the link.
  const double eps = 1.0;
  const double side = mcl::cell_graph_side(eps);
  mg::PointSet pts;
  for (std::uint64_t i = 0; i < 6; ++i) {
    pts.push_back({i, 0.05 * side, 0.5 * side});
    // Next-but-two cell, far corner: distance ~ 1.1 Eps.
    pts.push_back({100 + i, 3.2 * side, 0.5 * side + 1.05 * eps});
  }
  const auto result = expect_paths_identical(pts, eps, 5);
  expect_matches_sequential(pts, eps, 5, result);
  EXPECT_EQ(result.labels.cluster_count(), 2u);
}

TEST(CellGraph, DuplicatePointsTimesFourMatchEverywhere) {
  // Every site duplicated x4 with MinPts = 4: every occupied cell holds
  // at least 4 coincident points, so the wholesale rule must cover the
  // entire input, and duplicate mass must not double-link or drop edges.
  mrscan::data::TwitterConfig tw;
  tw.num_points = 300;
  tw.seed = 11;
  const auto base = mrscan::data::generate_twitter(tw);
  mg::PointSet pts;
  for (const auto& p : base) {
    for (int d = 0; d < 4; ++d) {
      pts.push_back({p.id * 4 + static_cast<std::uint64_t>(d), p.x, p.y});
    }
  }
  const auto result = expect_paths_identical(pts, 0.05, 4);
  expect_matches_sequential(pts, 0.05, 4, result);
  EXPECT_EQ(result.stats.cellgraph_wholesale_points, pts.size());
  EXPECT_EQ(result.labels.noise_count(), 0u);
}

TEST(CellGraph, AllPointsInOneCellFormOneClusterWithoutBcp) {
  // Degenerate grid: the whole input inside a single cell. One wholesale
  // core cell, no cell pairs to test, one cluster.
  const double eps = 1.0;
  const double side = mcl::cell_graph_side(eps);
  mg::PointSet pts;
  for (std::uint64_t i = 0; i < 50; ++i) {
    pts.push_back({i, 0.1 * side + 1e-5 * static_cast<double>(i),
                   0.4 * side});
  }
  const auto result = expect_paths_identical(pts, eps, 10);
  expect_matches_sequential(pts, eps, 10, result);
  EXPECT_EQ(result.stats.cellgraph_cells, 1u);
  EXPECT_EQ(result.stats.cellgraph_core_cells, 1u);
  EXPECT_EQ(result.stats.cellgraph_wholesale_points, 50u);
  EXPECT_EQ(result.stats.cellgraph_bcp_pairs, 0u);
  EXPECT_EQ(result.labels.cluster_count(), 1u);
}

TEST(CellGraph, CellsAtExactlyMinPtsMinusOneUseThePointRule) {
  // A 4x4 block of cells, each holding exactly MinPts - 1 coincident
  // points at its centre. The wholesale cell rule must NOT fire (>=
  // MinPts is the threshold, and an off-by-one here would misclassify
  // every point), yet every point is still core through the exact
  // per-point count: neighbouring cell centres are within Eps.
  const double eps = 1.0;
  const double side = mcl::cell_graph_side(eps);
  const std::size_t min_pts = 5;
  mg::PointSet pts;
  std::uint64_t id = 0;
  for (int cx = 0; cx < 4; ++cx) {
    for (int cy = 0; cy < 4; ++cy) {
      for (std::size_t k = 0; k + 1 < min_pts; ++k) {
        pts.push_back({id++, (cx + 0.5) * side, (cy + 0.5) * side});
      }
    }
  }
  const auto result = expect_paths_identical(pts, eps, min_pts);
  expect_matches_sequential(pts, eps, min_pts, result);
  EXPECT_EQ(result.stats.cellgraph_cells, 16u);
  EXPECT_EQ(result.stats.cellgraph_core_cells, 0u);
  EXPECT_EQ(result.stats.cellgraph_wholesale_points, 0u);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE(result.labels.core[i]) << "point " << i;
  }
  EXPECT_EQ(result.labels.cluster_count(), 1u);
}

TEST(CellGraph, EmptyInputYieldsEmptyLabeling) {
  const mg::PointSet pts;
  gpu::VirtualDevice device;
  const auto result = gpu::mrscan_gpu_dbscan(
      pts, leaf_config(1.0, 5, mcl::ClusterAlgo::kCellGraph), device);
  EXPECT_EQ(result.labels.size(), 0u);
  EXPECT_EQ(result.stats.cellgraph_cells, 0u);
}

TEST(CellGraph, ChargesEveryBcpComparisonToTheDevice) {
  // The K20 cost model must see the BCP work: device distance ops are at
  // least the classification + BCP ops, and the BCP counters are
  // consistent (pairs tested implies ops spent).
  mrscan::data::TwitterConfig tw;
  tw.num_points = 2000;
  tw.seed = 19;
  const auto pts = mrscan::data::generate_twitter(tw);
  gpu::VirtualDevice device;
  const auto result = gpu::mrscan_gpu_dbscan(
      pts, leaf_config(0.05, 10, mcl::ClusterAlgo::kCellGraph), device);
  EXPECT_GT(result.stats.cellgraph_bcp_pairs, 0u);
  EXPECT_GE(result.stats.cellgraph_bcp_ops,
            result.stats.cellgraph_bcp_pairs);
  EXPECT_GE(result.stats.distance_ops, result.stats.cellgraph_bcp_ops);
  EXPECT_GT(result.stats.kernel_launches, 0u);
  EXPECT_GT(result.stats.device_seconds, 0.0);
}
