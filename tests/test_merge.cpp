#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "data/synthetic.hpp"
#include "dbscan/sequential.hpp"
#include "merge/merger.hpp"
#include "merge/summary.hpp"

namespace mg = mrscan::geom;
namespace md = mrscan::dbscan;
namespace mm = mrscan::merge;

namespace {

mm::SummaryPoint sp(mg::PointId id, double x, double y) {
  return mm::SummaryPoint{id, x, y};
}

/// One-cluster summary holding a single cell.
mm::MergeSummary one_cluster(std::uint64_t cell_code, bool from_shadow,
                             std::vector<mm::SummaryPoint> reps,
                             std::vector<mm::SummaryPoint> noncore = {},
                             std::uint64_t owned = 10) {
  mm::MergeSummary s;
  mm::CellSummary cell;
  cell.cell_code = cell_code;
  cell.from_shadow = from_shadow;
  cell.reps = std::move(reps);
  cell.noncore = std::move(noncore);
  mm::ClusterSummary cluster;
  cluster.owned_points = owned;
  cluster.cells.push_back(std::move(cell));
  s.clusters.push_back(std::move(cluster));
  return s;
}

/// A forged count must fail as invalid_argument naming the count, before
/// anything is allocated for it — not as bad_alloc, length_error or a
/// late underrun after seconds of allocating.
void expect_count_rejected(const std::function<void()>& decode) {
  try {
    decode();
    ADD_FAILURE() << "forged count was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("count exceeds"), std::string::npos)
        << e.what();
  }
}

const mg::GridGeometry kGeom{0.0, 0.0, 1.0};
constexpr double kEps = 1.0;

}  // namespace

TEST(MergeSummary, PacketRoundTrip) {
  mm::MergeSummary s = one_cluster(
      mg::cell_code(mg::CellKey{3, 4}), true,
      {sp(1, 3.1, 4.1), sp(2, 3.9, 4.9)}, {sp(5, 3.5, 4.5)}, 42);
  s.clusters[0].cells.push_back(mm::CellSummary{
      mg::cell_code(mg::CellKey{3, 5}), false, {sp(7, 3.2, 5.2)}, {}});

  const auto back = mm::MergeSummary::from_packet(s.to_packet());
  ASSERT_EQ(back.clusters.size(), 1u);
  EXPECT_EQ(back.clusters[0].owned_points, 42u);
  ASSERT_EQ(back.clusters[0].cells.size(), 2u);
  EXPECT_EQ(back.clusters[0].cells[0].reps, s.clusters[0].cells[0].reps);
  EXPECT_EQ(back.clusters[0].cells[0].noncore,
            s.clusters[0].cells[0].noncore);
  EXPECT_TRUE(back.clusters[0].cells[0].from_shadow);
  EXPECT_FALSE(back.clusters[0].cells[1].from_shadow);
}

TEST(MergeSummary, ForgedCountsThrowBeforeAllocating) {
  // Nine bytes claiming 2^40, then 2^26, clusters.
  for (const std::uint64_t clusters : {1ULL << 40, 1ULL << 26}) {
    mrscan::mrnet::Packet p;
    p.put_u64(clusters);
    p.put_u8(0);
    expect_count_rejected([&] { mm::MergeSummary::from_packet(p); });
  }
  // One well-formed cell whose rep vector claims 2^61 elements (times the
  // 24-byte record, that byte count wraps to zero).
  mrscan::mrnet::Packet p;
  p.put_u64(1);   // clusters
  p.put_u64(10);  // owned points
  p.put_u64(1);   // cells
  p.put_u64(mg::cell_code(mg::CellKey{3, 4}));
  p.put_u8(0);
  p.put_u64(1ULL << 61);  // reps
  p.put_u64(0);           // noncore
  expect_count_rejected([&] { mm::MergeSummary::from_packet(p); });
}

TEST(PacketReader, ForgedCountsThrowBeforeAllocating) {
  // A u64-max string length, and a 2^61-element u64 vector whose byte
  // count wraps to zero.
  mrscan::mrnet::Packet string_packet;
  string_packet.put_u64(std::numeric_limits<std::uint64_t>::max());
  string_packet.put_u8('x');
  expect_count_rejected([&] { string_packet.reader().get_string(); });
  mrscan::mrnet::Packet vector_packet;
  vector_packet.put_u64(1ULL << 61);
  vector_packet.put_u64(7);
  expect_count_rejected(
      [&] { vector_packet.reader().get_pod_vector<std::uint64_t>(); });
}

TEST(Merger, Type1CorePointOverlapMerges) {
  const std::uint64_t cell = mg::cell_code(mg::CellKey{0, 0});
  // Shared core point (id 9) appears as a rep in both clusters.
  auto a = one_cluster(cell, false, {sp(9, 0.5, 0.5)});
  auto b = one_cluster(cell, true, {sp(9, 0.5, 0.5)});
  const auto result = mm::merge_summaries({a, b}, kGeom, kEps);
  EXPECT_EQ(result.merged.clusters.size(), 1u);
  EXPECT_EQ(result.merges_detected, 1u);
  EXPECT_EQ(result.child_cluster_map[0][0], result.child_cluster_map[1][0]);
}

TEST(Merger, DistantClustersDoNotMerge) {
  // Same cell, but reps farther than Eps apart.
  const std::uint64_t cell = mg::cell_code(mg::CellKey{0, 0});
  auto a = one_cluster(cell, false, {sp(1, 0.05, 0.05)});
  auto b = one_cluster(cell, true, {sp(2, 0.95, 0.95)});
  const auto result = mm::merge_summaries({a, b}, kGeom, /*eps=*/0.5);
  EXPECT_EQ(result.merged.clusters.size(), 2u);
  EXPECT_EQ(result.merges_detected, 0u);
  EXPECT_NE(result.child_cluster_map[0][0], result.child_cluster_map[1][0]);
}

TEST(Merger, Type2NonCoreCoreOverlapMerges) {
  const std::uint64_t cell = mg::cell_code(mg::CellKey{0, 0});
  // Owner (a) sees point 9 as core (it is a rep). The shadow side (b)
  // misclassified 9 as non-core. The unique-to-shadow difference {9} is
  // within Eps of the owner's rep -> merge.
  auto a = one_cluster(cell, false, {sp(9, 0.5, 0.5)},
                       {sp(3, 0.4, 0.4)});
  auto b = one_cluster(cell, true, {}, {sp(9, 0.5, 0.5)});
  const auto result = mm::merge_summaries({a, b}, kGeom, /*eps=*/0.3);
  EXPECT_EQ(result.merged.clusters.size(), 1u);
  EXPECT_EQ(result.merges_detected, 1u);
}

TEST(Merger, Type2RequiresUniqueShadowPoint) {
  const std::uint64_t cell = mg::cell_code(mg::CellKey{0, 0});
  // Both sides agree point 9 is non-core: it is NOT unique to the shadow
  // side, so it cannot drive a merge (it is a border point for both).
  auto a = one_cluster(cell, false, {sp(1, 0.5, 0.5)}, {sp(9, 0.52, 0.5)});
  auto b = one_cluster(cell, true, {sp(2, 0.1, 0.9)}, {sp(9, 0.52, 0.5)});
  const auto result = mm::merge_summaries({a, b}, kGeom, /*eps=*/0.05);
  EXPECT_EQ(result.merged.clusters.size(), 2u);
  // And the duplicate non-core point is removed once (type 3).
  EXPECT_EQ(result.duplicates_removed, 1u);
}

TEST(Merger, Type3RemovesDuplicateNonCorePoints) {
  const std::uint64_t cell = mg::cell_code(mg::CellKey{0, 0});
  auto a = one_cluster(cell, false, {sp(1, 0.5, 0.5)},
                       {sp(7, 0.6, 0.5), sp(8, 0.7, 0.5)});
  auto b = one_cluster(cell, true, {sp(1, 0.5, 0.5)},
                       {sp(7, 0.6, 0.5)});  // duplicate of owner's 7
  const auto result = mm::merge_summaries({a, b}, kGeom, kEps);
  ASSERT_EQ(result.merged.clusters.size(), 1u);
  EXPECT_EQ(result.duplicates_removed, 1u);
  // The merged cell keeps each non-core point exactly once.
  ASSERT_EQ(result.merged.clusters[0].cells.size(), 1u);
  const auto& noncore = result.merged.clusters[0].cells[0].noncore;
  std::size_t count7 = 0;
  for (const auto& p : noncore) {
    if (p.id == 7) ++count7;
  }
  EXPECT_EQ(count7, 1u);
}

TEST(Merger, TransitiveMergeAcrossThreeChildren) {
  const std::uint64_t c01 = mg::cell_code(mg::CellKey{0, 0});
  const std::uint64_t c12 = mg::cell_code(mg::CellKey{1, 0});
  // Child 0 and 1 share core point 10 in cell (0,0); child 1 and 2 share
  // core point 20 in cell (1,0). All three clusters become one.
  mm::MergeSummary s0 = one_cluster(c01, false, {sp(10, 0.9, 0.5)});
  mm::MergeSummary s1 = one_cluster(c01, true, {sp(10, 0.9, 0.5)});
  s1.clusters[0].cells.push_back(
      mm::CellSummary{c12, false, {sp(20, 1.1, 0.5)}, {}});
  mm::MergeSummary s2 = one_cluster(c12, true, {sp(20, 1.1, 0.5)});
  const auto result = mm::merge_summaries({s0, s1, s2}, kGeom, kEps);
  EXPECT_EQ(result.merged.clusters.size(), 1u);
  EXPECT_EQ(result.child_cluster_map[0][0], result.child_cluster_map[2][0]);
}

TEST(Merger, SameChildClustersNeverMerge) {
  const std::uint64_t cell = mg::cell_code(mg::CellKey{0, 0});
  // One child reporting two clusters with close reps: they were already
  // determined distinct locally and must stay distinct.
  mm::MergeSummary s = one_cluster(cell, false, {sp(1, 0.5, 0.5)});
  mm::ClusterSummary second;
  second.owned_points = 5;
  second.cells.push_back(
      mm::CellSummary{cell, false, {sp(2, 0.51, 0.5)}, {}});
  s.clusters.push_back(std::move(second));
  const auto result = mm::merge_summaries({s}, kGeom, kEps);
  EXPECT_EQ(result.merged.clusters.size(), 2u);
}

TEST(Merger, MergedCellRepsCappedAtEight) {
  const std::uint64_t cell = mg::cell_code(mg::CellKey{0, 0});
  std::vector<mm::SummaryPoint> reps_a, reps_b;
  for (int i = 0; i < 8; ++i) {
    reps_a.push_back(sp(i, 0.1 + 0.1 * i, 0.2));
    reps_b.push_back(sp(100 + i, 0.1 + 0.1 * i, 0.25));
  }
  auto a = one_cluster(cell, false, reps_a);
  auto b = one_cluster(cell, true, reps_b);
  const auto result = mm::merge_summaries({a, b}, kGeom, kEps);
  ASSERT_EQ(result.merged.clusters.size(), 1u);
  EXPECT_LE(result.merged.clusters[0].cells[0].reps.size(), 8u);
}

TEST(Merger, OwnedPointCountsAccumulate) {
  const std::uint64_t cell = mg::cell_code(mg::CellKey{0, 0});
  auto a = one_cluster(cell, false, {sp(9, 0.5, 0.5)}, {}, 100);
  auto b = one_cluster(cell, true, {sp(9, 0.5, 0.5)}, {}, 30);
  const auto result = mm::merge_summaries({a, b}, kGeom, kEps);
  ASSERT_EQ(result.merged.clusters.size(), 1u);
  EXPECT_EQ(result.merged.clusters[0].owned_points, 130u);
}

TEST(Merger, EmptyChildren) {
  const auto result = mm::merge_summaries({}, kGeom, kEps);
  EXPECT_TRUE(result.merged.clusters.empty());
  const auto result2 =
      mm::merge_summaries({mm::MergeSummary{}, mm::MergeSummary{}}, kGeom,
                          kEps);
  EXPECT_TRUE(result2.merged.clusters.empty());
}

TEST(Merger, WideTreeSharedCellOpsStayLinear) {
  // Many children reporting the same core point in one shared cell. Each
  // new child merges into the group with exactly one rep comparison, and
  // every later pair short-circuits on uf.same — so ops must stay linear
  // in the child count, not quadratic in the pairs examined.
  constexpr std::uint32_t kChildren = 200;
  const std::uint64_t cell = mg::cell_code(mg::CellKey{0, 0});
  std::vector<mm::MergeSummary> children;
  children.reserve(kChildren);
  for (std::uint32_t c = 0; c < kChildren; ++c) {
    children.push_back(one_cluster(cell, c > 0, {sp(9, 0.5, 0.5)}));
  }
  const auto result = mm::merge_summaries(children, kGeom, kEps);
  ASSERT_EQ(result.merged.clusters.size(), 1u);
  EXPECT_EQ(result.merges_detected, kChildren - 1);
  EXPECT_EQ(result.ops, kChildren - 1);
  for (std::uint32_t c = 0; c < kChildren; ++c) {
    EXPECT_EQ(result.child_cluster_map[c][0], 0u);
  }
}

TEST(Merger, WideTreeDisjointChildrenKeepDistinctClusters) {
  // Many children in pairwise-disjoint cells: nothing merges, no distance
  // computations run, and every (child, cluster) pair maps to its own
  // output cluster — a regression check on the flattened pair indexing.
  constexpr std::uint32_t kChildren = 300;
  std::vector<mm::MergeSummary> children;
  children.reserve(kChildren);
  for (std::uint32_t c = 0; c < kChildren; ++c) {
    const auto ix = static_cast<std::int32_t>(c);
    children.push_back(one_cluster(mg::cell_code(mg::CellKey{ix, 0}), false,
                                   {sp(c, ix + 0.5, 0.5)}));
  }
  const auto result = mm::merge_summaries(children, kGeom, kEps);
  EXPECT_EQ(result.merged.clusters.size(), kChildren);
  EXPECT_EQ(result.merges_detected, 0u);
  EXPECT_EQ(result.ops, 0u);
  std::vector<std::uint32_t> seen;
  for (std::uint32_t c = 0; c < kChildren; ++c) {
    seen.push_back(result.child_cluster_map[c][0]);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

TEST(Merger, RaggedChildrenPairIndexingStaysAligned) {
  // Children with different cluster counts: the (child, cluster) -> pair
  // id flattening must keep offsets straight so the right clusters merge.
  const std::uint64_t shared = mg::cell_code(mg::CellKey{7, 7});
  auto cluster_in = [&](std::uint64_t code, mg::PointId id, double x,
                        double y) {
    mm::CellSummary cell;
    cell.cell_code = code;
    cell.reps = {sp(id, x, y)};
    mm::ClusterSummary cluster;
    cluster.owned_points = 1;
    cluster.cells.push_back(std::move(cell));
    return cluster;
  };
  // Child 0: three clusters, only the last sits in the shared cell.
  mm::MergeSummary a;
  a.clusters.push_back(cluster_in(mg::cell_code(mg::CellKey{0, 0}), 1, 0.5, 0.5));
  a.clusters.push_back(cluster_in(mg::cell_code(mg::CellKey{1, 0}), 2, 1.5, 0.5));
  a.clusters.push_back(cluster_in(shared, 3, 7.5, 7.5));
  // Child 1: one far-away cluster.
  mm::MergeSummary b;
  b.clusters.push_back(cluster_in(mg::cell_code(mg::CellKey{20, 20}), 4, 20.5, 20.5));
  // Child 2: two clusters, the second shares the cell (and the core rep).
  mm::MergeSummary c;
  c.clusters.push_back(cluster_in(mg::cell_code(mg::CellKey{30, 30}), 5, 30.5, 30.5));
  auto shared_cluster = cluster_in(shared, 3, 7.5, 7.5);
  shared_cluster.cells[0].from_shadow = true;
  c.clusters.push_back(std::move(shared_cluster));

  const auto result = mm::merge_summaries({a, b, c}, kGeom, kEps);
  EXPECT_EQ(result.merged.clusters.size(), 5u);
  EXPECT_EQ(result.merges_detected, 1u);
  EXPECT_EQ(result.child_cluster_map[0][2], result.child_cluster_map[2][1]);
  EXPECT_NE(result.child_cluster_map[0][0], result.child_cluster_map[2][1]);
  EXPECT_NE(result.child_cluster_map[1][0], result.child_cluster_map[2][1]);
}

TEST(LeafSummary, BuildsRepsAndRespectsBoundaryCells) {
  // Points along a horizontal strip; leaf owns cells x<3, shadow x=3.
  // With the 2-ring shadow radius, owned cells (1,0) and (2,0) are
  // boundary cells while (0,0) — three rings from the shadow — stays
  // interior.
  mg::PointSet pts;
  for (int i = 0; i < 80; ++i) {
    pts.push_back({static_cast<mg::PointId>(i), 0.05 * i + 0.01, 0.5,
                   1.0f});
  }
  const md::DbscanParams params{0.2, 3};
  const auto labels = md::dbscan_sequential(pts, params);
  ASSERT_EQ(labels.cluster_count(), 1u);

  mm::LeafSummaryInput input;
  input.points = pts;
  input.owned_count = 60;  // first 60 owned (x < 3), rest shadow
  input.labels = &labels;
  input.geometry = mg::GridGeometry{0.0, 0.0, 1.0};
  std::vector<std::uint64_t> owned{mg::cell_code(mg::CellKey{0, 0}),
                                   mg::cell_code(mg::CellKey{1, 0}),
                                   mg::cell_code(mg::CellKey{2, 0})};
  std::vector<std::uint64_t> shadow{mg::cell_code(mg::CellKey{3, 0})};
  std::sort(owned.begin(), owned.end());
  input.owned_cells = owned;
  input.shadow_cells = shadow;

  const auto summary = mm::build_leaf_summary(input);
  ASSERT_EQ(summary.clusters.size(), 1u);
  EXPECT_EQ(summary.clusters[0].owned_points, 60u);
  // Cell (0,0) is interior (beyond shadow_rings of the shadow cell) and
  // must be omitted; cells (1,0) and (2,0) (boundary owned) and (3,0)
  // (shadow) appear.
  std::vector<std::uint64_t> cell_codes;
  for (const auto& cell : summary.clusters[0].cells) {
    cell_codes.push_back(cell.cell_code);
    EXPECT_LE(cell.reps.size(), 8u);
  }
  EXPECT_EQ(cell_codes.size(), 3u);
  EXPECT_TRUE(std::find(cell_codes.begin(), cell_codes.end(),
                        mg::cell_code(mg::CellKey{1, 0})) !=
              cell_codes.end());
  EXPECT_TRUE(std::find(cell_codes.begin(), cell_codes.end(),
                        mg::cell_code(mg::CellKey{2, 0})) !=
              cell_codes.end());
  EXPECT_TRUE(std::find(cell_codes.begin(), cell_codes.end(),
                        mg::cell_code(mg::CellKey{3, 0})) !=
              cell_codes.end());
  EXPECT_TRUE(std::find(cell_codes.begin(), cell_codes.end(),
                        mg::cell_code(mg::CellKey{0, 0})) ==
              cell_codes.end());

  // The shadow cell is flagged as such.
  for (const auto& cell : summary.clusters[0].cells) {
    EXPECT_EQ(cell.from_shadow,
              cell.cell_code == mg::cell_code(mg::CellKey{3, 0}));
  }
}

TEST(LeafSummary, NoiseProducesNoClusters) {
  const auto pts = mrscan::data::uniform_points(
      50, mg::BBox{0.0, 0.0, 50.0, 50.0}, 3);
  const auto labels =
      md::dbscan_sequential(pts, md::DbscanParams{0.5, 4});
  ASSERT_EQ(labels.cluster_count(), 0u);

  mm::LeafSummaryInput input;
  input.points = pts;
  input.owned_count = pts.size();
  input.labels = &labels;
  input.geometry = mg::GridGeometry{0.0, 0.0, 0.5};
  input.owned_cells = {};
  input.shadow_cells = {};
  const auto summary = mm::build_leaf_summary(input);
  EXPECT_TRUE(summary.clusters.empty());
}
