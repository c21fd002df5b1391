#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <set>
#include <span>
#include <unordered_set>

#include "data/synthetic.hpp"
#include "data/twitter.hpp"
#include "geometry/rep_points.hpp"
#include "index/grid.hpp"
#include "io/mapped_segment.hpp"
#include "partition/distributed.hpp"
#include "partition/materialize.hpp"
#include "partition/partitioner.hpp"
#include "util/thread_pool.hpp"

namespace mg = mrscan::geom;
namespace mi = mrscan::index;
namespace mp = mrscan::partition;

namespace {

mg::PointSet twitter_points(std::uint64_t n, std::uint64_t seed = 1) {
  mrscan::data::TwitterConfig config;
  config.num_points = n;
  config.seed = seed;
  return mrscan::data::generate_twitter(config);
}

struct TestData {
  mg::PointSet points;
  mg::GridGeometry geometry;
  mi::CellHistogram hist;

  TestData(mg::PointSet pts, double eps)
      : points(std::move(pts)),
        geometry{mg::bbox_of(points).min_x, mg::bbox_of(points).min_y, eps},
        hist(geometry, points) {}
};

std::vector<mrscan::io::Segment> materialize_all(
    const mp::PartitionPlan& plan, const mi::Grid& grid,
    std::span<const mg::Point> points,
    const mp::MaterializeConfig& config = {}) {
  mrscan::util::ThreadPool pool(1);
  return mp::materialize_partitions(plan, grid, points, pool, config)
      .segments;
}

}  // namespace

TEST(Partitioner, CoversAllCellsExactlyOnce) {
  TestData s(twitter_points(30000), 0.1);
  const auto plan = mp::plan_partitions(
      s.hist, s.geometry, mp::PartitionerConfig{16, 4, true, 1.075});
  plan.validate(s.hist);  // throws on any violation
  EXPECT_LE(plan.part_count(), 16u);
  EXPECT_GE(plan.part_count(), 2u);
  EXPECT_EQ(plan.total_owned_points(), s.points.size());
}

TEST(Partitioner, PartitionsAreRoughlyBalanced) {
  TestData s(twitter_points(60000), 0.1);
  mp::PartitionerConfig config{32, 4, true, 1.075};
  const auto plan = mp::plan_partitions(s.hist, s.geometry, config);
  const double mean =
      static_cast<double>(plan.total_points_with_shadow()) /
      static_cast<double>(plan.part_count());
  // After rebalancing, every multi-cell partition except the first
  // respects the threshold: single-cell partitions cannot be subdivided
  // (the paper's dense-cell limit) and the first partition absorbs the
  // residue of the backward pass (Figure 2d). Shadow sizes drift as
  // ownership moves — more so with the 2*Eps halos — hence the 15% slack.
  for (std::size_t pi = 1; pi < plan.part_count(); ++pi) {
    const auto& part = plan.parts[pi];
    if (part.owned_cells.size() > 1) {
      EXPECT_LE(static_cast<double>(part.total_points()),
                config.rebalance_threshold * mean * 1.15)
          << "partition " << pi;
    }
  }
}

TEST(Partitioner, RebalanceShrinksLastPartition) {
  // Sequential packing dumps the residue into the last partition; the
  // rebalance pass must shrink it (Figure 2).
  TestData s(twitter_points(50000), 0.1);
  mp::PartitionerConfig no_reb{16, 4, false, 1.075};
  mp::PartitionerConfig reb{16, 4, true, 1.075};
  const auto before = mp::plan_partitions(s.hist, s.geometry, no_reb);
  const auto after = mp::plan_partitions(s.hist, s.geometry, reb);
  ASSERT_EQ(before.part_count(), after.part_count());
  const auto& last_before = before.parts.back();
  const auto& last_after = after.parts.back();
  EXPECT_LE(last_after.total_points(), last_before.total_points());

  // Spread (max/mean) must not get meaningfully worse. It is not strictly
  // monotone: trimming a boundary cell drags its whole 2*Eps halo into
  // the receiving partition, so on hot-spot-heavy inputs a trim can bump
  // another partition's total slightly above the old maximum.
  auto spread = [](const mp::PartitionPlan& plan) {
    std::uint64_t mx = 0, total = 0;
    for (const auto& p : plan.parts) {
      mx = std::max(mx, p.total_points());
      total += p.total_points();
    }
    return static_cast<double>(mx) * plan.part_count() /
           static_cast<double>(total);
  };
  EXPECT_LE(spread(after), spread(before) * 1.15);
}

TEST(Partitioner, ShadowRegionsAreExactlyTheNonOwnedNeighbors) {
  // Shadow = every non-empty cell within shadow_rings (2*Eps) of an owned
  // cell that the partition does not own itself — no more, no less.
  TestData s(twitter_points(20000), 0.1);
  const auto plan = mp::plan_partitions(
      s.hist, s.geometry, mp::PartitionerConfig{8, 4, true, 1.075});
  ASSERT_EQ(plan.shadow_rings, 2);
  for (std::size_t pi = 0; pi < plan.part_count(); ++pi) {
    const auto& part = plan.parts[pi];
    std::set<std::uint64_t> expected;
    for (const std::uint64_t code : part.owned_cells) {
      mg::for_each_neighbor_within(
          mg::cell_from_code(code), plan.shadow_rings, [&](mg::CellKey nbr) {
            if (s.hist.count_of(nbr) == 0) return;
            if (plan.owner_of(mg::cell_code(nbr)) == pi) return;
            expected.insert(mg::cell_code(nbr));
          });
    }
    std::set<std::uint64_t> got(part.shadow_cells.begin(),
                                part.shadow_cells.end());
    EXPECT_EQ(got, expected) << "partition " << pi;
  }
}

TEST(Partitioner, EveryPartitionHasAtLeastMinPtsWhenPossible) {
  TestData s(twitter_points(40000), 0.1);
  const std::size_t min_pts = 40;
  const auto plan = mp::plan_partitions(
      s.hist, s.geometry, mp::PartitionerConfig{32, min_pts, true, 1.075});
  for (const auto& part : plan.parts) {
    EXPECT_GE(part.owned_points, min_pts);
  }
}

TEST(Partitioner, SinglePartitionOwnsEverything) {
  TestData s(twitter_points(5000), 0.1);
  const auto plan = mp::plan_partitions(
      s.hist, s.geometry, mp::PartitionerConfig{1, 4, true, 1.075});
  ASSERT_EQ(plan.part_count(), 1u);
  EXPECT_EQ(plan.parts[0].owned_points, 5000u);
  EXPECT_TRUE(plan.parts[0].shadow_cells.empty());
}

TEST(Partitioner, MorePartsThanCellsClamps) {
  // 10 points in a handful of cells, 1000 requested partitions.
  TestData s(mrscan::data::uniform_points(10, mg::BBox{0, 0, 1, 1}, 3), 0.5);
  const auto plan = mp::plan_partitions(
      s.hist, s.geometry, mp::PartitionerConfig{1000, 1, true, 1.075});
  EXPECT_LE(plan.part_count(), s.hist.cell_count());
  plan.validate(s.hist);
}

TEST(Partitioner, EmptyHistogram) {
  mi::CellHistogram empty;
  const auto plan = mp::plan_partitions(
      empty, mg::GridGeometry{0, 0, 1.0},
      mp::PartitionerConfig{4, 4, true, 1.075});
  EXPECT_EQ(plan.part_count(), 0u);
}

TEST(Partitioner, PartitionsAreContiguousInGridOrder) {
  // Cells assigned to partition k must all precede cells of partition k+1
  // in grid order — before rebalancing moves boundary cells.
  TestData s(twitter_points(30000), 0.1);
  const auto plan = mp::plan_partitions(
      s.hist, s.geometry, mp::PartitionerConfig{8, 4, false, 1.075});
  mg::CellKey prev_max{INT32_MIN, INT32_MIN};
  for (const auto& part : plan.parts) {
    mg::CellKey lo{INT32_MAX, INT32_MAX}, hi{INT32_MIN, INT32_MIN};
    for (const std::uint64_t code : part.owned_cells) {
      const mg::CellKey k = mg::cell_from_code(code);
      if (k < lo) lo = k;
      if (hi < k) hi = k;
    }
    EXPECT_TRUE(prev_max < lo);
    prev_max = hi;
  }
}

TEST(Materialize, SegmentsContainOwnedAndShadowPoints) {
  TestData s(twitter_points(10000), 0.1);
  const auto plan = mp::plan_partitions(
      s.hist, s.geometry, mp::PartitionerConfig{4, 4, true, 1.075});
  const mi::Grid grid(s.geometry, s.points);
  const auto segments = materialize_all(plan, grid, s.points);
  ASSERT_EQ(segments.size(), plan.part_count());

  std::size_t total_owned = 0;
  std::unordered_set<std::uint64_t> seen_ids;
  for (std::size_t pi = 0; pi < segments.size(); ++pi) {
    EXPECT_EQ(segments[pi].owned.size(), plan.parts[pi].owned_points);
    EXPECT_EQ(segments[pi].shadow.size(), plan.parts[pi].shadow_points);
    total_owned += segments[pi].owned.size();
    for (const auto& p : segments[pi].owned) {
      EXPECT_TRUE(seen_ids.insert(p.id).second)
          << "point owned by two partitions";
    }
  }
  EXPECT_EQ(total_owned, s.points.size());
}

TEST(Materialize, ShadowPointsCompleteTheEpsNeighborhood) {
  // Correctness property from §3.1.1: for every owned point, its full
  // Eps-neighbourhood is present in the partition (owned + shadow).
  TestData s(twitter_points(4000), 0.1);
  const double eps = 0.1;
  const auto plan = mp::plan_partitions(
      s.hist, s.geometry, mp::PartitionerConfig{4, 4, true, 1.075});
  const mi::Grid grid(s.geometry, s.points);
  const auto segments = materialize_all(plan, grid, s.points);

  for (const auto& seg : segments) {
    std::unordered_set<std::uint64_t> present;
    for (const auto& p : seg.owned) present.insert(p.id);
    for (const auto& p : seg.shadow) present.insert(p.id);
    for (const auto& p : seg.owned) {
      for (const auto& q : s.points) {
        if (mg::within_eps(p, q, eps)) {
          EXPECT_TRUE(present.contains(q.id))
              << "missing neighbour " << q.id << " of owned point " << p.id;
        }
      }
    }
  }
}

TEST(Materialize, ShadowRepOptimisationShrinksDenseShadowCells) {
  TestData s(twitter_points(50000), 0.1);
  const auto plan = mp::plan_partitions(
      s.hist, s.geometry, mp::PartitionerConfig{8, 4, true, 1.075});
  const mi::Grid grid(s.geometry, s.points);
  const auto full = materialize_all(plan, grid, s.points);
  mp::MaterializeConfig opt;
  opt.shadow_rep_threshold = 32;
  const auto reduced = materialize_all(plan, grid, s.points, opt);

  std::size_t full_shadow = 0, reduced_shadow = 0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    full_shadow += full[i].shadow.size();
    reduced_shadow += reduced[i].shadow.size();
    // Owned contents are untouched by the optimisation.
    EXPECT_EQ(full[i].owned, reduced[i].owned);
  }
  EXPECT_LT(reduced_shadow, full_shadow);
}

TEST(RepPoints, AtMostEightAndFromCandidates) {
  const mg::GridGeometry g{0.0, 0.0, 1.0};
  const auto pts =
      mrscan::data::uniform_points(200, mg::BBox{0.0, 0.0, 1.0, 1.0}, 7);
  std::vector<std::uint32_t> all(pts.size());
  std::iota(all.begin(), all.end(), 0);
  const auto reps =
      mg::select_cell_representatives(g, mg::CellKey{0, 0}, pts, all);
  EXPECT_LE(reps.size(), 8u);
  EXPECT_GE(reps.size(), 1u);
  for (const auto idx : reps) EXPECT_LT(idx, pts.size());
  EXPECT_TRUE(std::is_sorted(reps.begin(), reps.end()));
}

TEST(RepPoints, CornerPointsAreChosen) {
  // Points exactly on the corners must be selected for those anchors.
  const mg::GridGeometry g{0.0, 0.0, 1.0};
  mg::PointSet pts{{0, 0.01, 0.01, 1.0f},
                   {1, 0.99, 0.01, 1.0f},
                   {2, 0.5, 0.5, 1.0f},
                   {3, 0.01, 0.99, 1.0f},
                   {4, 0.99, 0.99, 1.0f}};
  std::vector<std::uint32_t> all{0, 1, 2, 3, 4};
  const auto reps =
      mg::select_cell_representatives(g, mg::CellKey{0, 0}, pts, all);
  for (const std::uint32_t corner : {0u, 1u, 3u, 4u}) {
    EXPECT_NE(std::find(reps.begin(), reps.end(), corner), reps.end());
  }
}

TEST(RepPoints, EmptyCandidates) {
  const mg::GridGeometry g{0.0, 0.0, 1.0};
  mg::PointSet pts;
  EXPECT_TRUE(
      mg::select_cell_representatives(g, mg::CellKey{0, 0}, pts, {})
          .empty());
}

TEST(DistributedPartitioner, ProducesSamePlanAsSerial) {
  TestData s(twitter_points(20000), 0.1);
  mp::DistributedPartitionerConfig config;
  config.eps = 0.1;
  config.planner = mp::PartitionerConfig{8, 4, true, 1.075};
  config.partition_nodes = 4;
  const auto result = mp::run_distributed_partitioner(
      s.points, config, mrscan::sim::TitanParams{});

  const auto serial =
      mp::plan_partitions(s.hist, s.geometry, config.planner);
  ASSERT_EQ(result.plan.part_count(), serial.part_count());
  for (std::size_t pi = 0; pi < serial.part_count(); ++pi) {
    EXPECT_EQ(result.plan.parts[pi].owned_cells,
              serial.parts[pi].owned_cells);
    EXPECT_EQ(result.plan.parts[pi].shadow_points,
              serial.parts[pi].shadow_points);
  }
  ASSERT_EQ(result.segments.size(), serial.part_count());
}

TEST(DistributedPartitioner, OneMaterializeLoopForAnyThreadsAndSpooling) {
  // Each part writes only its own slot, so the segments are the same for
  // any worker count, and a spooled part's file decodes to exactly the
  // segment a resident run keeps.
  namespace fs = std::filesystem;
  TestData s(twitter_points(20000), 0.1);
  mp::DistributedPartitionerConfig config;
  config.eps = 0.1;
  config.planner = mp::PartitionerConfig{12, 4, true, 1.075};
  config.partition_nodes = 4;
  config.materialize.shadow_rep_threshold = 32;
  const mrscan::sim::TitanParams titan;

  config.host_threads = 1;
  const auto one = mp::run_distributed_partitioner(s.points, config, titan);
  config.host_threads = 4;
  const auto four = mp::run_distributed_partitioner(s.points, config, titan);
  ASSERT_GT(one.segments.size(), 4u);
  ASSERT_EQ(one.segments.size(), one.segment_counts.size());
  ASSERT_EQ(four.segments.size(), one.segments.size());
  ASSERT_EQ(four.segment_counts.size(), one.segment_counts.size());
  for (std::size_t pi = 0; pi < one.segments.size(); ++pi) {
    EXPECT_EQ(four.segments[pi].owned, one.segments[pi].owned) << pi;
    EXPECT_EQ(four.segments[pi].shadow, one.segments[pi].shadow) << pi;
    EXPECT_EQ(one.segment_counts[pi].owned, one.segments[pi].owned.size());
    EXPECT_EQ(one.segment_counts[pi].shadow, one.segments[pi].shadow.size());
    EXPECT_EQ(four.segment_counts[pi].owned, one.segment_counts[pi].owned);
    EXPECT_EQ(four.segment_counts[pi].shadow, one.segment_counts[pi].shadow);
  }

  const fs::path dir = fs::temp_directory_path() /
                       ("mrscan_materialize_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  config.spool_dir = dir;
  const auto spooled =
      mp::run_distributed_partitioner(s.points, config, titan);
  EXPECT_TRUE(spooled.segments.empty());
  ASSERT_EQ(spooled.segment_counts.size(), one.segments.size());
  for (std::size_t pi = 0; pi < one.segments.size(); ++pi) {
    const mrscan::io::MappedSegment mapped(
        mrscan::io::segment_file_path(dir, pi));
    mg::PointSet expected = one.segments[pi].owned;
    expected.insert(expected.end(), one.segments[pi].shadow.begin(),
                    one.segments[pi].shadow.end());
    EXPECT_EQ(mapped.owned_count(), one.segments[pi].owned.size()) << pi;
    EXPECT_EQ(mapped.decode_all(), expected) << pi;
    EXPECT_EQ(spooled.segment_counts[pi].owned,
              one.segment_counts[pi].owned);
    EXPECT_EQ(spooled.segment_counts[pi].shadow,
              one.segment_counts[pi].shadow);
  }
  fs::remove_all(dir);
}

TEST(DistributedPartitioner, TimesBreakdownIsPopulated) {
  TestData s(twitter_points(10000), 0.1);
  mp::DistributedPartitionerConfig config;
  config.eps = 0.1;
  config.planner = mp::PartitionerConfig{4, 4, true, 1.075};
  config.partition_nodes = 2;
  const auto result = mp::run_distributed_partitioner(
      s.points, config, mrscan::sim::TitanParams{});
  EXPECT_GT(result.read_seconds, 0.0);
  EXPECT_GT(result.write_seconds, 0.0);
  EXPECT_GT(result.histogram_reduce_seconds, 0.0);
  EXPECT_GT(result.sim_seconds, result.write_seconds);
  // The paper's observation: writes dominate reads for this pattern.
  EXPECT_GT(result.write_seconds, result.read_seconds);
}

TEST(DistributedPartitioner, ModelModeMatchesPlanOfRealMode) {
  TestData s(twitter_points(20000), 0.1);
  mp::DistributedPartitionerConfig config;
  config.eps = 0.1;
  config.planner = mp::PartitionerConfig{8, 4, true, 1.075};
  config.partition_nodes = 4;

  const auto real = mp::run_distributed_partitioner(
      s.points, config, mrscan::sim::TitanParams{});
  const auto model = mp::run_distributed_partitioner_model(
      s.hist, s.geometry, s.points.size(), config,
      mrscan::sim::TitanParams{});
  ASSERT_EQ(model.plan.part_count(), real.plan.part_count());
  for (std::size_t pi = 0; pi < model.plan.part_count(); ++pi) {
    EXPECT_EQ(model.plan.parts[pi].owned_cells,
              real.plan.parts[pi].owned_cells);
  }
  EXPECT_TRUE(model.segments.empty());
  EXPECT_GT(model.sim_seconds, 0.0);
}
