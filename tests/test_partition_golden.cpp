// Partition plans pinned byte for byte, and shadows checked against
// their definition.
//
// The golden digests were recorded with the hash-map planner that the
// flat-array backward rebalancer replaced; any change to owned cells,
// their order, shadow cells or point counts moves a digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "data/sdss.hpp"
#include "data/twitter.hpp"
#include "geometry/bbox.hpp"
#include "partition/partitioner.hpp"
#include "util/fnv.hpp"

namespace mg = mrscan::geom;
namespace mi = mrscan::index;
namespace mp = mrscan::partition;

namespace {

enum class Shape { kTwitter, kSdss, kTwitterCentred };

const char* shape_name(Shape shape) {
  switch (shape) {
    case Shape::kTwitter:
      return "twitter";
    case Shape::kSdss:
      return "sdss";
    case Shape::kTwitterCentred:
      return "twitter-centred";
  }
  return "?";
}

mg::PointSet fixture_points(Shape shape) {
  if (shape == Shape::kSdss) {
    mrscan::data::SdssConfig config;
    config.num_points = 20000;
    config.seed = 1;
    config.window = mg::BBox{150.0, 10.0, 152.0, 10.4};
    return mrscan::data::generate_sdss(config);
  }
  mrscan::data::TwitterConfig config;
  config.num_points = 20000;
  config.seed = 1;
  return mrscan::data::generate_twitter(config);
}

/// The distributed partitioner's grid: origin at the data's lower-left
/// corner, cell side Eps / cell_refine. The centred variant puts the
/// origin mid-box so cell coordinates run negative on both axes, where
/// code order and grid order part ways.
mg::GridGeometry fixture_geometry(Shape shape, const mg::PointSet& points,
                                  std::size_t cell_refine) {
  const mg::BBox box = mg::bbox_of(points);
  const double eps = shape == Shape::kSdss ? 0.00015 : 0.1;
  const double side = eps / static_cast<double>(cell_refine);
  if (shape == Shape::kTwitterCentred) {
    return {0.5 * (box.min_x + box.max_x), 0.5 * (box.min_y + box.max_y),
            side};
  }
  return {box.min_x, box.min_y, side};
}

std::uint64_t plan_digest(const mp::PartitionPlan& plan) {
  using mrscan::util::fnv1a_u64;
  std::uint64_t h = fnv1a_u64(static_cast<std::uint64_t>(plan.shadow_rings));
  h = fnv1a_u64(plan.part_count(), h);
  for (const mp::PartitionPart& part : plan.parts) {
    h = fnv1a_u64(part.owned_cells.size(), h);
    for (const std::uint64_t code : part.owned_cells) h = fnv1a_u64(code, h);
    h = fnv1a_u64(part.shadow_cells.size(), h);
    for (const std::uint64_t code : part.shadow_cells) h = fnv1a_u64(code, h);
    h = fnv1a_u64(part.owned_points, h);
    h = fnv1a_u64(part.shadow_points, h);
  }
  return h;
}

struct Golden {
  Shape shape;
  std::size_t leaves;
  std::size_t cell_refine;
  bool shadows;
  std::uint64_t digest;
  std::uint64_t rebalance_moves;
};

// Fixtures x leaves {16, 256, 1024} x cell_refine {1, 2} x shadows.
// clang-format off
constexpr Golden kGolden[] = {
  {Shape::kTwitter, 16, 1, true, 0x1c8bd43e30b0ca12ULL, 579},
  {Shape::kTwitter, 16, 1, false, 0xc21097ac3d22d905ULL, 3031},
  {Shape::kTwitter, 16, 2, true, 0x7c6e075548d1ca1aULL, 820},
  {Shape::kTwitter, 16, 2, false, 0xff1654bfc6bb8746ULL, 4985},
  {Shape::kTwitter, 256, 1, true, 0x13746edfc4b7134dULL, 1084},
  {Shape::kTwitter, 256, 1, false, 0x0fb9c46ad4e7b1fbULL, 880},
  {Shape::kTwitter, 256, 2, true, 0x63a2c4b25ed5b620ULL, 1566},
  {Shape::kTwitter, 256, 2, false, 0x867ce7b2cdd20095ULL, 2692},
  {Shape::kTwitter, 1024, 1, true, 0x75e8f209f468ecc3ULL, 246},
  {Shape::kTwitter, 1024, 1, false, 0x7d6603959fe65fc8ULL, 2157},
  {Shape::kTwitter, 1024, 2, true, 0x91d30b71e9905a78ULL, 415},
  {Shape::kTwitter, 1024, 2, false, 0xb7f2736e7a9ed838ULL, 4029},
  {Shape::kSdss, 16, 1, true, 0xb4ef52adec1451dfULL, 0},
  {Shape::kSdss, 16, 1, false, 0x30f5f6910c1661a7ULL, 0},
  {Shape::kSdss, 16, 2, true, 0xb3621d1cf3c5106fULL, 0},
  {Shape::kSdss, 16, 2, false, 0xd2d2cdaf2d3383e8ULL, 0},
  {Shape::kSdss, 256, 1, true, 0x0ab51df4a3a80d99ULL, 5403},
  {Shape::kSdss, 256, 1, false, 0x5289ed24890d412fULL, 15434},
  {Shape::kSdss, 256, 2, true, 0x194a0d6cab55b3b3ULL, 1279},
  {Shape::kSdss, 256, 2, false, 0x15fd6e8265db4d96ULL, 2985},
  {Shape::kSdss, 1024, 1, true, 0xef519369fa3fd144ULL, 144588},
  {Shape::kSdss, 1024, 1, false, 0x9c14b79e0fa8f15cULL, 802670},
  {Shape::kSdss, 1024, 2, true, 0x0543c441e5bde654ULL, 182716},
  {Shape::kSdss, 1024, 2, false, 0x04177f944b2624a0ULL, 479795},
  {Shape::kTwitterCentred, 16, 1, true, 0x2b4de24051a209dbULL, 579},
  {Shape::kTwitterCentred, 16, 1, false, 0x02a87180aff6b0dbULL, 3031},
  {Shape::kTwitterCentred, 16, 2, true, 0xd5f17b64993015b9ULL, 820},
  {Shape::kTwitterCentred, 16, 2, false, 0x7c3f792a06393bb6ULL, 4985},
  {Shape::kTwitterCentred, 256, 1, true, 0x8feb73aebebc402fULL, 1084},
  {Shape::kTwitterCentred, 256, 1, false, 0x4da55cfbf62bd651ULL, 880},
  {Shape::kTwitterCentred, 256, 2, true, 0xe0aca562dda52b06ULL, 1566},
  {Shape::kTwitterCentred, 256, 2, false, 0x574f84244f5cf941ULL, 2692},
  {Shape::kTwitterCentred, 1024, 1, true, 0x84885d7435b2431cULL, 246},
  {Shape::kTwitterCentred, 1024, 1, false, 0xfeb7dcf377c331d6ULL, 2157},
  {Shape::kTwitterCentred, 1024, 2, true, 0xaaac5f1b2ea6baabULL, 415},
  {Shape::kTwitterCentred, 1024, 2, false, 0xbc63905a05b0cde8ULL, 4029},
};
// clang-format on

struct Fixture {
  mg::PointSet points;
  mg::GridGeometry geometry;
  mi::CellHistogram hist;
};

const Fixture& fixture(Shape shape, std::size_t cell_refine) {
  static std::vector<std::pair<std::pair<Shape, std::size_t>, Fixture>>
      cache;
  for (const auto& [key, f] : cache) {
    if (key == std::pair{shape, cell_refine}) return f;
  }
  mg::PointSet points = fixture_points(shape);
  const mg::GridGeometry geometry =
      fixture_geometry(shape, points, cell_refine);
  mi::CellHistogram hist(geometry, points);
  cache.push_back({{shape, cell_refine},
                   Fixture{std::move(points), geometry, std::move(hist)}});
  return cache.back().second;
}

std::string label(const Golden& g) {
  return std::string(shape_name(g.shape)) + " leaves=" +
         std::to_string(g.leaves) + " refine=" +
         std::to_string(g.cell_refine) +
         (g.shadows ? " shadows" : " no-shadows");
}

mp::PartitionerConfig planner_config(const Golden& g) {
  mp::PartitionerConfig config;
  config.target_parts = g.leaves;
  config.min_pts = g.shape == Shape::kSdss ? 5 : 10;
  config.shadow_regions = g.shadows;
  config.cell_refine = g.cell_refine;
  return config;
}

}  // namespace

TEST(PartitionGolden, PlansMatchRecordedDigests) {
  for (const Golden& g : kGolden) {
    const Fixture& f = fixture(g.shape, g.cell_refine);
    const mp::PartitionPlan plan =
        mp::plan_partitions(f.hist, f.geometry, planner_config(g));
    const std::uint64_t digest = plan_digest(plan);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, g.digest) << label(g) << ": digest " << hex;
    EXPECT_EQ(plan.rebalance_moves, g.rebalance_moves) << label(g);
  }
}

TEST(PartitionGolden, ShadowsMatchTheirDefinitionAfterRebalancing) {
  // Shadow of part p = every non-empty cell within shadow_rings of a cell
  // p owns that p does not own itself; shadow_points is their point sum.
  for (const Golden& g : kGolden) {
    if (!g.shadows || g.rebalance_moves == 0) continue;
    const Fixture& f = fixture(g.shape, g.cell_refine);
    const mp::PartitionPlan plan =
        mp::plan_partitions(f.hist, f.geometry, planner_config(g));
    for (std::uint32_t pi = 0; pi < plan.part_count(); ++pi) {
      const mp::PartitionPart& part = plan.parts[pi];
      std::vector<std::uint64_t> expected;
      for (const std::uint64_t code : part.owned_cells) {
        mg::for_each_neighbor_within(
            mg::cell_from_code(code), plan.shadow_rings, [&](mg::CellKey n) {
              if (f.hist.count_of(n) == 0) return;
              if (plan.owner_of(mg::cell_code(n)) == pi) return;
              expected.push_back(mg::cell_code(n));
            });
      }
      std::sort(expected.begin(), expected.end());
      expected.erase(std::unique(expected.begin(), expected.end()),
                     expected.end());
      std::uint64_t expected_points = 0;
      for (const std::uint64_t code : expected) {
        expected_points += f.hist.count_of(mg::cell_from_code(code));
      }
      ASSERT_EQ(part.shadow_cells, expected) << label(g) << " part " << pi;
      ASSERT_EQ(part.shadow_points, expected_points)
          << label(g) << " part " << pi;
    }
  }
}
