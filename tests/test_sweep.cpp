#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <unistd.h>

#include "data/synthetic.hpp"
#include "sweep/sweep.hpp"

namespace mg = mrscan::geom;
namespace md = mrscan::dbscan;
namespace msw = mrscan::sweep;
namespace mm = mrscan::merge;
namespace fs = std::filesystem;

TEST(Sweep, GlobalIdsAndOffsetsFromClusterSizes) {
  mm::MergeSummary root;
  root.clusters.resize(3);
  root.clusters[0].owned_points = 100;
  root.clusters[1].owned_points = 50;
  root.clusters[2].owned_points = 7;
  const auto assignment = msw::assign_global_ids(root);
  EXPECT_EQ(assignment.cluster_count, 3u);
  EXPECT_EQ(assignment.offsets,
            (std::vector<std::uint64_t>{0, 100, 150, 157}));
}

TEST(Sweep, EmptyRootSummary) {
  const auto assignment = msw::assign_global_ids(mm::MergeSummary{});
  EXPECT_EQ(assignment.cluster_count, 0u);
  EXPECT_EQ(assignment.offsets, (std::vector<std::uint64_t>{0}));
}

TEST(Sweep, LabelOwnedPointsMapsLocalToGlobal) {
  mg::PointSet pts{{10, 0, 0, 1}, {11, 1, 0, 1}, {12, 2, 0, 1}};
  md::Labeling labels;
  labels.cluster = {0, md::kNoise, 1};
  labels.core = {1, 0, 1};
  const std::vector<std::int64_t> global{42, 7};
  const auto records = msw::label_owned_points(pts, labels, global);
  ASSERT_EQ(records.size(), 2u);  // noise dropped
  EXPECT_EQ(records[0].point.id, 10u);
  EXPECT_EQ(records[0].cluster, 42);
  EXPECT_EQ(records[1].point.id, 12u);
  EXPECT_EQ(records[1].cluster, 7);
}

TEST(Sweep, KeepNoiseOptionRetainsNoisePoints) {
  mg::PointSet pts{{10, 0, 0, 1}, {11, 1, 0, 1}};
  md::Labeling labels;
  labels.cluster = {md::kNoise, 0};
  labels.core = {0, 1};
  const std::vector<std::int64_t> global{3};
  const auto records =
      msw::label_owned_points(pts, labels, global, /*keep_noise=*/true);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].cluster, md::kNoise);
  EXPECT_EQ(records[1].cluster, 3);
}

TEST(Sweep, LabelOutOfRangeThrows) {
  mg::PointSet pts{{1, 0, 0, 1}};
  md::Labeling labels;
  labels.cluster = {5};
  labels.core = {1};
  const std::vector<std::int64_t> global{0};  // only cluster 0 mapped
  EXPECT_THROW(msw::label_owned_points(pts, labels, global),
               std::invalid_argument);
}

TEST(Sweep, LabeledFileRoundTrip) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("mrscan_sweep_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  std::vector<msw::LabeledPoint> records{
      {{1, 0.5, -0.5, 1.0f}, 0},
      {{2, 1.5, 2.5, 0.25f}, 0},
      {{3, -3.5, 4.0, 1.0f}, 7},
  };
  const fs::path path = dir / "out.txt";
  msw::write_labeled_text(path, records);
  const auto back = msw::read_labeled_text(path);
  EXPECT_EQ(back, records);
  fs::remove_all(dir);
}

TEST(Sweep, LabeledTextBytesMatchPrintf) {
  // The encoder is specified as printf("%.17g") per double, with the
  // float weight widened to double; edge values must not drift from it.
  using lim = std::numeric_limits<double>;
  const std::vector<msw::LabeledPoint> records{
      {{0, -0.0, 0.0, 0.1f}, 0},
      {{1, lim::denorm_min(), -lim::denorm_min(), 1.0f}, 3},
      {{2, 2.2250738585072009e-308, lim::min(), 0.25f}, 1},
      {{3, 1e300, -1e300, -2.5f}, md::kNoise},
      {{4, 3.0, 1e15, std::numeric_limits<float>::denorm_min()}, 12},
      {{5, 9007199254740992.0, -123456789.0, 1e30f}, 7},
      {{6, 0.1, 1.0 / 3.0, std::numeric_limits<float>::max()}, 2},
      {{7, lim::max(), -lim::max(), -0.0f}, 0},
      {{std::numeric_limits<std::uint64_t>::max(), 150.123456789,
        -10.000000000000002, 1.0f},
       std::numeric_limits<std::int64_t>::max()},
  };
  std::string expected;
  for (const msw::LabeledPoint& r : records) {
    char line[256];
    std::snprintf(line, sizeof line, "%llu %.17g %.17g %.17g %lld\n",
                  static_cast<unsigned long long>(r.point.id), r.point.x,
                  r.point.y, static_cast<double>(r.point.weight),
                  static_cast<long long>(r.cluster));
    expected += line;
  }

  const fs::path dir = fs::temp_directory_path() /
                       ("mrscan_sweep_bytes_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const fs::path path = dir / "out.txt";
  msw::write_labeled_text(path, records);
  std::ifstream in(path, std::ios::binary);
  const std::string got{std::istreambuf_iterator<char>(in), {}};
  EXPECT_EQ(got, expected);

  const auto back = msw::read_labeled_text(path);
  ASSERT_EQ(back.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(back[i], records[i]) << "record " << i;
    EXPECT_EQ(std::signbit(back[i].point.x), std::signbit(records[i].point.x))
        << "record " << i;
  }
  fs::remove_all(dir);
}

TEST(Sweep, LabeledTextSpansManyBufferFlushes) {
  // Enough records to fill the 64 KiB encode buffer many times over; the
  // bytes must still be the plain concatenation of the records.
  const auto pts =
      mrscan::data::uniform_points(20000, mg::BBox{-180, -90, 180, 90}, 5);
  std::vector<msw::LabeledPoint> records;
  std::string expected;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    records.push_back({pts[i], static_cast<md::ClusterId>(i % 97) - 1});
    char line[256];
    std::snprintf(line, sizeof line, "%llu %.17g %.17g %.17g %lld\n",
                  static_cast<unsigned long long>(pts[i].id), pts[i].x,
                  pts[i].y, static_cast<double>(pts[i].weight),
                  static_cast<long long>(records.back().cluster));
    expected += line;
  }
  ASSERT_GT(expected.size(), 8u * 64 * 1024);
  const fs::path path = fs::temp_directory_path() /
                        ("mrscan_sweep_big_" + std::to_string(::getpid()));
  msw::write_labeled_text(path, records);
  std::ifstream in(path, std::ios::binary);
  const std::string got{std::istreambuf_iterator<char>(in), {}};
  EXPECT_EQ(got, expected);
  EXPECT_EQ(msw::read_labeled_text(path), records);
  fs::remove(path);
}

TEST(Sweep, LabelsInInputOrderAlignsById) {
  mg::PointSet pts{{5, 0, 0, 1}, {6, 1, 1, 1}, {7, 2, 2, 1}};
  std::vector<msw::LabeledPoint> records{{{7, 2, 2, 1}, 1},
                                         {{5, 0, 0, 1}, 0}};
  const auto labels = msw::labels_in_input_order(pts, records);
  EXPECT_EQ(labels,
            (std::vector<md::ClusterId>{0, md::kNoise, 1}));
}
