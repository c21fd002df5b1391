#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "data/synthetic.hpp"
#include "io/point_file.hpp"
#include "io/text_writer.hpp"

namespace mg = mrscan::geom;
namespace mio = mrscan::io;
namespace fs = std::filesystem;

namespace {

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mrscan_io_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

using PointFileTest = TempDir;

mg::PointSet sample_points(std::size_t n) {
  return mrscan::data::uniform_points(n, mg::BBox{-5.0, -5.0, 5.0, 5.0}, 99);
}

}  // namespace

TEST_F(PointFileTest, BinaryRoundTrip) {
  const auto pts = sample_points(1234);
  const auto path = dir_ / "pts.bin";
  mio::write_points_binary(path, pts);
  EXPECT_EQ(mio::binary_point_count(path), pts.size());
  EXPECT_EQ(mio::read_points_binary(path), pts);
}

TEST_F(PointFileTest, BinaryRangeRead) {
  const auto pts = sample_points(100);
  const auto path = dir_ / "pts.bin";
  mio::write_points_binary(path, pts);
  const auto mid = mio::read_points_binary_range(path, 30, 20);
  ASSERT_EQ(mid.size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(mid[i], pts[30 + i]);
  const auto none = mio::read_points_binary_range(path, 100, 0);
  EXPECT_TRUE(none.empty());
}

TEST_F(PointFileTest, BinaryRangeOutOfBoundsThrows) {
  const auto pts = sample_points(10);
  const auto path = dir_ / "pts.bin";
  mio::write_points_binary(path, pts);
  EXPECT_THROW(mio::read_points_binary_range(path, 5, 6),
               std::runtime_error);
}

TEST_F(PointFileTest, BinaryEmptyFile) {
  const auto path = dir_ / "empty.bin";
  mio::write_points_binary(path, mg::PointSet{});
  EXPECT_EQ(mio::binary_point_count(path), 0u);
  EXPECT_TRUE(mio::read_points_binary(path).empty());
}

TEST_F(PointFileTest, BinaryRejectsGarbage) {
  const auto path = dir_ / "garbage.bin";
  std::ofstream(path) << "this is not a point file at all";
  EXPECT_THROW(mio::read_points_binary(path), std::runtime_error);
}

TEST_F(PointFileTest, MissingFileThrows) {
  EXPECT_THROW(mio::read_points_binary(dir_ / "nope.bin"),
               std::runtime_error);
  EXPECT_THROW(mio::read_points_text(dir_ / "nope.txt"), std::runtime_error);
}

TEST_F(PointFileTest, TextRoundTrip) {
  const auto pts = sample_points(200);
  const auto path = dir_ / "pts.txt";
  mio::write_points_text(path, pts);
  const auto back = mio::read_points_text(path);
  ASSERT_EQ(back.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(back[i].id, pts[i].id);
    EXPECT_DOUBLE_EQ(back[i].x, pts[i].x);
    EXPECT_DOUBLE_EQ(back[i].y, pts[i].y);
  }
}

TEST_F(PointFileTest, TextBytesMatchPrintf) {
  const mg::PointSet pts{
      {0, -0.0, 5e-324, 0.1f},
      {42, 1e300, -1e300, 1.0f},
      {std::numeric_limits<std::uint64_t>::max(), 3.0, 0.1, 0.3f},
  };
  std::string expected;
  for (const mg::Point& p : pts) {
    char line[256];
    std::snprintf(line, sizeof line, "%llu %.17g %.17g %.17g\n",
                  static_cast<unsigned long long>(p.id), p.x, p.y,
                  static_cast<double>(p.weight));
    expected += line;
  }
  const auto path = dir_ / "edge.txt";
  mio::write_points_text(path, pts);
  std::ifstream in(path, std::ios::binary);
  const std::string got{std::istreambuf_iterator<char>(in), {}};
  EXPECT_EQ(got, expected);
}

TEST_F(PointFileTest, TextWriterReportsErrnoContext) {
  try {
    mio::write_points_text(dir_ / "missing" / "pts.txt", sample_points(3));
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cannot open for writing"), std::string::npos);
    EXPECT_NE(what.find("No such file or directory"), std::string::npos);
  }
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  try {
    mio::TextRecordWriter out("/dev/full");
    out.write(mg::Point{1, 2.0, 3.0, 1.0f});
    out.close();
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("write failed"), std::string::npos);
    EXPECT_NE(what.find("No space left on device"), std::string::npos);
  }
}

TEST_F(PointFileTest, TextSkipsCommentsAndOptionalWeight) {
  const auto path = dir_ / "hand.txt";
  std::ofstream(path) << "# header comment\n"
                      << "7 1.5 -2.5 0.5\n"
                      << "\n"
                      << "8 3.0 4.0\n";
  const auto pts = mio::read_points_text(path);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].id, 7u);
  EXPECT_FLOAT_EQ(pts[0].weight, 0.5f);
  EXPECT_EQ(pts[1].id, 8u);
  EXPECT_FLOAT_EQ(pts[1].weight, 1.0f);
}
