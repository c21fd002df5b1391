#include "index/kdtree.hpp"

#include <algorithm>
#include <numeric>

#include "util/assert.hpp"

namespace mrscan::index {

KDTree::KDTree(std::span<const geom::Point> points, KDTreeConfig config)
    : points_(points), config_(config) {
  MRSCAN_REQUIRE(config.max_leaf_points >= 1);
  order_.resize(points.size());
  std::iota(order_.begin(), order_.end(), std::uint32_t{0});
  point_leaf_.resize(points.size());
  if (!points.empty()) {
    nodes_.reserve(points.size() / config.max_leaf_points * 2 + 2);
    build(0, static_cast<std::uint32_t>(points.size()), 0);
  }
  // SoA mirror: copy coordinates into leaf order once, after the build has
  // settled order_. Leaf scans then read consecutive doubles instead of
  // gathering 32-byte Point records through order_[i].
  leaf_x_.resize(points.size());
  leaf_y_.resize(points.size());
  for (std::size_t i = 0; i < order_.size(); ++i) {
    leaf_x_[i] = points_[order_[i]].x;
    leaf_y_[i] = points_[order_[i]].y;
  }
}

std::uint32_t KDTree::build(std::uint32_t begin, std::uint32_t end,
                            int depth) {
  const std::uint32_t node_id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();

  geom::BBox box;
  for (std::uint32_t i = begin; i < end; ++i) box.expand(points_[order_[i]]);

  const std::size_t n = end - begin;
  const bool small_enough = n <= config_.max_leaf_points;
  const bool extent_stop =
      config_.min_leaf_extent > 0.0 &&
      box.width() <= config_.min_leaf_extent &&
      box.height() <= config_.min_leaf_extent;

  if (small_enough || extent_stop || depth > 48) {
    Node& node = nodes_[node_id];
    node.box = box;
    node.axis = -1;
    node.leaf_id = static_cast<std::uint32_t>(leaves_.size());
    leaves_.push_back(Leaf{box, begin, end});
    for (std::uint32_t i = begin; i < end; ++i)
      point_leaf_[order_[i]] = node.leaf_id;
    return node_id;
  }

  // Split along the wider axis at the median (CUDA-DClust alternates axes;
  // widest-axis splits behave identically on isotropic data and degrade
  // more gracefully on elongated regions).
  const int axis = box.width() >= box.height() ? 0 : 1;
  const std::uint32_t mid = begin + static_cast<std::uint32_t>(n / 2);
  std::nth_element(order_.begin() + begin, order_.begin() + mid,
                   order_.begin() + end,
                   [&](std::uint32_t a, std::uint32_t b) {
                     return axis == 0 ? points_[a].x < points_[b].x
                                      : points_[a].y < points_[b].y;
                   });

  const std::uint32_t left = build(begin, mid, depth + 1);
  const std::uint32_t right = build(mid, end, depth + 1);
  Node& node = nodes_[node_id];
  node.box = box;
  node.axis = static_cast<std::int8_t>(axis);
  node.left = left;
  node.right = right;
  return node_id;
}

bool KDTree::leaf_within(const Leaf& leaf, const geom::Point& p,
                         double r2) const {
  // The far corner, per axis the side whose difference squares larger,
  // through the same dx*dx + dy*dy the scans evaluate.
  const double ax = p.x - leaf.box.min_x;
  const double bx = p.x - leaf.box.max_x;
  const double ay = p.y - leaf.box.min_y;
  const double by = p.y - leaf.box.max_y;
  return std::max(ax * ax, bx * bx) + std::max(ay * ay, by * by) <= r2;
}

bool KDTree::in_radius(std::uint32_t i, const geom::Point& p,
                       double r2) const {
  const double dx = p.x - leaf_x_[i];
  const double dy = p.y - leaf_y_[i];
  return dx * dx + dy * dy <= r2;
}

std::uint32_t KDTree::count_in_leaf(const Leaf& leaf, const geom::Point& p,
                                    double r2) const {
  if (leaf_within(leaf, p, r2)) return leaf.size();
  std::uint32_t count = 0;
  for (std::uint32_t i = leaf.begin; i < leaf.end; ++i) {
    count += in_radius(i, p, r2);
  }
  return count;
}

namespace {

/// Branch-free compaction: write every ids[i] and advance the cursor by
/// hit(i), so no per-point branch depends on the data.
template <typename Hit>
std::uint32_t compact(const std::uint32_t* ids, std::uint32_t begin,
                      std::uint32_t end, std::uint32_t* out, Hit&& hit) {
  std::uint32_t n = 0;
  for (std::uint32_t i = begin; i < end; ++i) {
    out[n] = ids[i];
    n += hit(i);
  }
  return n;
}

}  // namespace

std::uint32_t KDTree::scan_leaf(const Leaf& leaf, const geom::Point& p,
                                double r2, const std::uint8_t* keep,
                                std::uint32_t* out) const {
  const std::uint32_t* ids = order_.data();
  const auto kept = [keep](std::uint32_t i) {
    return static_cast<std::uint32_t>(keep[i] != 0);
  };
  if (leaf_within(leaf, p, r2)) {
    if (keep != nullptr) return compact(ids, leaf.begin, leaf.end, out, kept);
    std::copy(ids + leaf.begin, ids + leaf.end, out);
    return leaf.size();
  }
  const auto hit = [&](std::uint32_t i) {
    return static_cast<std::uint32_t>(in_radius(i, p, r2));
  };
  if (keep == nullptr) return compact(ids, leaf.begin, leaf.end, out, hit);
  return compact(ids, leaf.begin, leaf.end, out,
                 [&](std::uint32_t i) { return hit(i) & kept(i); });
}

std::span<const std::uint32_t> KDTree::leaf_hits(
    const Leaf& leaf, const geom::Point& p, double r2,
    const std::uint8_t* keep, QueryScratch& scratch) const {
  auto& hits = scratch.results;
  if (hits.size() < leaf.size()) hits.resize(leaf.size());
  return {hits.data(), scan_leaf(leaf, p, r2, keep, hits.data())};
}

std::size_t KDTree::count_in_radius(const geom::Point& p, double radius,
                                    QueryScratch& scratch,
                                    std::size_t at_least,
                                    std::uint64_t* ops) const {
  const double r2 = radius * radius;
  std::size_t count = 0;
  std::uint64_t work = 0;
  for_each_leaf_in_radius(p, radius, scratch, [&](std::uint32_t leaf_id) {
    const Leaf& leaf = leaves_[leaf_id];
    const std::size_t found = count_in_leaf(leaf, p, r2);
    if (at_least == 0 || count + found < at_least) {
      count += found;
      work += leaf.size();
      return true;
    }
    // This leaf completes at_least. Charge the points up to and including
    // the one that completes it, as a scan that stopped there would: all
    // of a contained leaf's points are hits, otherwise rescan to find it.
    const std::size_t need = at_least - count;
    if (leaf_within(leaf, p, r2)) {
      work += need;
    } else {
      std::size_t seen = 0;
      for (std::uint32_t i = leaf.begin; seen < need; ++i) {
        seen += in_radius(i, p, r2);
        ++work;
      }
    }
    count = at_least;
    return false;
  });
  if (ops) *ops += work;
  return count;
}

std::span<const std::uint32_t> KDTree::radius_query(
    const geom::Point& p, double radius, QueryScratch& scratch,
    std::uint64_t* ops) const {
  // scratch.results only grows: each leaf scan needs room to write all of
  // the leaf's indices before the cursor settles.
  auto& out = scratch.results;
  const double r2 = radius * radius;
  std::size_t n = 0;
  std::uint64_t work = 0;
  for_each_leaf_in_radius(p, radius, scratch, [&](std::uint32_t leaf_id) {
    const Leaf& leaf = leaves_[leaf_id];
    work += leaf.size();
    if (out.size() < n + leaf.size()) {
      out.resize(std::max(n + leaf.size(), 2 * out.size()));
    }
    n += scan_leaf(leaf, p, r2, nullptr, out.data() + n);
    return true;
  });
  if (ops) *ops += work;
  return {out.data(), n};
}

std::size_t KDTree::count_in_radius(const geom::Point& p, double radius,
                                    std::size_t at_least,
                                    std::uint64_t* ops) const {
  QueryScratch scratch;
  return count_in_radius(p, radius, scratch, at_least, ops);
}

void KDTree::radius_query(const geom::Point& p, double radius,
                          std::vector<std::uint32_t>& out,
                          std::uint64_t* ops) const {
  QueryScratch scratch;
  scratch.results.swap(out);  // reuse the caller's capacity
  const std::size_t found = radius_query(p, radius, scratch, ops).size();
  scratch.results.resize(found);
  scratch.results.swap(out);
}

}  // namespace mrscan::index
