#include "gpu/dense_box.hpp"

#include "gpu/audit.hpp"
#include "util/assert.hpp"
#include "util/audit.hpp"

namespace mrscan::gpu {

DenseBoxes detect_dense_boxes(const index::KDTree& tree, double eps,
                              std::size_t min_pts) {
  MRSCAN_REQUIRE(eps > 0.0);
  MRSCAN_REQUIRE(min_pts >= 1);

  DenseBoxes result;
  result.box_of_point.assign(tree.point_count(), DenseBoxes::kNone);

  const double side = dense_box_side(eps);
  const auto leaves = tree.leaves();
  for (std::uint32_t leaf_id = 0; leaf_id < leaves.size(); ++leaf_id) {
    const auto& leaf = leaves[leaf_id];
    if (leaf.size() < min_pts) continue;
    if (leaf.box.width() > side || leaf.box.height() > side) continue;
    const auto box_ordinal = static_cast<std::uint32_t>(result.leaf_ids.size());
    result.leaf_ids.push_back(leaf_id);
    for (std::uint32_t i = leaf.begin; i < leaf.end; ++i) {
      result.box_of_point[tree.order()[i]] = box_ordinal;
    }
    result.covered_points += leaf.size();
  }

  if constexpr (util::kAuditEnabled) {
    audit_dense_boxes(result, tree, eps, min_pts);
  }
  return result;
}

}  // namespace mrscan::gpu
