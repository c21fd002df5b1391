// Deep invariant audit of dense-box detection (phase boundary: cluster).
//
// Checks what detect_dense_boxes promises (§3.2.3):
//   * every marked leaf holds >= MinPts points and fits in a box of side
//     <= (sqrt(2)/2) * Eps, so its diagonal is <= Eps and all members are
//     mutually Eps-reachable core points;
//   * the point -> box map agrees exactly with the marked leaves' member
//     ranges, every member lies inside its leaf's bounding box, and the
//     covered-point total is consistent.
//
// Aborts via MRSCAN_AUDIT_ASSERT on any violation. Compiled always,
// called from detect_dense_boxes only when MRSCAN_CHECK_INVARIANTS is ON.
#pragma once

#include <cstddef>

#include "gpu/dense_box.hpp"
#include "index/kdtree.hpp"

namespace mrscan::gpu {

void audit_dense_boxes(const DenseBoxes& boxes, const index::KDTree& tree,
                       double eps, std::size_t min_pts);

}  // namespace mrscan::gpu
