// Mr. Scan's GPGPU DBSCAN: CUDA-DClust plus the paper's two extensions
// (§3.2.2, §3.2.3).
//
// 1. Single host<->GPU round trip. Instead of copying block state after
//    every expansion iteration, the clustering is reorganised into two
//    passes whose kernels are issued in bulk: pass one classifies every
//    point's core flag (early-exiting each neighbourhood count at MinPts),
//    pass two expands only core points. The device sees one input copy and
//    one result copy, independent of point and block count.
//
// 2. Dense box elimination. KD-tree regions small enough that all their
//    points are mutually within Eps, holding >= MinPts points, are marked
//    as cluster members outright; those points are never expanded. This is
//    what flattens the run-time blowup in extremely dense cells.
//
// Because exact core flags exist before expansion, chain collisions are
// only recorded through *core* points — so clusters merge exactly when
// they share core connectivity, matching the DBSCAN definition (border
// ties remain order-dependent, as in any DBSCAN).
#pragma once

#include <span>

#include "cluster/algo.hpp"
#include "dbscan/labels.hpp"
#include "geometry/point.hpp"
#include "gpu/gpu_dbscan.hpp"
#include "index/backend.hpp"

namespace mrscan::gpu {

struct MrScanGpuConfig {
  dbscan::DbscanParams params;
  /// Concurrent expansion chains (GPGPU blocks).
  std::uint32_t block_count = 208;
  /// Points handled per block per bulk-issued classification kernel.
  std::uint32_t points_per_block = 256;
  /// KD-tree region-leaf capacity.
  std::size_t max_leaf_points = 64;
  /// Enable the dense box optimisation (off = ablation). Two-pass path
  /// only: the cell-graph path's cell-core rule strictly generalizes it.
  bool dense_box = true;
  /// Per-leaf cluster formulation: the CUDA-DClust-style two-pass path
  /// (the oracle) or the cell-graph path (DESIGN §12). Both produce the
  /// same clustering; the differential battery proves it.
  cluster::ClusterAlgo cluster_algo = cluster::ClusterAlgo::kTwoPass;
  /// Always the region-leaf KD-tree (see index/backend.hpp).
  index::Backend index_backend = index::Backend::kKdTree;
};

/// Cluster `points` with Mr. Scan's GPGPU DBSCAN on `device`.
GpuDbscanResult mrscan_gpu_dbscan(std::span<const geom::Point> points,
                                  const MrScanGpuConfig& config,
                                  VirtualDevice& device);

}  // namespace mrscan::gpu
