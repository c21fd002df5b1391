#include "gpu/mrscan_gpu.hpp"

#include <algorithm>
#include <deque>
#include <vector>

#include "cluster/cell_graph_ops.hpp"
#include "cluster/union_find.hpp"
#include "geometry/bbox.hpp"
#include "gpu/dense_box.hpp"
#include "gpu/device_layout.hpp"
#include "index/grid.hpp"
#include "index/kdtree.hpp"
#include "index/query_scratch.hpp"
#include "util/assert.hpp"

namespace mrscan::gpu {

namespace {

constexpr std::uint32_t kNoChain = 0xffffffffu;

/// Connect dense boxes that are mutually Eps-reachable. Two dense boxes
/// whose point sets contain an Eps-close pair belong to one cluster; since
/// dense points are never expanded, this link must be established
/// explicitly. Candidate pairs are found through a coarse 2 Eps grid over
/// box centres (boxes are at most (sqrt(2)/2) Eps wide, so Eps-reachable
/// boxes have centres within 2 Eps). Like the expansion passes, the kernel
/// spreads its distance computations across `block_count` blocks (one box
/// per block, round-robin) — charging everything to a single block made
/// dense-box-heavy runs misreport the simulated kernel time, which is the
/// max over blocks, not the sum.
void connect_dense_boxes(const index::KDTree& tree, const DenseBoxes& dense,
                         double eps, std::uint32_t block_count,
                         const std::vector<std::uint32_t>& box_chain,
                         cluster::UnionFind& chains, std::size_t& collisions,
                         VirtualDevice& device) {
  if (dense.count() < 2) return;
  const auto leaves = tree.leaves();
  geom::PointSet centers(dense.count());
  for (std::uint32_t b = 0; b < dense.count(); ++b) {
    const auto& box = leaves[dense.leaf_ids[b]].box;
    centers[b].x = 0.5 * (box.min_x + box.max_x);
    centers[b].y = 0.5 * (box.min_y + box.max_y);
  }
  // Each bucket lists its boxes in ascending box index.
  const index::Grid buckets(geom::GridGeometry{0.0, 0.0, 2.0 * eps},
                            centers);

  const double eps2 = eps * eps;
  std::vector<std::uint64_t> block_ops(block_count, 0);

  for (std::uint32_t a = 0; a < dense.count(); ++a) {
    const auto& leaf_a = leaves[dense.leaf_ids[a]];
    std::uint64_t& ops = block_ops[a % block_count];
    // Box min-distance prefilter bound, hoisted: inflate box a once per a,
    // not once per candidate pair.
    geom::BBox inflated = leaf_a.box;
    inflated.min_x -= eps;
    inflated.min_y -= eps;
    inflated.max_x += eps;
    inflated.max_y += eps;
    const geom::CellKey base = buckets.geometry().cell_of(centers[a]);
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      for (std::int32_t dx = -1; dx <= 1; ++dx) {
        for (const std::uint32_t b :
             buckets.points_in(geom::CellKey{base.ix + dx, base.iy + dy})) {
          if (b <= a) continue;
          if (chains.same(box_chain[a], box_chain[b])) continue;
          const auto& leaf_b = leaves[dense.leaf_ids[b]];
          if (!inflated.intersects(leaf_b.box)) continue;
          // Cross check with early exit on the first Eps-close pair.
          bool linked = false;
          for (std::uint32_t i = leaf_a.begin; i < leaf_a.end && !linked;
               ++i) {
            const geom::Point& pa = tree.point_at(tree.order()[i]);
            for (std::uint32_t j = leaf_b.begin; j < leaf_b.end; ++j) {
              ++ops;
              if (geom::dist2(pa, tree.point_at(tree.order()[j])) <= eps2) {
                linked = true;
                break;
              }
            }
          }
          if (linked) {
            chains.unite(box_chain[a], box_chain[b]);
            ++collisions;
          }
        }
      }
    }
  }
  device.account_launch(block_ops);
}

/// `mask` (per original point index) rearranged into the tree's leaf
/// order, the layout KDTree::leaf_hits filters by.
std::vector<std::uint8_t> in_leaf_order(const index::KDTree& tree,
                                        const std::vector<std::uint8_t>& mask) {
  const auto order = tree.order();
  std::vector<std::uint8_t> out(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) out[i] = mask[order[i]];
  return out;
}

/// Border pass, shared by both cluster paths: attach every non-core point
/// to a neighbouring core's cluster (lowest core point *id* wins — a
/// deterministic DBSCAN tie-break that is visit-order independent and
/// partition-invariant: leaf point arrays interleave owned and shadow
/// points in a partition-dependent order, but ids are global, so every
/// leaf that sees a border point's full Eps-neighbourhood resolves the
/// same anchor. The serving path (src/serve) relies on this to reproduce
/// batch labels without re-partitioning — DESIGN §14). One bulk-issued
/// kernel; each query walks its leaves and scans only their core hits.
/// `core_in_leaf_order` is in_leaf_order(tree, core).
void attach_border_points(const index::KDTree& tree,
                          index::QueryScratch& scratch,
                          std::span<const geom::Point> points, double eps,
                          std::uint32_t block_count,
                          const std::vector<std::uint8_t>& core,
                          const std::vector<std::uint8_t>& core_in_leaf_order,
                          std::vector<std::uint32_t>& chain,
                          VirtualDevice& device) {
  const auto n = static_cast<std::uint32_t>(core.size());
  const auto leaves = tree.leaves();
  const double eps2 = eps * eps;
  std::vector<std::uint64_t> block_ops(block_count, 0);
  std::uint32_t k = 0;  // round-robin ordinal over border points
  for (std::uint32_t i = 0; i < n; ++i) {
    if (core[i]) continue;
    std::uint32_t best = kNoChain;
    std::uint64_t ops = 0;
    tree.for_each_leaf_in_radius(
        points[i], eps, scratch, [&](std::uint32_t leaf_id) {
          const auto& leaf = leaves[leaf_id];
          ops += leaf.size();
          for (const std::uint32_t q :
               tree.leaf_hits(leaf, points[i], eps2,
                              core_in_leaf_order.data(), scratch)) {
            if (best == kNoChain || points[q].id < points[best].id) best = q;
          }
          return true;
        });
    block_ops[k++ % block_count] += ops;
    if (best != kNoChain) chain[i] = chain[best];
  }
  device.account_launch(block_ops);
}

/// Resolve per-point chain ids into cluster labels (the one D2H copy),
/// shared by both cluster paths.
void resolve_labels(const std::vector<std::uint32_t>& chain,
                    cluster::UnionFind& chains, GpuDbscanResult& result,
                    VirtualDevice& device) {
  const auto n = static_cast<std::uint32_t>(chain.size());
  device.copy_to_host(n * kLabelBytes);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (chain[i] == kNoChain) {
      result.labels.cluster[i] = dbscan::kNoise;
    } else {
      result.labels.cluster[i] =
          static_cast<dbscan::ClusterId>(chains.find(chain[i]));
    }
  }
  result.labels.renumber();
  result.stats.chains = chains.size();
}

/// The cell-graph cluster path (DESIGN §12), after Wang/Gu/Shun's
/// theoretically-efficient parallel DBSCAN and ArborX's FDBSCAN: instead
/// of expanding core points one BFS wave at a time, cluster structure is
/// read off a grid of Eps/(2*sqrt(2)) cells —
///   1. a cell holding >= MinPts points is core wholesale (every pair of
///      its points is mutually within Eps: the cell diagonal is Eps/2),
///      strictly generalizing the dense-box rule; remaining points are
///      classified exactly with the same early-exiting bulk-issued
///      counting kernel as the two-pass path;
///   2. all core points of one cell union for free (one chain per cell);
///   3. cells whose boxes come within Eps (Chebyshev distance <= 3)
///      connect through a bichromatic closest-pair test over their core
///      points, early-exiting at the first pair within Eps.
/// Border points attach exactly as in the two-pass path, so the label
/// partition matches the oracle (the differential battery proves it).
/// Every distance computation is charged to the virtual device, and all
/// cell iteration is in ascending cell-code order — deterministic for
/// any host_threads (DESIGN §8).
void cell_graph_dbscan(std::span<const geom::Point> points,
                       const MrScanGpuConfig& config, VirtualDevice& device,
                       const index::KDTree& tree, index::QueryScratch& scratch,
                       GpuDbscanResult& result) {
  const double eps = config.params.eps;
  const std::size_t min_pts = config.params.min_pts;
  const std::size_t n = points.size();

  // Cell binning: one O(n) kernel (one op per point, round-robin over
  // blocks) plus the O(cells) wholesale-core mark. The origin is fixed at
  // (0,0), so a cell's membership does not depend on the leaf's point set.
  const index::Grid grid(
      geom::GridGeometry{0.0, 0.0, cluster::cell_graph_side(eps)}, points);
  const std::size_t cell_count = grid.cell_count();
  {
    std::vector<std::uint64_t> block_ops(config.block_count, 0);
    for (std::uint32_t b = 0; b < config.block_count; ++b) {
      block_ops[b] = n / config.block_count +
                     (b < n % config.block_count ? 1 : 0);
    }
    device.account_launch(block_ops);
    device.account_launch({cell_count});
  }
  result.stats.cellgraph_cells = cell_count;

  // ---- Core classification. Cells with >= MinPts points are core
  // wholesale; everyone else gets the exact early-exiting count, issued
  // in the same block_count x points_per_block waves as pass 1 of the
  // two-pass path.
  for (std::uint32_t c = 0; c < cell_count; ++c) {
    const auto members = grid.members(c);
    if (members.size() < min_pts) continue;
    ++result.stats.cellgraph_core_cells;
    result.stats.cellgraph_wholesale_points += members.size();
    for (const std::uint32_t p : members) result.labels.core[p] = 1;
  }
  std::vector<std::uint32_t> work;
  work.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!result.labels.core[i]) work.push_back(i);
  }
  {
    const std::size_t wave_size =
        static_cast<std::size_t>(config.block_count) *
        config.points_per_block;
    std::vector<std::uint64_t> block_ops;
    std::size_t cursor = 0;
    while (cursor < work.size()) {
      const std::size_t batch = std::min(wave_size, work.size() - cursor);
      const auto wave =
          std::span<const std::uint32_t>(work).subspan(cursor, batch);
      block_ops.assign(config.block_count, 0);
      tree.count_in_radius_many(
          wave, eps, min_pts, scratch,
          [&](std::size_t q, std::size_t found, std::uint64_t ops) {
            block_ops[q / config.points_per_block] += ops;
            if (found >= min_pts) result.labels.core[wave[q]] = 1;
          });
      device.account_launch(block_ops);
      cursor += batch;
    }
  }

  // ---- Intra-cell unions: one chain per cell with core points; every
  // core point of the cell joins it for free (mutually within Eps).
  cluster::UnionFind chains;
  std::vector<std::uint32_t> chain(n, kNoChain);
  std::vector<std::uint32_t> cell_chain(cell_count, kNoChain);
  // Core members per cell (flattened, cell-code order) and the tight
  // bounding box of each cell's core points — the Eps prefilter for the
  // connection kernel below.
  std::vector<std::uint32_t> core_members;
  core_members.reserve(n);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> core_range(
      cell_count);
  std::vector<geom::BBox> core_bbox(cell_count);
  for (std::uint32_t c = 0; c < cell_count; ++c) {
    const auto begin = static_cast<std::uint32_t>(core_members.size());
    for (const std::uint32_t p : grid.members(c)) {
      if (!result.labels.core[p]) continue;
      core_members.push_back(p);
      core_bbox[c].expand(points[p]);
    }
    const auto end = static_cast<std::uint32_t>(core_members.size());
    core_range[c] = {begin, end};
    if (end == begin) continue;
    cell_chain[c] = chains.add();
    for (std::uint32_t i = begin; i < end; ++i) {
      chain[core_members[i]] = cell_chain[c];
    }
  }

  // ---- Cell-graph connection: bichromatic closest-pair tests between
  // neighbouring core-candidate cells, early-exiting at the first pair
  // within Eps. Each source cell's comparisons go to one block,
  // round-robin, exactly like connect_dense_boxes.
  {
    const double eps2 = eps * eps;
    std::vector<std::uint64_t> block_ops(config.block_count, 0);
    std::uint32_t active = 0;  // round-robin ordinal over core cells
    const auto codes = grid.codes();
    for (std::uint32_t ca = 0; ca < cell_count; ++ca) {
      if (cell_chain[ca] == kNoChain) continue;
      std::uint64_t& ops = block_ops[active % config.block_count];
      ++active;
      const geom::CellKey key = geom::cell_from_code(codes[ca]);
      for (const geom::CellKey& offset : cluster::kRingOffsets) {
        const std::uint64_t ncode = geom::cell_code(
            geom::CellKey{key.ix + offset.ix, key.iy + offset.iy});
        if (ncode <= codes[ca]) continue;  // each pair tested once
        const std::uint32_t cb = grid.find(ncode);
        if (cb == index::Grid::kNoCell || cell_chain[cb] == kNoChain) {
          continue;
        }
        if (chains.same(cell_chain[ca], cell_chain[cb])) continue;
        // Tight prefilter: the cells' core points cannot reach Eps.
        if (cluster::box_gap2(core_bbox[ca], core_bbox[cb]) > eps2) {
          continue;
        }
        ++result.stats.cellgraph_bcp_pairs;
        std::uint64_t pair_ops = 0;
        const bool linked = cluster::bcp_within_eps(
            core_range[ca].second - core_range[ca].first,
            core_range[cb].second - core_range[cb].first,
            [&](std::size_t i) -> const geom::Point& {
              return points[core_members[core_range[ca].first + i]];
            },
            [&](std::size_t j) -> const geom::Point& {
              return points[core_members[core_range[cb].first + j]];
            },
            eps2, pair_ops);
        ops += pair_ops;
        result.stats.cellgraph_bcp_ops += pair_ops;
        if (linked) {
          chains.unite(cell_chain[ca], cell_chain[cb]);
          ++result.stats.collisions;
        }
      }
    }
    device.account_launch(block_ops);
  }

  attach_border_points(tree, scratch, points, eps, config.block_count,
                       result.labels.core,
                       in_leaf_order(tree, result.labels.core), chain, device);
  resolve_labels(chain, chains, result, device);
}

/// The CUDA-DClust-style two-pass path (§3.2.2, §3.2.3): bulk-issued core
/// classification, then per-core-point BFS wave expansion with the dense
/// box elimination.
void two_pass_dbscan(std::span<const geom::Point> points,
                     const MrScanGpuConfig& config, VirtualDevice& device,
                     const index::KDTree& tree, index::QueryScratch& scratch,
                     GpuDbscanResult& result) {
  const std::size_t n = points.size();

  // Dense box detection: one O(leaves) kernel.
  DenseBoxes dense;
  if (config.dense_box) {
    dense = detect_dense_boxes(tree, config.params.eps,
                               config.params.min_pts);
    device.account_launch({tree.leaves().size()});
  } else {
    dense.box_of_point.assign(n, DenseBoxes::kNone);
  }
  result.stats.dense_boxes = dense.count();
  result.stats.dense_points = dense.covered_points;

  cluster::UnionFind chains;
  std::vector<std::uint32_t> chain(n, kNoChain);

  // Every dense box is a pre-formed chain; its points are core by
  // construction and are never expanded (§3.2.3).
  std::vector<std::uint32_t> box_chain(dense.count());
  for (std::uint32_t b = 0; b < dense.count(); ++b) {
    box_chain[b] = chains.add();
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (dense.is_dense(i)) {
      chain[i] = box_chain[dense.box_of_point[i]];
      result.labels.core[i] = 1;
    }
  }

  std::vector<std::uint64_t> block_ops;

  // ---- Pass 1: core classification, kernels issued in bulk. ----
  // Each launch covers block_count x points_per_block points; the seed for
  // each block is a function of the kernel call parameters, so no memory
  // copies intervene (§3.2.2). Expansion stops as soon as MinPts is seen.
  {
    std::vector<std::uint32_t> work;
    work.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!dense.is_dense(i)) work.push_back(i);
    }
    const std::size_t wave_size =
        static_cast<std::size_t>(config.block_count) *
        config.points_per_block;
    std::size_t cursor = 0;
    while (cursor < work.size()) {
      const std::size_t batch = std::min(wave_size, work.size() - cursor);
      const auto wave = std::span<const std::uint32_t>(work)
                            .subspan(cursor, batch);
      block_ops.assign(config.block_count, 0);
      tree.count_in_radius_many(
          wave, config.params.eps, config.params.min_pts, scratch,
          [&](std::size_t q, std::size_t found, std::uint64_t ops) {
            // Same work distribution as the per-block loop this replaces:
            // the first points_per_block queries belong to block 0, etc.
            block_ops[q / config.points_per_block] += ops;
            if (found >= config.params.min_pts) {
              result.labels.core[wave[q]] = 1;
            }
          });
      device.account_launch(block_ops);
      cursor += batch;
    }
  }

  // ---- Pass 2: expand core points with block chains + collisions. ----
  // Each expansion runs its neighbour logic inside the leaf walk, so no
  // neighbour list is built. A query's hits are exactly its core
  // neighbours in radius_query order, and every visited leaf is charged
  // its full size, so ops and union order match a per-point loop over the
  // collected neighbours (DESIGN §10). The core flags are final from here
  // on, so the border pass filters by the same leaf-order mask.
  const auto core_in_leaf_order = in_leaf_order(tree, result.labels.core);
  {
    const auto leaves = tree.leaves();
    const double eps2 = config.params.eps * config.params.eps;
    // Dense-box ordinal of each leaf, or kNone.
    std::vector<std::uint32_t> leaf_box(leaves.size(), DenseBoxes::kNone);
    for (std::uint32_t b = 0; b < dense.count(); ++b) {
      leaf_box[dense.leaf_ids[b]] = b;
    }
    std::vector<std::deque<std::uint32_t>> queues(config.block_count);
    std::uint32_t next_seed = 0;

    auto seed_idle_blocks = [&]() {
      bool any = false;
      for (auto& q : queues) {
        if (q.empty()) {
          while (next_seed < n &&
                 (!result.labels.core[next_seed] ||
                  chain[next_seed] != kNoChain)) {
            ++next_seed;
          }
          if (next_seed < n) {
            chain[next_seed] = chains.add();
            q.push_back(next_seed);
            ++next_seed;
          }
        }
        if (!q.empty()) any = true;
      }
      return any;
    };

    while (seed_idle_blocks()) {
      // One bulk-issued kernel wave: each block expands its queue front.
      // No host copies between waves — that is the point of the redesign.
      // A block's expansion only ever pushes to its own queue, so the
      // wave's points and each block's processing order are those of the
      // per-block loop.
      block_ops.assign(config.block_count, 0);
      for (std::uint32_t b = 0; b < config.block_count; ++b) {
        auto& queue = queues[b];
        if (queue.empty()) continue;
        const std::uint32_t p = queue.front();
        queue.pop_front();
        const geom::Point& at = points[p];
        // The expansion's chain and the cached root of its set. A chain id
        // equal to either is already joined; any other is united and
        // rewritten to the root, which labels (read through find) ignore.
        const std::uint32_t c = chain[p];
        std::uint32_t root = chains.find(c);
        auto join = [&](std::uint32_t& other) {
          if (other == c || other == root) return;
          const std::uint32_t other_root = chains.find(other);
          if (other_root != root) {
            root = chains.unite(root, other_root);
            ++result.stats.collisions;
          }
          other = root;
        };
        tree.for_each_leaf_in_radius(
            at, config.params.eps, scratch, [&](std::uint32_t leaf_id) {
              const auto& leaf = leaves[leaf_id];
              block_ops[b] += leaf.size();
              const std::uint32_t box = leaf_box[leaf_id];
              if (box != DenseBoxes::kNone) {
                // Every point of a dense box is core on the box's chain:
                // the first hit joins it, the rest would find it joined.
                if (tree.count_in_leaf(leaf, at, eps2) != 0) {
                  join(box_chain[box]);
                }
                return true;
              }
              for (const std::uint32_t q : tree.leaf_hits(
                       leaf, at, eps2, core_in_leaf_order.data(), scratch)) {
                if (chain[q] == kNoChain) {
                  chain[q] = c;
                  queue.push_back(q);
                } else {
                  join(chain[q]);
                }
              }
              return true;
            });
      }
      device.account_launch(block_ops);
    }
  }

  // Dense boxes adjacent to each other merge even though none of their
  // points ran an expansion.
  if (dense.count() >= 2) {
    connect_dense_boxes(tree, dense, config.params.eps, config.block_count,
                        box_chain, chains, result.stats.collisions, device);
  }

  attach_border_points(tree, scratch, points, config.params.eps,
                       config.block_count, result.labels.core,
                       core_in_leaf_order, chain, device);
  resolve_labels(chain, chains, result, device);
}

}  // namespace

GpuDbscanResult mrscan_gpu_dbscan(std::span<const geom::Point> points,
                                  const MrScanGpuConfig& config,
                                  VirtualDevice& device) {
  MRSCAN_REQUIRE(config.params.eps > 0.0);
  MRSCAN_REQUIRE(config.params.min_pts >= 1);
  MRSCAN_REQUIRE(config.block_count >= 1);
  MRSCAN_REQUIRE(config.points_per_block >= 1);

  const std::size_t n = points.size();
  GpuDbscanResult result;
  result.labels.cluster.assign(n, dbscan::kNoise);
  result.labels.core.assign(n, 0);
  DeviceStatsDelta delta(device);
  if (n == 0) {
    delta.fill(result.stats);
    return result;
  }

  // One scratch for the whole clustering: this function runs single-
  // threaded within its leaf task, so every pass reuses the same traversal
  // stack and result buffer — zero allocations once warm (DESIGN §10).
  index::QueryScratch scratch;

  // In dense areas the tree bottoms out at dense-box-sized leaves, which
  // is what lets the dense-box detector read its partition off it.
  const double leaf_extent =
      config.dense_box ? dense_box_side(config.params.eps) : 0.0;
  const index::KDTree tree(
      points, index::KDTreeConfig{config.max_leaf_points, leaf_extent});

  // One H2D copy: raw input points plus the traversal tree.
  device.copy_to_device(n * kPointBytes + tree.node_count() * kTreeNodeBytes);
  if (config.cluster_algo == cluster::ClusterAlgo::kCellGraph) {
    cell_graph_dbscan(points, config, device, tree, scratch, result);
  } else {
    two_pass_dbscan(points, config, device, tree, scratch, result);
  }
  delta.fill(result.stats);
  return result;
}

}  // namespace mrscan::gpu
