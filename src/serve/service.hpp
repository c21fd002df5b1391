// The long-lived clustering service (DESIGN §14).
//
// Batch Mr. Scan answers one question once: "what are the clusters of
// this file?". ClusterService keeps answering it as the data changes:
// it owns a mutable Eps/(2*sqrt(2)) cell graph, absorbs insert/remove
// mutations into a pending buffer, and on advance_epoch() re-clusters
// only the dirty cells plus their ring-3 neighbourhoods — the cell-graph
// machinery of DESIGN §12 (wholesale core marking, BCP edge tests,
// connectivity over cells) rerun on the affected region only. The epoch
// publishes an immutable snapshot; queries (label_of, cluster_stats) pin
// the snapshot of their choice under an epoch-based reclamation scheme,
// so readers never block mutations and retired epochs are freed when
// their last reader drains.
//
// Correctness contract: after every epoch, the published labels are
// `same_clustering`-equivalent to a cold batch core::MrScan run over the
// live point set (the differential battery proves it across cluster
// algos, host_threads, and fault plans), and bit-identical to a fresh
// service bootstrapped on that live set. The three pillars:
//   * core flags are exact — a mutation can only flip core status within
//     Eps of itself, i.e. inside the dirty cell's ring-3 neighbourhood,
//     which is exactly the recompute region;
//   * cluster structure is the connectivity closure over core cells,
//     kept across epochs: each cell caches its BCP outcomes towards its
//     ring-3 neighbours as tested/linked bitmasks, and exactly the
//     core-core pairs touching a cell whose core membership changed are
//     re-tested. Each core cell carries a component id; a new link unions
//     two components by relabelling the smaller, and a component is
//     re-flooded over its cells' linked masks only when a previously
//     linked pair tests unlinked or one of its core cells disappears;
//   * border anchors use the global lowest-point-id tie-break that the
//     batch border pass (gpu/mrscan_gpu.cpp) uses, which is partition-
//     invariant, so serve and batch resolve identical anchors.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/mutable_grid.hpp"
#include "dbscan/labels.hpp"
#include "fault/injector.hpp"
#include "geometry/bbox.hpp"
#include "geometry/point.hpp"
#include "obs/registry.hpp"
#include "sim/titan.hpp"
#include "util/thread_pool.hpp"

namespace mrscan::core {
struct ServeState;
}

namespace mrscan::serve {

struct ServeConfig {
  dbscan::DbscanParams params{0.1, 40};
  /// Host worker threads for the per-epoch core/anchor recompute loops.
  /// Output is bit-identical for any value (DESIGN §8): workers write
  /// only their own cells' slots and op counters reduce after the
  /// barrier. 0 = hardware concurrency.
  std::size_t host_threads = 1;
  /// Seeded fault plan for maintenance epochs: epoch e plays the role of
  /// node e, so `plan.drop(e, attempt)` loses that epoch's publish
  /// attempts (retried with backoff on the virtual clock; exhausting the
  /// budget fails the epoch cleanly, leaving the previous snapshot
  /// current and the mutations pending) and `plan.slow(e, f)` stretches
  /// its virtual seconds. Labels are never affected — the differential
  /// battery asserts it.
  fault::FaultPlan fault_plan;
  /// Machine model pricing epoch compute on the virtual clock.
  sim::TitanParams titan;
};

/// Per-cluster aggregate served by cluster_stats().
struct ClusterStats {
  std::uint64_t size = 0;
  std::uint64_t core_points = 0;
  double weight = 0.0;
  geom::BBox bbox;
};

/// What one advance_epoch() did (also mirrored into serve.* metrics).
struct EpochStats {
  std::uint64_t epoch = 0;
  std::uint64_t inserts = 0;
  std::uint64_t removes = 0;
  std::uint64_t rejected = 0;
  std::uint64_t dirty_cells = 0;
  /// Points whose core status was recomputed with distance work plus
  /// border points whose anchor was recomputed — the epoch's
  /// distance-level re-clustering footprint. Strictly below the live
  /// point count on sparse epochs (the incrementality the differential
  /// battery asserts). Component upkeep is O(changed components) and the
  /// snapshot copy is one O(live) sequential pass; neither does distance
  /// work, so neither is counted.
  std::uint64_t recluster_points = 0;
  std::uint64_t distance_ops = 0;
  /// BCP cell-pair tests actually re-run (cache misses + invalidations).
  std::uint64_t edge_tests = 0;
  std::uint64_t retries = 0;
  double wall_seconds = 0.0;
  /// Virtual seconds (machine model): distance work priced at the Titan
  /// CPU op rate, plus fault retry backoff, scaled by any slow factor.
  double sim_seconds = 0.0;
  std::uint64_t live_points = 0;
  std::uint64_t clusters = 0;
};

struct EpochResult {
  bool ok = true;
  std::string error;
  EpochStats stats;
};

/// Immutable per-epoch publication: live points ascending by id with
/// canonical labels (first-appearance-in-id-order numbering, noise = -1).
struct EpochSnapshot {
  std::uint64_t epoch = 0;
  geom::PointSet points;
  std::vector<dbscan::ClusterId> labels;
  std::vector<std::uint8_t> core;
  /// Per-cluster aggregates, indexed by canonical cluster id.
  std::vector<ClusterStats> clusters;
  EpochStats stats;

  std::optional<dbscan::ClusterId> label_of(geom::PointId id) const;
};

class ClusterService {
 public:
  explicit ClusterService(ServeConfig config);
  ~ClusterService();
  ClusterService(const ClusterService&) = delete;
  ClusterService& operator=(const ClusterService&) = delete;

  /// Construct from the distilled residue of a batch run: same params,
  /// points bulk-inserted and clustered in epoch 0 (whose labels are
  /// equivalent to the batch labels by the correctness contract above).
  static std::unique_ptr<ClusterService> from_build(
      const core::ServeState& state);

  const ServeConfig& config() const { return config_; }

  /// Queue a mutation for the next epoch. Duplicates (insert of a live or
  /// already-pending id, remove of an unknown id) and inserts the grid
  /// cannot address (a non-finite coordinate, or a cell index within
  /// kCellGraphRings of the int32 limits) are counted as rejected when
  /// the epoch applies them.
  void insert(const geom::Point& point);
  void remove(geom::PointId id);

  /// Bulk-insert `points` and run the initial epoch.
  EpochResult bootstrap(std::span<const geom::Point> points);

  /// Apply pending mutations and re-cluster the affected region. On a
  /// fault-failed epoch (retry budget exhausted) the previous snapshot
  /// stays current and the mutations stay pending for the next attempt.
  EpochResult advance_epoch();

  /// Pin the current snapshot: the returned guard keeps every cell state
  /// of that epoch alive until it drops (epoch-based reclamation; the
  /// serve.pinned_epochs gauge tracks retired-but-pinned depth). Guards
  /// must not outlive the service.
  class SnapshotGuard {
   public:
    SnapshotGuard(SnapshotGuard&& other) noexcept;
    SnapshotGuard& operator=(SnapshotGuard&&) = delete;
    SnapshotGuard(const SnapshotGuard&) = delete;
    SnapshotGuard& operator=(const SnapshotGuard&) = delete;
    ~SnapshotGuard();

    const EpochSnapshot& operator*() const { return *snapshot_; }
    const EpochSnapshot* operator->() const { return snapshot_; }

   private:
    friend class ClusterService;
    SnapshotGuard(const ClusterService* service, std::size_t entry,
                  const EpochSnapshot* snapshot)
        : service_(service), entry_(entry), snapshot_(snapshot) {}
    const ClusterService* service_;
    std::size_t entry_;  // Entry::serial
    const EpochSnapshot* snapshot_;
  };
  SnapshotGuard snapshot() const;

  /// Point -> cluster lookup against the current snapshot (nullopt for
  /// unknown ids). Latency lands in the serve.query.seconds histogram.
  std::optional<dbscan::ClusterId> label_of(geom::PointId id) const;

  /// Aggregates of one cluster of the current snapshot.
  std::optional<ClusterStats> cluster_stats(dbscan::ClusterId cluster) const;

  std::uint64_t epoch() const;
  std::size_t live_points() const;
  std::size_t pending_mutations() const;

  /// The service's metrics registry (serve.* series).
  obs::Registry& metrics() { return registry_; }
  const obs::Registry& metrics() const { return registry_; }

 private:
  using CellIndex = std::uint32_t;
  static constexpr std::uint32_t kNone = cluster::MutableCellGrid::kNone;

  struct PointRec {
    geom::Point point;
    CellIndex cell = 0;
    /// Cell of the lowest-id core point within Eps (border points with
    /// has_anchor only): the point takes that cell's component.
    CellIndex anchor_cell = 0;
    bool live = false;
    bool core = false;
    bool has_anchor = false;
  };

  struct Mutation {
    enum class Kind : std::uint8_t { kInsert, kRemove };
    Kind kind = Kind::kInsert;
    geom::Point point;  // remove uses point.id only
  };

  /// One published epoch plus its reader pin count (guarded by
  /// snapshot_mutex_).
  struct Entry {
    std::uint64_t serial = 0;
    std::shared_ptr<const EpochSnapshot> snapshot;
    std::uint32_t pins = 0;
  };
  using Retired = std::vector<std::shared_ptr<const EpochSnapshot>>;

  std::vector<CellIndex> apply_pending(EpochStats& stats);
  std::vector<CellIndex> occupied_neighborhoods(
      std::span<const CellIndex> cells) const;
  std::uint64_t classify_core_cells(std::span<const CellIndex> affected,
                                    std::vector<CellIndex>& changed_core);
  void connect(std::span<const CellIndex> changed_core, EpochStats& stats);
  std::uint64_t recompute_anchors(std::span<const CellIndex> region);
  std::uint32_t new_component();
  void reflood(std::uint32_t component);
  void unite(CellIndex a, CellIndex b);
  std::shared_ptr<EpochSnapshot> emit_snapshot(EpochStats& stats) const;
  void publish(std::shared_ptr<const EpochSnapshot> snapshot);
  void drain_retired_locked(Retired& retired) const;
  void unpin(std::size_t serial) const;

  ServeConfig config_;
  double eps2_ = 0.0;
  fault::FaultInjector injector_;
  util::ThreadPool pool_;

  // ---- clustering state (single-writer: mutations + epochs) ----
  std::vector<PointRec> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// Live id -> slot, for applying mutations; never iterated.
  std::unordered_map<geom::PointId, std::uint32_t> live_;
  /// (id, slot) of every live point, ascending by id: the snapshot's
  /// emission order.
  std::vector<std::pair<geom::PointId, std::uint32_t>> order_;
  cluster::MutableCellGrid grid_;
  /// Core cells of each connected component; ids of emptied components
  /// wait in free_components_ for reuse.
  std::vector<std::vector<CellIndex>> components_;
  std::vector<std::uint32_t> free_components_;
  std::vector<Mutation> pending_;
  std::uint64_t epoch_ = 0;
  double sim_seconds_total_ = 0.0;

  // ---- publication (readers vs the writer) ----
  mutable std::mutex snapshot_mutex_;
  mutable std::deque<Entry> published_;
  std::uint64_t next_serial_ = 0;

  // Thread-safe by construction (sharded); mutable so const query paths
  // can record their own latency.
  mutable obs::Registry registry_;
};

}  // namespace mrscan::serve
