#include "core/mrscan.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <unordered_map>
#include <utility>

#include "fault/checkpoint.hpp"
#include "fault/injector.hpp"
#include "io/checked_file.hpp"
#include "io/labeled_file.hpp"
#include "io/mapped_segment.hpp"
#include "io/point_file.hpp"
#include "merge/merger.hpp"
#include "merge/summary.hpp"
#include "mrnet/topology.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/fnv.hpp"
#include "util/thread_pool.hpp"

namespace mrscan::core {

namespace {

/// Map packet: a vector of global cluster ids indexed by local cluster id.
mrnet::Packet pack_id_map(const std::vector<std::int64_t>& ids) {
  mrnet::Packet p;
  p.put_pod_vector(ids);
  return p;
}

std::vector<std::int64_t> unpack_id_map(const mrnet::Packet& packet) {
  return packet.reader().get_pod_vector<std::int64_t>();
}

// ---- out-of-core helpers (DESIGN §15) -----------------------------

std::filesystem::path ooc_labels_path(const std::filesystem::path& dir,
                                      std::size_t leaf_rank) {
  return dir / ("labels_" + std::to_string(leaf_rank) + ".lbl");
}

/// Spill a leaf's owned cluster ids (all the sweep callback needs).
/// Atomic write: a crash can't leave a torn spill that a later resume
/// would trust.
void spill_owned_labels(const std::filesystem::path& path,
                        std::span<const dbscan::ClusterId> owned_ids) {
  std::vector<std::uint8_t> buf(owned_ids.size_bytes());
  if (!owned_ids.empty()) {
    std::memcpy(buf.data(), owned_ids.data(), buf.size());
  }
  io::write_file_atomic(path, buf);
}

/// Expected spill size; resume re-clusters a leaf whose file mismatches.
std::uint64_t ooc_labels_bytes(std::uint64_t owned_count) {
  return owned_count * sizeof(std::int64_t);
}

std::vector<dbscan::ClusterId> read_owned_labels(
    const std::filesystem::path& path, std::size_t owned_count) {
  const std::vector<std::uint8_t> bytes = io::read_file_bytes(path);
  if (bytes.size() != ooc_labels_bytes(owned_count)) {
    errno = 0;
    io::fail(path, "label spill size does not match the leaf's owned count");
  }
  std::vector<dbscan::ClusterId> owned_ids(owned_count);
  if (owned_count > 0) {
    std::memcpy(owned_ids.data(), bytes.data(), bytes.size());
  }
  return owned_ids;
}

/// GPU stats round-trip for checkpoint entries, so metric reductions on
/// a resumed run are identical to the uninterrupted one. fault sits
/// below mrnet in the module DAG, so the blob is opaque to checkpoint.cpp
/// and encoded/decoded here.
std::vector<std::uint8_t> encode_gpu_stats(const gpu::GpuDbscanStats& s) {
  mrnet::Packet p;
  p.put_u64(s.dense_boxes);
  p.put_u64(s.dense_points);
  p.put_u64(s.chains);
  p.put_u64(s.collisions);
  p.put_u64(s.distance_ops);
  p.put_u64(s.kernel_launches);
  p.put_u64(s.h2d_transfers);
  p.put_u64(s.d2h_transfers);
  p.put_f64(s.device_seconds);
  p.put_u64(s.cellgraph_cells);
  p.put_u64(s.cellgraph_core_cells);
  p.put_u64(s.cellgraph_wholesale_points);
  p.put_u64(s.cellgraph_bcp_pairs);
  p.put_u64(s.cellgraph_bcp_ops);
  const auto bytes = p.bytes();
  return {bytes.begin(), bytes.end()};
}

gpu::GpuDbscanStats decode_gpu_stats(std::vector<std::uint8_t> blob) {
  const mrnet::Packet p(std::move(blob));
  auto r = p.reader();
  gpu::GpuDbscanStats s;
  s.dense_boxes = static_cast<std::size_t>(r.get_u64());
  s.dense_points = static_cast<std::size_t>(r.get_u64());
  s.chains = static_cast<std::size_t>(r.get_u64());
  s.collisions = static_cast<std::size_t>(r.get_u64());
  s.distance_ops = r.get_u64();
  s.kernel_launches = r.get_u64();
  s.h2d_transfers = r.get_u64();
  s.d2h_transfers = r.get_u64();
  s.device_seconds = r.get_f64();
  s.cellgraph_cells = static_cast<std::size_t>(r.get_u64());
  s.cellgraph_core_cells = static_cast<std::size_t>(r.get_u64());
  s.cellgraph_wholesale_points = static_cast<std::size_t>(r.get_u64());
  s.cellgraph_bcp_pairs = r.get_u64();
  s.cellgraph_bcp_ops = r.get_u64();
  return s;
}

/// FNV-1a over the run invariants a checkpoint must match before any of
/// its entries may be restored. host_threads and the working-set size
/// are deliberately excluded — the determinism contract (DESIGN §8)
/// makes output independent of both, so a resume may change them.
std::uint64_t ooc_fingerprint(const MrScanConfig& config,
                              std::uint64_t point_count) {
  const std::uint64_t words[] = {
      point_count,
      static_cast<std::uint64_t>(config.leaves),
      static_cast<std::uint64_t>(config.fanout),
      static_cast<std::uint64_t>(config.partition_nodes),
      std::bit_cast<std::uint64_t>(config.params.eps),
      static_cast<std::uint64_t>(config.params.min_pts),
      static_cast<std::uint64_t>(config.cluster_algo),
      static_cast<std::uint64_t>(config.shadow_rep_threshold),
      static_cast<std::uint64_t>(config.transport),
      static_cast<std::uint64_t>(config.shadow_regions),
      static_cast<std::uint64_t>(config.cell_refine),
      static_cast<std::uint64_t>(config.rebalance),
      std::bit_cast<std::uint64_t>(config.rebalance_threshold),
      static_cast<std::uint64_t>(config.keep_noise),
  };
  std::uint64_t hash = util::kFnvOffsetBasis;
  for (const std::uint64_t w : words) hash = util::fnv1a_u64(w, hash);
  return hash;
}

}  // namespace

MrScan::MrScan(MrScanConfig config) : config_(std::move(config)) {
  MRSCAN_REQUIRE(config_.params.eps > 0.0);
  MRSCAN_REQUIRE(config_.params.min_pts >= 1);
  MRSCAN_REQUIRE(config_.leaves >= 1);
  MRSCAN_REQUIRE(config_.fanout >= 2);
  MRSCAN_REQUIRE(config_.partition_nodes >= 1);
}

MrScanResult MrScan::run(std::span<const geom::Point> points) const {
  MrScanResult result;

  // One recorder per run. Its registry is the single source of truth the
  // JSON exporters, the phase summary, and MrScanResult's own bookkeeping
  // all read; the span tracer inside it only records when observability
  // is enabled (DESIGN §9's cost contract).
  const obs::Options obs_opts =
      obs::Options::from_env(config_.observability);
  auto recorder = std::make_shared<obs::Recorder>(obs_opts.enabled);
  result.obs = recorder;
  obs::Registry& reg = recorder->metrics();
  obs::Tracer& tracer = recorder->tracer();
  const bool tracing = recorder->tracing();

  // Mirror the final sim/fault numbers into the registry, populate the
  // wall breakdown and FaultReport back *from* it, and write any
  // configured artifacts. Runs on every exit path (incl. empty input).
  const auto finalize = [&]() {
    reg.set("sim.startup", result.sim.startup);
    reg.set("sim.partition", result.sim.partition);
    reg.set("sim.cluster_merge", result.sim.cluster_merge);
    reg.set("sim.sweep", result.sim.sweep);
    reg.set("sim.total", result.sim.total());
    // Fault counters are mirrored unconditionally (an add of 0 still
    // creates the counter) so every snapshot carries them.
    reg.add("fault.leaves_recovered", result.merge_net.leaves_recovered);
    reg.add("fault.packets_dropped", result.merge_net.packets_dropped);
    reg.add("fault.retries", result.merge_net.retries);
    reg.add("fault.timeouts", result.merge_net.timeouts);
    reg.set("fault.recovery_seconds", result.merge_net.recovery_seconds);
    result.fault.leaves_recovered =
        reg.counter_value("fault.leaves_recovered");
    result.fault.packets_dropped =
        reg.counter_value("fault.packets_dropped");
    result.fault.retries = reg.counter_value("fault.retries");
    result.fault.timeouts = reg.counter_value("fault.timeouts");
    result.fault.recovery_seconds =
        reg.gauge_value("fault.recovery_seconds");
    // Host-seconds breakdown, in the order the phases ran. Phases that
    // never ran (empty input) have no gauge and are skipped.
    const obs::MetricsSnapshot snap = reg.snapshot();
    for (const char* phase : {"partition", "cluster", "merge", "sweep"}) {
      const obs::MetricSample* sample =
          snap.find(std::string("wall.") + phase);
      if (sample != nullptr) result.wall.add(phase, sample->value);
    }
    recorder->export_artifacts(obs_opts);
  };

  // ---- Partition phase (its own flat tree, §3.1.3). ----
  // An out-of-core run (DESIGN §15) differs from a resident one only in
  // where each leaf's points and owned labels live between phases: its
  // segment file and label spill under ooc_dir instead of memory.
  const std::filesystem::path& ooc_dir = config_.ooc.dir;
  const bool ooc = !ooc_dir.empty();
  if (ooc) std::filesystem::create_directories(ooc_dir);

  partition::DistributedPartitionerConfig part_config;
  part_config.eps = config_.params.eps;
  part_config.partition_nodes = config_.partition_nodes;
  part_config.planner = partition::PartitionerConfig{
      config_.leaves,          config_.params.min_pts,
      config_.rebalance,       config_.rebalance_threshold,
      config_.shadow_regions,  config_.cell_refine};
  part_config.materialize.shadow_rep_threshold =
      config_.shadow_rep_threshold;
  part_config.transport = config_.transport;
  part_config.host_threads = config_.host_threads;
  part_config.recorder = recorder.get();
  part_config.spool_dir = ooc_dir;

  {
    obs::PhaseScope scope(*recorder, "partition");
    result.partition_phase = partition::run_distributed_partitioner(
        points, part_config, config_.titan);
  }
  result.sim.partition = result.partition_phase.sim_seconds;

  // A resident run holds the segments; an out-of-core run spooled them
  // to per-leaf files and keeps only the record counts. Everything
  // downstream that needs sizes reads seg_counts so both modes drive
  // the identical cost model.
  const auto& segments = result.partition_phase.segments;
  const auto& seg_counts = result.partition_phase.segment_counts;
  const auto& plan = result.partition_phase.plan;
  const std::size_t leaf_count = seg_counts.size();
  result.leaves_used = leaf_count;
  if (leaf_count == 0) {
    finalize();
    return result;  // empty input
  }

  // ---- Startup of the clustering tree (ALPS + connections). ----
  const mrnet::Topology topology =
      mrnet::Topology::balanced(leaf_count, config_.fanout);
  result.sim.startup = sim::alps_startup_seconds(
      config_.titan.alps, topology.node_count() + config_.partition_nodes);

  // ---- Cluster phase: GPGPU DBSCAN per leaf (§3.2). ----
  gpu::MrScanGpuConfig gpu_config = config_.gpu;
  gpu_config.params = config_.params;
  gpu_config.cluster_algo = config_.cluster_algo;

  std::optional<fault::FaultInjector> injector;
  if (!config_.fault_plan.empty()) {
    injector.emplace(config_.fault_plan);
    for (const auto& kill : config_.fault_plan.kill_leaves) {
      MRSCAN_REQUIRE_MSG(kill.leaf_rank < leaf_count,
                         "FaultPlan kills a leaf rank beyond the partitions "
                         "actually produced");
    }
  }

  // Owned cluster ids per leaf, kept for the sweep (resident runs only;
  // an out-of-core run spills them).
  std::vector<std::vector<dbscan::ClusterId>> leaf_owned_ids(leaf_count);
  std::vector<mrnet::Packet> leaf_packets(leaf_count);
  std::vector<double> leaf_ready(leaf_count, 0.0);
  result.leaf_stats.resize(leaf_count);

  // Cluster one leaf: load its points (owned first, shadow after), run
  // the GPGPU DBSCAN, build the summary, and keep the owned cluster ids
  // for the sweep. Fills the leaf's stats slot and returns the summary
  // packet plus the host + device compute seconds (partition read time
  // is charged separately by the caller). Fully deterministic, so a
  // recovery re-run — or an out-of-core re-read of the same segment
  // file — produces the exact packet the leaf would have sent.
  const auto cluster_leaf =
      [&](std::size_t leaf) -> std::pair<mrnet::Packet, double> {
    geom::PointSet pts;
    if (ooc) {
      const io::MappedSegment seg(io::segment_file_path(ooc_dir, leaf));
      reg.add("ooc.mapped_bytes", seg.mapped_bytes());
      pts = seg.decode_all();
    } else {
      pts.reserve(seg_counts[leaf].total());
      pts.assign(segments[leaf].owned.begin(), segments[leaf].owned.end());
      pts.insert(pts.end(), segments[leaf].shadow.begin(),
                 segments[leaf].shadow.end());
    }
    const std::size_t owned_count = seg_counts[leaf].owned;

    gpu::VirtualDevice device(config_.titan.gpu_spec);
    gpu::GpuDbscanResult clustered =
        gpu::mrscan_gpu_dbscan(pts, gpu_config, device);
    result.leaf_stats[leaf] = clustered.stats;

    // Host-side KD-tree build cost (the tree ships to the device).
    const double host_build =
        pts.empty() ? 0.0
                    : static_cast<double>(pts.size()) *
                          std::log2(static_cast<double>(pts.size()) + 1) /
                          config_.titan.cpu_op_rate;

    merge::LeafSummaryInput input;
    input.points = pts;
    input.owned_count = owned_count;
    input.labels = &clustered.labels;
    input.geometry = plan.geometry;
    input.owned_cells = plan.parts[leaf].owned_cells;
    input.shadow_cells = plan.parts[leaf].shadow_cells;
    input.shadow_rings = plan.shadow_rings;
    mrnet::Packet summary = merge::build_leaf_summary(input).to_packet();

    // Shadow labels are consumed by the summary alone; the sweep needs
    // only the owned prefix.
    std::vector<dbscan::ClusterId> owned_ids =
        std::move(clustered.labels.cluster);
    owned_ids.resize(owned_count);
    if (ooc) {
      spill_owned_labels(ooc_labels_path(ooc_dir, leaf), owned_ids);
    } else {
      owned_ids.shrink_to_fit();
      leaf_owned_ids[leaf] = std::move(owned_ids);
    }
    return {std::move(summary),
            host_build + clustered.stats.device_seconds};
  };

  // The per-leaf cluster loop is the host-side concurrency the paper's
  // thousands of leaves give for free (§3.2); here a ThreadPool supplies
  // it. Every iteration writes only its own slots of leaf_owned_ids /
  // leaf_packets / leaf_ready / leaf_done / result.leaf_stats, and the
  // cross-leaf gpu_dbscan_seconds max is reduced after the merge barrier
  // (so recovery re-runs are included too) — which is what keeps the
  // output bit-identical for any worker count.
  // Leaf reads its partition from the segmented file (modeled); with
  // direct transport the data already arrived over the network. Driven
  // by the counts so resident and out-of-core runs charge identically.
  const auto leaf_read_seconds = [&](std::size_t leaf) {
    return config_.transport == partition::Transport::kDirect
               ? 0.0
               : sim::lustre_read_seconds(
                     config_.titan.lustre,
                     seg_counts[leaf].total() * io::kBinaryRecordSize,
                     std::max<std::size_t>(1, leaf_count),
                     sim::kSequentialOp);
  };

  // Out-of-core checkpoint/restart (DESIGN §15). A leaf is `done` once
  // its summary packet, ready time, stats, and label spill exist; the
  // manifest written after each working-set chunk is exactly the done
  // frontier. Merge state is a pure function of the leaf summaries, so
  // nothing else needs saving.
  const std::uint64_t fingerprint =
      ooc_fingerprint(config_, points.size());
  const std::filesystem::path checkpoint_path = ooc_dir / "checkpoint.mrck";
  std::vector<std::uint8_t> leaf_done(leaf_count, 0);
  const auto save_ooc_checkpoint = [&]() {
    fault::CheckpointManifest manifest;
    manifest.fingerprint = fingerprint;
    manifest.total_leaves = leaf_count;
    for (std::size_t leaf = 0; leaf < leaf_count; ++leaf) {
      if (leaf_done[leaf] == 0) continue;
      fault::CheckpointEntry entry;
      entry.rank = static_cast<std::uint32_t>(leaf);
      entry.ready_seconds = leaf_ready[leaf];
      entry.labels_bytes = ooc_labels_bytes(seg_counts[leaf].owned);
      entry.stats = encode_gpu_stats(result.leaf_stats[leaf]);
      const auto packet_bytes = leaf_packets[leaf].bytes();
      entry.summary.assign(packet_bytes.begin(), packet_bytes.end());
      manifest.entries.push_back(std::move(entry));
    }
    const std::size_t bytes =
        fault::save_checkpoint(checkpoint_path, manifest);
    reg.add("ooc.checkpoint_writes", 1);
    reg.add("ooc.checkpoint_bytes", bytes);
  };

  if (ooc && config_.ooc.resume) {
    fault::CheckpointManifest manifest =
        fault::load_checkpoint(checkpoint_path, fingerprint);
    MRSCAN_REQUIRE_MSG(manifest.total_leaves == leaf_count,
                       "checkpoint leaf count does not match this run");
    for (auto& entry : manifest.entries) {
      const std::size_t rank = entry.rank;
      // Trust an entry only if its label spill survived intact; a leaf
      // whose spill is missing or short is simply re-clustered.
      std::error_code ec;
      const std::uintmax_t spill_size =
          std::filesystem::file_size(ooc_labels_path(ooc_dir, rank), ec);
      if (ec || spill_size != entry.labels_bytes ||
          entry.labels_bytes != ooc_labels_bytes(seg_counts[rank].owned)) {
        continue;
      }
      leaf_packets[rank] = mrnet::Packet(std::move(entry.summary));
      leaf_ready[rank] = entry.ready_seconds;
      result.leaf_stats[rank] = decode_gpu_stats(std::move(entry.stats));
      leaf_done[rank] = 1;
      ++result.ooc_leaves_restored;
    }
  }

  util::ThreadPool pool(config_.host_threads);
  // Per-task pool instrumentation is hot-path cost, so the observer is
  // attached only when tracing (DESIGN §9).
  obs::PoolMetrics pool_metrics(reg);
  if (tracing) pool.set_observer(&pool_metrics);
  {
    obs::PhaseScope scope(*recorder, "cluster");
    const auto run_leaf = [&](std::size_t leaf) {
      if (leaf_done[leaf] != 0) return;  // restored from checkpoint
      std::optional<obs::Tracer::WallScope> span;
      if (tracing) {
        span.emplace(tracer, "cluster leaf " + std::to_string(leaf),
                     "leaf");
      }
      if (injector && injector->leaf_killed_before_cluster(
                          static_cast<std::uint32_t>(leaf))) {
        // The leaf process died before any clustering work; its partition
        // is re-read and clustered on a sibling during the reduction.
        return;
      }
      const double read_time = leaf_read_seconds(leaf);
      auto summary = cluster_leaf(leaf);
      leaf_packets[leaf] = std::move(summary.first);
      leaf_ready[leaf] = read_time + summary.second;
      leaf_done[leaf] = 1;
    };

    // Leaves run in rank-order chunks. A resident run is one chunk of
    // every leaf. An out-of-core run streams leaves through the bounded
    // working set: at most working_set leaves are mapped/resident at
    // once, and a checkpoint lands after every chunk so a kill forfeits
    // one chunk of work.
    const std::size_t chunk =
        ooc ? std::max<std::size_t>(1, config_.ooc.working_set)
            : leaf_count;
    if (ooc) {
      reg.set("ooc.working_set", static_cast<double>(chunk));
      reg.add("ooc.leaves_restored", result.ooc_leaves_restored);
      reg.add("ooc.chunks", 0);
      reg.add("ooc.leaves_clustered", 0);
      reg.add("ooc.checkpoint_writes", 0);
      reg.add("ooc.checkpoint_bytes", 0);
      reg.add("ooc.mapped_bytes", 0);
    }
    const auto done_in = [&](std::size_t begin, std::size_t end) {
      return static_cast<std::size_t>(
          std::count(leaf_done.begin() + static_cast<std::ptrdiff_t>(begin),
                     leaf_done.begin() + static_cast<std::ptrdiff_t>(end),
                     1));
    };
    std::size_t fresh_clustered = 0;
    for (std::size_t begin = 0; begin < leaf_count; begin += chunk) {
      const std::size_t end = std::min(leaf_count, begin + chunk);
      const std::size_t done_before = done_in(begin, end);
      pool.parallel_for(begin, end, run_leaf);
      // parallel_for rethrows the first leaf failure; any concurrent ones
      // must have been counted, never silently swallowed.
      MRSCAN_ASSERT_MSG(pool.dropped_exceptions() == 0,
                        "cluster phase swallowed a worker exception");
      if (!ooc) continue;
      const std::size_t fresh = done_in(begin, end) - done_before;
      fresh_clustered += fresh;
      reg.add("ooc.chunks", 1);
      reg.add("ooc.leaves_clustered", fresh);
      if (config_.ooc.checkpoint) save_ooc_checkpoint();
      if (config_.ooc.abort_after_leaves != 0 &&
          fresh_clustered >= config_.ooc.abort_after_leaves) {
        throw OocAborted(
            "mrscan: out-of-core run aborted after " +
            std::to_string(fresh_clustered) +
            " freshly clustered leaves (OocOptions::abort_after_leaves)");
      }
    }
  }

  // The virtual clock so far: partition then startup, then the clustering
  // tree's reduction begins (leaf sim spans and the merge network's spans
  // are offset onto this global timeline).
  const double cluster_base = result.sim.partition + result.sim.startup;
  if (tracing) {
    // sequential-ok: tracing-only span emission, not phase compute
    for (std::size_t leaf = 0; leaf < leaf_count; ++leaf) {
      if (leaf_ready[leaf] <= 0.0) continue;  // killed leaves recover below
      tracer.sim_span("cluster leaf " + std::to_string(leaf), "leaf",
                      topology.leaves()[leaf], cluster_base,
                      cluster_base + leaf_ready[leaf]);
    }
  }

  // ---- Merge phase: summaries reduce up the tree (§3.3). ----
  mrnet::Network net(topology, config_.titan.net, config_.titan.cpu_op_rate);
  net.set_observer(recorder.get(), cluster_base, "merge");
  if (injector) {
    net.set_fault_injector(&*injector);
    net.set_recovery_handler(
        [&](std::uint32_t rank, double detected_at_s,
            double& recovery_cost_s) {
          // The adopting sibling re-reads the dead leaf's materialized
          // partition from the PFS and re-clusters it from scratch.
          // Runs on the event-loop thread after the cluster-phase barrier,
          // so refilling the dead rank's leaf_* slots cannot race the
          // (already joined) cluster workers. Out-of-core runs really do
          // re-read: the segment file is mapped and clustered afresh, and
          // the label spill rewritten.
          const double reread = partition::segment_reread_seconds(
              seg_counts[rank], config_.titan.lustre);
          auto summary = cluster_leaf(rank);
          recovery_cost_s = reread + summary.second;
          if (tracing) {
            const std::uint32_t track = topology.leaves()[rank];
            tracer.sim_span(
                "reread leaf " + std::to_string(rank) + " partition",
                "fault", track, detected_at_s, detected_at_s + reread);
            tracer.sim_span("recluster leaf " + std::to_string(rank),
                            "fault", track, detected_at_s + reread,
                            detected_at_s + recovery_cost_s);
          }
          return std::move(summary.first);
        });
  }
  std::unordered_map<std::uint32_t, merge::MergeResult> node_results;

  mrnet::Packet root_packet;
  {
    obs::PhaseScope scope(*recorder, "merge");
    root_packet = net.reduce(
        std::move(leaf_packets),
        [&](std::uint32_t node, std::vector<mrnet::Packet> children,
            std::uint64_t& ops) {
          // Per-child deserialization is independent (each Reader holds
          // its own cursor); fan it out slot-by-slot on the pool. The
          // merge itself needs all children and stays sequential.
          std::vector<merge::MergeSummary> summaries(children.size());
          pool.parallel_for(0, children.size(), [&](std::size_t i) {
            summaries[i] = merge::MergeSummary::from_packet(children[i]);
          });
          merge::MergeResult merged = merge::merge_summaries(
              summaries, plan.geometry, config_.params.eps);
          ops = merged.ops + 1;
          mrnet::Packet out = merged.merged.to_packet();
          node_results.emplace(node, std::move(merged));
          return out;
        },
        leaf_ready);
  }
  // Cross-node accumulators are reduced here, after the event loop, not
  // inside the filter: the filter must stay free of shared mutable state
  // so nothing races if filters ever run concurrently. They land in the
  // registry first and MrScanResult reads them back — one source of truth.
  reg.add("merge.merges_detected", 0);
  // det-unordered-iter-ok: counter addition is commutative; order cannot leak
  for (const auto& [node, merged] : node_results) {
    reg.add("merge.merges_detected", merged.merges_detected);
  }
  result.merges_detected =
      static_cast<std::size_t>(reg.counter_value("merge.merges_detected"));
  // The reported GPGPU time is the slowest leaf's device time. Reduced
  // after the merge phase so a leaf re-clustered by the recovery handler
  // — which refills its leaf_stats slot during the reduction — contributes
  // its device_seconds too (a killed-before-cluster leaf has no stats at
  // all until recovery runs).
  for (const auto& stats : result.leaf_stats) {
    reg.add("gpu.dense_boxes", stats.dense_boxes);
    reg.add("gpu.dense_points", stats.dense_points);
    reg.add("gpu.chains", stats.chains);
    reg.add("gpu.collisions", stats.collisions);
    reg.add("gpu.distance_ops", stats.distance_ops);
    reg.add("gpu.kernel_launches", stats.kernel_launches);
    reg.add("gpu.h2d_transfers", stats.h2d_transfers);
    reg.add("gpu.d2h_transfers", stats.d2h_transfers);
    reg.add("cluster.cellgraph.cells", stats.cellgraph_cells);
    reg.add("cluster.cellgraph.core_cells", stats.cellgraph_core_cells);
    reg.add("cluster.cellgraph.wholesale_points",
            stats.cellgraph_wholesale_points);
    reg.add("cluster.cellgraph.bcp_pairs", stats.cellgraph_bcp_pairs);
    reg.add("cluster.cellgraph.bcp_ops", stats.cellgraph_bcp_ops);
    reg.set_max("gpu.device_seconds_max", stats.device_seconds);
  }
  result.gpu_dbscan_seconds = reg.gauge_value("gpu.device_seconds_max");
  result.merge_net = net.stats();
  mrnet::record_network_stats(*recorder, "merge", result.merge_net);
  // Cluster + merge pipeline: completion of the reduction, which started
  // from per-leaf ready times.
  result.sim.cluster_merge = result.merge_net.last_op_seconds;

  // ---- Sweep phase: global ids travel back down (§3.4). ----
  const merge::MergeSummary root_summary =
      merge::MergeSummary::from_packet(root_packet);
  const sweep::GlobalAssignment assignment =
      sweep::assign_global_ids(root_summary);
  result.cluster_count = assignment.cluster_count;

  std::vector<std::int64_t> root_ids(assignment.cluster_count);
  for (std::size_t i = 0; i < root_ids.size(); ++i) {
    root_ids[i] = static_cast<std::int64_t>(i);
  }

  const double sweep_base = cluster_base + result.sim.cluster_merge;
  net.set_observer(recorder.get(), sweep_base, "sweep");
  double scatter_seconds = 0.0;
  // Out-of-core runs stream records to disk as each leaf callback fires
  // on the deterministic simulated event loop — the same order a
  // resident run appends to result.output, so the file is byte-identical
  // to the resident records (DESIGN §8, §15).
  std::optional<io::LabeledFileWriter> ooc_writer;
  if (ooc) {
    ooc_writer.emplace(ooc_dir / "output.labeled");
  } else {
    // The root's file offsets (§3.4) already count the records, so the
    // whole-output vector is sized once instead of grown by doubling.
    result.output.reserve(config_.keep_noise ? plan.total_owned_points()
                                             : assignment.offsets.back());
  }
  {
    obs::PhaseScope scope(*recorder, "sweep");
    scatter_seconds = net.scatter(
        pack_id_map(root_ids),
        [&](std::uint32_t node, const mrnet::Packet& incoming,
            std::uint32_t child) {
          // Reverse this node's merge: child cluster j belongs to merged
          // cluster map[pos][j], whose global id the incoming map carries.
          const auto it = node_results.find(node);
          MRSCAN_ASSERT_MSG(it != node_results.end(),
                            "sweep through a node that never merged");
          const auto& kids = topology.children(node);
          const auto pos_it = std::find(kids.begin(), kids.end(), child);
          MRSCAN_ASSERT(pos_it != kids.end());
          const std::size_t pos =
              static_cast<std::size_t>(pos_it - kids.begin());
          const std::vector<std::int64_t> incoming_ids =
              unpack_id_map(incoming);
          const auto& child_map = it->second.child_cluster_map[pos];
          std::vector<std::int64_t> child_ids(child_map.size());
          for (std::size_t j = 0; j < child_map.size(); ++j) {
            child_ids[j] = incoming_ids[child_map[j]];
          }
          return pack_id_map(child_ids);
        },
        [&](std::uint32_t leaf_rank, const mrnet::Packet& packet) {
          // The leaf's owned points and owned cluster ids. Out of core
          // both are re-mapped from its segment file and label spill and
          // dropped again when the callback returns.
          geom::PointSet mapped_owned;
          std::span<const geom::Point> owned;
          dbscan::Labeling labels;
          if (ooc) {
            const io::MappedSegment seg(
                io::segment_file_path(ooc_dir, leaf_rank));
            reg.add("ooc.mapped_bytes", seg.mapped_bytes());
            mapped_owned = seg.decode_owned();
            owned = mapped_owned;
            labels.cluster = read_owned_labels(
                ooc_labels_path(ooc_dir, leaf_rank), owned.size());
          } else {
            owned = segments[leaf_rank].owned;
            labels.cluster = std::move(leaf_owned_ids[leaf_rank]);
          }
          const std::vector<std::int64_t> global_of_local =
              unpack_id_map(packet);
          const auto records = sweep::label_owned_points(
              owned, labels, global_of_local, config_.keep_noise);
          if (ooc) {
            for (const sweep::LabeledPoint& record : records) {
              ooc_writer->append(record.point, record.cluster);
            }
          } else {
            result.output.insert(result.output.end(), records.begin(),
                                 records.end());
          }
        });
  }
  if (ooc) {
    ooc_writer->close();
    result.output_path = ooc_dir / "output.labeled";
    result.output_records = ooc_writer->records();
    reg.add("ooc.output_records", result.output_records);
  } else {
    result.output_records = result.output.size();
  }
  result.sweep_net = net.stats();
  // The Network accumulates stats across reduce + scatter on the same
  // object, so the sweep's own contribution is the delta from the
  // merge-phase snapshot — mirroring the cumulative block under
  // "net.sweep.*" would double-count the merge traffic.
  {
    mrnet::NetworkStats sweep_delta = result.sweep_net;
    sweep_delta.packets_up -= result.merge_net.packets_up;
    sweep_delta.packets_down -= result.merge_net.packets_down;
    sweep_delta.bytes_up -= result.merge_net.bytes_up;
    sweep_delta.bytes_down -= result.merge_net.bytes_down;
    sweep_delta.acks -= result.merge_net.acks;
    sweep_delta.packets_dropped -= result.merge_net.packets_dropped;
    sweep_delta.retries -= result.merge_net.retries;
    sweep_delta.timeouts -= result.merge_net.timeouts;
    sweep_delta.reorders_injected -= result.merge_net.reorders_injected;
    sweep_delta.duplicates_discarded -=
        result.merge_net.duplicates_discarded;
    sweep_delta.leaves_recovered -= result.merge_net.leaves_recovered;
    sweep_delta.recovery_seconds -= result.merge_net.recovery_seconds;
    sweep_delta.total_seconds -= result.merge_net.total_seconds;
    mrnet::record_network_stats(*recorder, "sweep", sweep_delta);
  }

  // Leaves write the labelled output in parallel: contiguous runs at
  // per-cluster offsets (§3.4) — large ops, unlike the partition phase.
  const double output_write = sim::lustre_write_seconds(
      config_.titan.lustre, result.output_records * io::kLabeledRecordSize,
      leaf_count, 1ULL << 20);
  result.sim.sweep = scatter_seconds + output_write;

  // The four phases as top-level sim-clock spans on the root track, so a
  // trace opens with the Figure-9 breakdown before any per-node detail.
  if (tracing) {
    const double p = result.sim.partition;
    tracer.sim_span("sim:partition", "phase", 0, 0.0, p);
    tracer.sim_span("sim:startup", "phase", 0, p, cluster_base);
    tracer.sim_span("sim:cluster+merge", "phase", 0, cluster_base,
                    sweep_base);
    tracer.sim_span("sim:sweep", "phase", 0, sweep_base,
                    sweep_base + result.sim.sweep);
  }

  finalize();
  return result;
}

}  // namespace mrscan::core
