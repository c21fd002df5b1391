// Batch workloads: the path mrscan_cli runs (read the input file ->
// core::MrScan::run -> sweep::write_labeled_text), timed whole, and a
// traced replay of the same pipeline from the layers' public functions.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/mrscan.hpp"
#include "data/sdss.hpp"
#include "data/twitter.hpp"
#include "dbscan/sequential.hpp"
#include "gpu/mrscan_gpu.hpp"
#include "harness.hpp"
#include "io/point_file.hpp"
#include "merge/merger.hpp"
#include "merge/summary.hpp"
#include "mrnet/topology.hpp"
#include "obs/export.hpp"
#include "partition/distributed.hpp"
#include "sweep/sweep.hpp"
#include "util/thread_pool.hpp"

namespace e2e {

namespace {

using namespace mrscan;
namespace fs = std::filesystem;

enum class Shape { kTwitter, kSdss };

/// Only what mrscan_cli flags set; every other knob keeps the library
/// default (two-pass, KD-tree, fanout 256).
struct BatchSpec {
  const char* name;
  Shape shape;
  std::uint64_t points;
  double eps;
  std::size_t min_pts;
  std::size_t leaves;
  std::size_t partition_nodes;
  std::size_t host_threads;
};

// twitter-16leaf is the ROADMAP baseline configuration scaled to 100k
// points, with MinPts scaled alike so the density a core point needs is
// the baseline's: its cost sits in the cluster kernels and output
// encoding. sdss-1024leaf runs the paper's SDSS parameters on 1024
// leaves: partitioning and a two-level merge tree dominate and the
// per-leaf kernels are small. Inputs are kept to 100k points (2.8 MB)
// because the timing of DRAM-bound work drifts by tens of percent on a
// shared host, while cache-resident work stays steady.
constexpr BatchSpec kSpecs[] = {
    {"twitter-16leaf", Shape::kTwitter, 100000, 0.1, 10, 16, 4, 4},
    {"sdss-1024leaf", Shape::kSdss, 100000, 0.00015, 5, 1024, 4, 4},
};

// A quarter of the generator's default stripe: 100k points over it keep
// the object density of 400k points over the whole stripe.
constexpr geom::BBox kSdssWindow{150.0, 10.0, 160.0, 12.0};

constexpr int kSetupRounds = 25;
constexpr std::size_t kMinReps = 3;

// Counts the DESIGN §8 determinism contract requires to repeat exactly.
constexpr const char* kRepeatedCounts[] = {
    "io.input_bytes",        "partition.shadow_ratio",
    "partition.parts",       "gpu.distance_ops",
    "gpu.dense_point_ratio", "gpu.kernel_launches",
    "gpu.transfers",         "cluster.bcp_ops",
    "cluster.bcp_pairs",     "merge.bytes_up",
    "merge.merges_detected", "sweep.output_bytes",
};

const BatchSpec* find_spec(const std::string& name) {
  for (const BatchSpec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

/// Twitter: a seeded half of a fixed-geography pool (see seeded_sample).
/// SDSS objects are uniform over the window, so the generator seed itself
/// varies the input without swinging its cost.
geom::PointSet generate(const BatchSpec& spec, std::uint64_t seed) {
  if (spec.shape == Shape::kTwitter) {
    data::TwitterConfig config;
    config.num_points = 2 * spec.points;
    return seeded_sample(data::generate_twitter(config), spec.points, seed);
  }
  data::SdssConfig config;
  config.num_points = spec.points;
  config.seed = seed;
  config.window = kSdssWindow;
  return data::generate_sdss(config);
}

core::MrScanConfig cli_config(const BatchSpec& spec, std::size_t threads) {
  core::MrScanConfig config;
  config.params = {spec.eps, spec.min_pts};
  config.leaves = spec.leaves;
  config.partition_nodes = spec.partition_nodes;
  config.host_threads = threads;
  return config;
}

/// Fingerprint of the counts a run must reproduce exactly.
std::uint64_t counts_digest(const core::MrScanResult& result) {
  std::uint64_t distance_ops = 0;
  for (const gpu::GpuDbscanStats& s : result.leaf_stats) {
    distance_ops += s.distance_ops;
  }
  const partition::PartitionPlan& plan = result.partition_phase.plan;
  Fnv h;
  h.u64(distance_ops);
  h.u64(result.merge_net.bytes_up);
  h.u64(plan.total_owned_points());
  h.u64(plan.total_points_with_shadow());
  h.u64(result.cluster_count);
  h.u64(result.merges_detected);
  h.f64(result.sim.total());
  return h.value();
}

struct CliRun {
  double seconds = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t counts = 0;
};

/// One CLI-equivalent run, timed from the read to the output file being
/// closed. The result is kept in `keep` for the checks that follow;
/// `keep` is emptied first so only one run's memory is live at a time.
CliRun run_cli(const core::MrScanConfig& config, const fs::path& input,
               const fs::path& output,
               std::optional<core::MrScanResult>& keep) {
  keep.reset();
  // A fresh file each run, as a CLI run usually writes: rewriting one in
  // place makes the filesystem write the old blocks back at once.
  fs::remove(output);
  CliRun run;
  {
    const auto t0 = Clock::now();
    const geom::PointSet points = io::read_points_binary(input);
    core::MrScanResult result = core::MrScan(config).run(points);
    sweep::write_labeled_text(output, result.output);
    run.seconds = seconds_between(t0, Clock::now());
    keep = std::move(result);
  }
  run.digest = file_digest(output);
  run.counts = counts_digest(*keep);
  return run;
}

/// Run `body` inside a span and return the span id.
template <class Body>
int traced(SpanLog& log, const std::string& name, int parent, int run,
           Body&& body) {
  const int id = log.begin(name, parent, run);
  body();
  log.end(id);
  return id;
}

struct LeafWork {
  geom::PointSet points;
  std::size_t owned = 0;
  dbscan::Labeling labels;
  mrnet::Packet packet;
  gpu::GpuDbscanStats stats;
  double gpu_start = 0.0;
  double gpu_end = 0.0;
  double summary_end = 0.0;
};

struct Replay {
  std::vector<sweep::LabeledPoint> records;
  std::size_t cluster_count = 0;
  double seconds = 0.0;
  LayerSample sample;
};

/// The pipeline core::MrScan::run executes, rebuilt from each layer's
/// public function with a span around every call: read, partition,
/// per-leaf GPU DBSCAN + summary, the merge tree level by level, global
/// ids, labelling and encoding. The simulated network and cost model are
/// left out; the records must still equal MrScan::run's.
Replay replay(const core::MrScanConfig& config, const fs::path& input,
              const fs::path& output, SpanLog& log, int run) {
  Replay out;
  LayerSample& m = out.sample;
  fs::remove(output);  // as run_cli does
  const int root = log.begin("replay", -1, run);
  util::ThreadPool pool(config.host_threads);

  geom::PointSet points;
  m["io.read_s"] = log.duration(traced(log, "io.read", root, run, [&] {
    points = io::read_points_binary(input);
  }));
  m["io.input_bytes"] = static_cast<double>(fs::file_size(input));

  partition::DistributedPartitionerConfig part_config;
  part_config.eps = config.params.eps;
  part_config.partition_nodes = config.partition_nodes;
  part_config.planner = partition::PartitionerConfig{
      config.leaves,         config.params.min_pts,
      config.rebalance,      config.rebalance_threshold,
      config.shadow_regions, config.cell_refine};
  part_config.materialize.shadow_rep_threshold = config.shadow_rep_threshold;
  part_config.transport = config.transport;
  part_config.host_threads = config.host_threads;
  partition::PartitionPhaseResult phase;
  m["partition.run_s"] =
      log.duration(traced(log, "partition.run", root, run, [&] {
        phase = partition::run_distributed_partitioner(points, part_config,
                                                       config.titan);
      }));
  const partition::PartitionPlan& plan = phase.plan;
  const std::size_t leaf_count = phase.segment_counts.size();
  const std::uint64_t owned = std::max<std::uint64_t>(
      1, plan.total_owned_points());
  m["partition.shadow_ratio"] =
      static_cast<double>(plan.total_points_with_shadow()) /
      static_cast<double>(owned);
  m["partition.parts"] = static_cast<double>(plan.part_count());

  gpu::MrScanGpuConfig gpu_config = config.gpu;
  gpu_config.params = config.params;
  gpu_config.cluster_algo = config.cluster_algo;
  gpu_config.index_backend = config.index_backend;
  std::vector<LeafWork> leaves(leaf_count);
  const int cluster_span = log.begin("gpu.cluster", root, run);
  pool.parallel_for(0, leaf_count, [&](std::size_t leaf) {
    LeafWork& work = leaves[leaf];
    const io::Segment& segment = phase.segments[leaf];
    work.owned = segment.owned.size();
    work.points = segment.owned;
    work.points.insert(work.points.end(), segment.shadow.begin(),
                       segment.shadow.end());
    gpu::VirtualDevice device(config.titan.gpu_spec);
    work.gpu_start = log.now();
    gpu::GpuDbscanResult clustered =
        gpu::mrscan_gpu_dbscan(work.points, gpu_config, device);
    work.gpu_end = log.now();
    work.stats = clustered.stats;
    work.labels = std::move(clustered.labels);
    merge::LeafSummaryInput summary_input;
    summary_input.points = work.points;
    summary_input.owned_count = work.owned;
    summary_input.labels = &work.labels;
    summary_input.geometry = plan.geometry;
    summary_input.owned_cells = plan.parts[leaf].owned_cells;
    summary_input.shadow_cells = plan.parts[leaf].shadow_cells;
    summary_input.shadow_rings = plan.shadow_rings;
    work.packet = merge::build_leaf_summary(summary_input).to_packet();
    work.summary_end = log.now();
  });
  log.end(cluster_span);
  m["gpu.cluster_s"] = log.duration(cluster_span);

  std::vector<double> leaf_seconds;
  double summary_seconds = 0.0;
  double leaf_points = 0.0;
  double dense_points = 0.0;
  double distance_ops = 0.0, launches = 0.0, transfers = 0.0;
  double bcp_ops = 0.0, bcp_pairs = 0.0;
  for (std::size_t leaf = 0; leaf < leaf_count; ++leaf) {
    const LeafWork& work = leaves[leaf];
    const std::string tag = " " + std::to_string(leaf);
    log.add("gpu.leaf" + tag, cluster_span, run, work.gpu_start, work.gpu_end);
    log.add("merge.summary" + tag, cluster_span, run, work.gpu_end,
            work.summary_end);
    leaf_seconds.push_back(work.gpu_end - work.gpu_start);
    summary_seconds += work.summary_end - work.gpu_end;
    leaf_points += static_cast<double>(work.points.size());
    dense_points += static_cast<double>(work.stats.dense_points);
    distance_ops += static_cast<double>(work.stats.distance_ops);
    launches += static_cast<double>(work.stats.kernel_launches);
    transfers += static_cast<double>(work.stats.h2d_transfers +
                                     work.stats.d2h_transfers);
    bcp_ops += static_cast<double>(work.stats.cellgraph_bcp_ops);
    bcp_pairs += static_cast<double>(work.stats.cellgraph_bcp_pairs);
  }
  m["gpu.leaf_s.p50"] = median(leaf_seconds);
  m["gpu.leaf_s.max"] =
      leaf_seconds.empty()
          ? 0.0
          : *std::max_element(leaf_seconds.begin(), leaf_seconds.end());
  m["gpu.distance_ops"] = distance_ops;
  m["gpu.dense_point_ratio"] = dense_points / std::max(1.0, leaf_points);
  m["gpu.kernel_launches"] = launches;
  m["gpu.transfers"] = transfers;
  m["cluster.bcp_ops"] = bcp_ops;
  m["cluster.bcp_pairs"] = bcp_pairs;
  m["merge.summary_s"] = summary_seconds;

  // Merge: summaries reduce up mrnet::Topology::balanced level by level,
  // each node's children decoded in topology order (the order the
  // network's filter receives them in).
  const mrnet::Topology topology =
      mrnet::Topology::balanced(leaf_count, config.fanout);
  std::vector<mrnet::Packet> packets(topology.node_count());
  for (std::size_t leaf = 0; leaf < leaf_count; ++leaf) {
    packets[topology.leaves()[leaf]] = std::move(leaves[leaf].packet);
  }
  std::size_t deepest = 0;
  for (std::uint32_t node = 0; node < topology.node_count(); ++node) {
    if (!topology.is_leaf(node)) {
      deepest = std::max(deepest, topology.depth(node));
    }
  }
  std::vector<std::vector<std::vector<std::uint32_t>>> child_maps(
      topology.node_count());
  double bytes_up = 0.0;
  double merges = 0.0;
  const int reduce_span = log.begin("merge.reduce", root, run);
  for (std::size_t depth = deepest + 1; depth-- > 0;) {
    const std::string level = std::to_string(deepest - depth + 1);
    const int level_span = traced(log, "merge.level" + level, reduce_span,
                                  run, [&] {
      for (std::uint32_t node = 0; node < topology.node_count(); ++node) {
        if (topology.is_leaf(node) || topology.depth(node) != depth) continue;
        const std::vector<std::uint32_t>& kids = topology.children(node);
        for (const std::uint32_t kid : kids) {
          bytes_up += static_cast<double>(packets[kid].size_bytes());
        }
        std::vector<merge::MergeSummary> summaries(kids.size());
        pool.parallel_for(0, kids.size(), [&](std::size_t i) {
          summaries[i] = merge::MergeSummary::from_packet(packets[kids[i]]);
        });
        merge::MergeResult merged = merge::merge_summaries(
            summaries, plan.geometry, config.params.eps);
        merges += static_cast<double>(merged.merges_detected);
        packets[node] = merged.merged.to_packet();
        child_maps[node] = std::move(merged.child_cluster_map);
      }
    });
    m["merge.level" + level + "_s"] = log.duration(level_span);
  }
  log.end(reduce_span);
  m["merge.reduce_s"] = log.duration(reduce_span);
  m["merge.bytes_up"] = bytes_up;
  m["merge.merges_detected"] = merges;

  // Sweep: global ids at the root travel down the child maps; each leaf
  // labels its owned points.
  m["sweep.label_s"] = log.duration(traced(log, "sweep.label", root, run, [&] {
    const sweep::GlobalAssignment assignment = sweep::assign_global_ids(
        merge::MergeSummary::from_packet(packets[0]));
    out.cluster_count = assignment.cluster_count;
    std::vector<std::vector<std::int64_t>> ids(topology.node_count());
    ids[0].resize(assignment.cluster_count);
    std::iota(ids[0].begin(), ids[0].end(), std::int64_t{0});
    for (std::size_t depth = 0; depth <= deepest; ++depth) {
      for (std::uint32_t node = 0; node < topology.node_count(); ++node) {
        if (topology.is_leaf(node) || topology.depth(node) != depth) continue;
        const std::vector<std::uint32_t>& kids = topology.children(node);
        for (std::size_t pos = 0; pos < kids.size(); ++pos) {
          const std::vector<std::uint32_t>& map = child_maps[node][pos];
          std::vector<std::int64_t>& child_ids = ids[kids[pos]];
          child_ids.resize(map.size());
          for (std::size_t j = 0; j < map.size(); ++j) {
            child_ids[j] = ids[node][map[j]];
          }
        }
      }
    }
    for (std::size_t leaf = 0; leaf < leaf_count; ++leaf) {
      const LeafWork& work = leaves[leaf];
      const auto records = sweep::label_owned_points(
          std::span<const geom::Point>(work.points).first(work.owned),
          work.labels, ids[topology.leaves()[leaf]], config.keep_noise);
      out.records.insert(out.records.end(), records.begin(), records.end());
    }
  }));
  m["sweep.encode_s"] =
      log.duration(traced(log, "sweep.encode", root, run, [&] {
        sweep::write_labeled_text(output, out.records);
      }));
  log.end(root);
  m["sweep.output_bytes"] = static_cast<double>(fs::file_size(output));
  out.seconds = log.duration(root);
  m["trace.coverage"] = log.child_seconds(root) / out.seconds;
  return out;
}

void sort_by_id(std::vector<sweep::LabeledPoint>& records) {
  std::sort(records.begin(), records.end(),
            [](const sweep::LabeledPoint& a, const sweep::LabeledPoint& b) {
              return a.point.id < b.point.id;
            });
}

/// Core points must be clustered exactly as the sequential oracle does
/// (border points may legitimately join either neighbouring cluster).
bool matches_oracle(const fs::path& input, const core::MrScanResult& result,
                    const dbscan::DbscanParams& params) {
  const geom::PointSet points = io::read_points_binary(input);
  const dbscan::Labeling truth = dbscan::dbscan_sequential(points, params);
  return sweep::equivalent_partitions_where(result.labels_for(points),
                                            truth.cluster, truth.core);
}

}  // namespace

std::size_t batch_threads(const std::string& workload) {
  const BatchSpec* spec = find_spec(workload);
  return spec == nullptr ? 0 : spec->host_threads;
}

int run_batch(const RunOptions& opts) {
  const BatchSpec& spec = *find_spec(opts.workload);
  fs::create_directories(opts.work_dir);
  const fs::path input = opts.work_dir / (opts.workload + ".points");
  const fs::path output = opts.work_dir / (opts.workload + ".clusters");

  // Set-up: generate the seeded input and write the binary point file,
  // repeated so set-up time is a median too.
  std::vector<double> setup_seconds;
  for (int round = 0; round < kSetupRounds; ++round) {
    const auto t0 = Clock::now();
    const geom::PointSet points = generate(spec, opts.seed);
    fs::remove(input);  // a new file: rewriting in place flushes the old
    io::write_points_binary(input, points);
    setup_seconds.push_back(seconds_between(t0, Clock::now()));
  }
  print_environment(opts, fs::file_size(input));
  const core::MrScanConfig config = cli_config(spec, opts.threads);

  Checks checks;
  LayerSample values;
  values["setup_s"] = median(setup_seconds);

  // Warm-up run: fills allocator caches; its output is the reference
  // every timed repetition must reproduce byte for byte.
  std::optional<core::MrScanResult> last;
  const CliRun reference = run_cli(config, input, output, last);
  checks.attempt();

  std::vector<double> run_seconds;
  const auto measure = [&](double budget) {
    const auto start = Clock::now();
    const std::size_t first = run_seconds.size();
    while (run_seconds.size() - first < kMinReps ||
           seconds_between(start, Clock::now()) < budget) {
      const CliRun r = run_cli(config, input, output, last);
      checks.attempt();
      if (r.digest != reference.digest || r.counts != reference.counts) {
        checks.fail(1, "repetition " + std::to_string(run_seconds.size()) +
                           " differs from the warm-up run");
      }
      run_seconds.push_back(r.seconds);
    }
  };

  if (!opts.trace) {
    measure(opts.seconds);
    values["peak_rss_mb"] = peak_rss_mb();
    std::vector<double> points_per_s;
    for (const double s : run_seconds) {
      points_per_s.push_back(static_cast<double>(spec.points) / s);
    }
    values["e2e_s"] = median(run_seconds);
    values["epoch_ms.p50"] = 1000.0 * quantile(run_seconds, 0.5);
    values["epoch_ms.p90"] = 1000.0 * quantile(run_seconds, 0.9);
    values["queries_per_s"] = median(points_per_s);
    std::cout << "run_s:";
    for (const double s : run_seconds) std::cout << " " << s;
    std::cout << "\nruns: " << run_seconds.size() << " timed + 1 warm-up, "
              << last->cluster_count << " clusters, "
              << last->output_records << " records\n";
  } else {
    // Untraced half first (the overhead baseline), then traced replays.
    measure(opts.seconds / 2);
    std::vector<sweep::LabeledPoint> expected_records = last->output;
    sort_by_id(expected_records);
    const fs::path replay_output =
        opts.work_dir / (opts.workload + ".replay.clusters");
    SpanLog log;
    std::vector<LayerSample> samples;
    std::vector<double> replay_seconds;
    const auto start = Clock::now();
    while (samples.size() < kMinReps ||
           seconds_between(start, Clock::now()) < opts.seconds / 2) {
      Replay r = replay(config, input, replay_output, log,
                        static_cast<int>(samples.size()));
      checks.attempt();
      sort_by_id(r.records);
      if (r.records != expected_records ||
          r.cluster_count != last->cluster_count) {
        checks.fail(1, "replay " + std::to_string(samples.size()) +
                           " output differs from MrScan::run");
      }
      replay_seconds.push_back(r.seconds);
      samples.push_back(std::move(r.sample));
    }
    checks.expect_repeat(samples, kRepeatedCounts);
    double untraced_ops = 0.0;
    for (const gpu::GpuDbscanStats& s : last->leaf_stats) {
      untraced_ops += static_cast<double>(s.distance_ops);
    }
    if (samples.front().at("gpu.distance_ops") != untraced_ops) {
      checks.fail(1, "replay distance ops differ from MrScan::run's");
    }
    values = median_sample(samples);
    values["sim.total_s"] = last->sim.total();
    values["trace.overhead"] =
        median(replay_seconds) / median(run_seconds) - 1.0;
    obs::write_text_file((opts.work_dir / (opts.workload + ".spans.json"))
                             .string(),
                         log.to_json());
  }

  const auto oracle_start = Clock::now();
  if (!matches_oracle(input, *last, config.params)) {
    checks.fail(checks.attempted(),
                "core points differ from dbscan_sequential");
  }
  std::cout << "oracle: dbscan_sequential check took "
            << seconds_between(oracle_start, Clock::now()) << " s\n";
  if (!check_expected(opts, reference.digest, reference.counts)) {
    checks.fail(checks.attempted(),
                "output or counts differ from the recorded digests");
  }
  print_result(opts.trace, values, checks);
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace e2e
