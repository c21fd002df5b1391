// serve-20k: a long-lived serve::ClusterService under a closed-loop
// writer (mutations with an epoch every 8) while reader threads issue
// label_of back to back, also closed-loop.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <stop_token>
#include <thread>
#include <vector>

#include "core/mrscan.hpp"
#include "data/stream.hpp"
#include "data/twitter.hpp"
#include "harness.hpp"
#include "obs/export.hpp"
#include "serve/service.hpp"
#include "sweep/sweep.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace {

using namespace mrscan;
namespace fs = std::filesystem;

// The bench_serve configuration at its 20k live set, where the epoch
// cost still grows with the live set (ROADMAP item 5).
constexpr const char* kName = "serve-20k";
constexpr std::uint64_t kInitialPoints = 20000;
constexpr std::uint64_t kMutations = 1600;
constexpr double kRemoveFraction = 0.35;
constexpr std::uint64_t kEpochEvery = 8;
constexpr double kEps = 0.05;
constexpr std::size_t kMinPts = 5;
constexpr std::size_t kHostThreads = 1;
constexpr std::size_t kReaders = 2;
constexpr std::size_t kQueryBatch = 64;
constexpr int kSetupRounds = 5;

// EpochStats counts the DESIGN §8 contract requires to repeat exactly.
constexpr const char* kRepeatedCounts[] = {
    "serve.recluster_ratio", "serve.dirty_cells", "serve.distance_ops",
    "serve.edge_tests",      "sim.total_s",
};

/// The library's stream generator picks which mutations insert and which
/// live points are removed; the points themselves are then redrawn from
/// the fixed Twitter geography (see seeded_sample) by id, which the
/// generator assigns sequentially from 0.
data::MutationStream make_stream(std::uint64_t seed) {
  data::StreamConfig config;
  config.distribution = data::StreamDistribution::kTwitter;
  config.initial_points = kInitialPoints;
  config.mutations = kMutations;
  config.remove_fraction = kRemoveFraction;
  config.seed = seed;
  data::MutationStream stream = data::generate_mutation_stream(config);

  data::TwitterConfig geography;
  geography.num_points = 10 * (kInitialPoints + kMutations);
  const geom::PointSet sample =
      seeded_sample(data::generate_twitter(geography),
                    kInitialPoints + kMutations, seed);
  const auto place = [&](geom::Point& p) {
    const geom::Point& from = sample.at(p.id);
    p.x = from.x;
    p.y = from.y;
  };
  for (geom::Point& p : stream.initial) place(p);
  for (data::Mutation& m : stream.mutations) place(m.point);
  return stream;
}

serve::ServeConfig serve_config() {
  serve::ServeConfig config;
  config.params = {kEps, kMinPts};
  config.host_threads = kHostThreads;
  return config;
}

struct ReaderOut {
  std::uint64_t queries = 0;
  std::vector<double> batch_ns;  // per-call ns, one entry per batch
};

void read_until_stopped(std::stop_token stop,
                        const serve::ClusterService& service,
                        const std::vector<geom::PointId>& ids,
                        std::uint64_t seed, bool timed, ReaderOut& out) {
  util::Rng rng(seed);
  while (!stop.stop_requested()) {
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < kQueryBatch; ++k) {
      (void)service.label_of(ids[rng.next_below(ids.size())]);
    }
    if (timed) {
      out.batch_ns.push_back(1e9 * seconds_between(t0, Clock::now()) /
                             static_cast<double>(kQueryBatch));
    }
    out.queries += kQueryBatch;
  }
}

struct Pass {
  bool traced = false;
  double stream_s = 0.0;
  std::vector<double> epoch_ms;
  std::vector<double> apply_us;
  std::vector<double> query_ns;
  std::uint64_t queries = 0;
  std::uint64_t operations = 0;
  std::uint64_t failed_epochs = 0;
  double coverage = 0.0;
  LayerSample counts;
  std::uint64_t counts_digest = 0;
  std::unique_ptr<serve::ClusterService> service;
};

/// Set up a service (stream generation + bootstrap), then drive the
/// stream with readers running. Traced passes record a span around
/// every call the writer makes.
Pass run_pass(std::uint64_t seed, SpanLog* log, int run) {
  Pass pass;
  pass.traced = log != nullptr;
  const data::MutationStream stream = make_stream(seed);
  pass.service = std::make_unique<serve::ClusterService>(serve_config());
  serve::ClusterService& service = *pass.service;
  const int boot_span = log ? log->begin("serve.bootstrap", -1, run) : -1;
  const serve::EpochResult boot = service.bootstrap(stream.initial);
  if (log) log->end(boot_span);
  pass.operations = 1;
  if (!boot.ok) ++pass.failed_epochs;

  std::vector<geom::PointId> ids;
  for (const geom::Point& p : stream.initial) ids.push_back(p.id);
  for (const data::Mutation& m : stream.mutations) {
    if (m.kind == data::Mutation::Kind::kInsert) ids.push_back(m.point.id);
  }

  double recluster = 0.0, live = 0.0, dirty = 0.0, ops = 0.0, edges = 0.0;
  double sim_seconds = boot.stats.sim_seconds;
  std::uint64_t epochs = 0;
  const auto epoch = [&](int parent) {
    const int id = log ? log->begin("serve.advance_epoch", parent, run) : -1;
    const auto t0 = Clock::now();
    const serve::EpochResult r = service.advance_epoch();
    pass.epoch_ms.push_back(1000.0 * seconds_between(t0, Clock::now()));
    if (log) log->end(id);
    ++pass.operations;
    ++epochs;
    if (!r.ok) ++pass.failed_epochs;
    recluster += static_cast<double>(r.stats.recluster_points);
    live += static_cast<double>(r.stats.live_points);
    dirty += static_cast<double>(r.stats.dirty_cells);
    ops += static_cast<double>(r.stats.distance_ops);
    edges += static_cast<double>(r.stats.edge_tests);
    sim_seconds += r.stats.sim_seconds;
  };

  std::vector<ReaderOut> readers(kReaders);
  // jthread: an exception in the writer still stops and joins the readers.
  std::vector<std::jthread> threads;
  const int stream_span = log ? log->begin("serve.stream", -1, run) : -1;
  const auto start = Clock::now();
  for (std::size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back(read_until_stopped, std::cref(service),
                         std::cref(ids), seed * 31 + r, log != nullptr,
                         std::ref(readers[r]));
  }
  std::uint64_t in_batch = 0;
  for (const data::Mutation& m : stream.mutations) {
    const bool insert = m.kind == data::Mutation::Kind::kInsert;
    const int id = log ? log->begin(insert ? "serve.insert" : "serve.remove",
                                    stream_span, run)
                       : -1;
    const auto t0 = Clock::now();
    if (insert) {
      service.insert(m.point);
    } else {
      service.remove(m.point.id);
    }
    if (log) {
      pass.apply_us.push_back(1e6 * seconds_between(t0, Clock::now()));
      log->end(id);
    }
    ++pass.operations;
    if (++in_batch == kEpochEvery) {
      in_batch = 0;
      epoch(stream_span);
    }
  }
  if (in_batch > 0) epoch(stream_span);
  pass.stream_s = seconds_between(start, Clock::now());
  for (std::jthread& t : threads) t.request_stop();
  threads.clear();
  if (log) {
    log->end(stream_span);
    pass.coverage =
        log->child_seconds(stream_span) / log->duration(stream_span);
  }

  for (ReaderOut& r : readers) {
    pass.queries += r.queries;
    pass.query_ns.insert(pass.query_ns.end(), r.batch_ns.begin(),
                         r.batch_ns.end());
  }
  const double n = static_cast<double>(std::max<std::uint64_t>(1, epochs));
  pass.counts["serve.recluster_ratio"] = recluster / std::max(1.0, live);
  pass.counts["serve.dirty_cells"] = dirty / n;
  pass.counts["serve.distance_ops"] = ops / n;
  pass.counts["serve.edge_tests"] = edges / n;
  pass.counts["sim.total_s"] = sim_seconds;
  Fnv h;
  for (const double v : {recluster, live, dirty, ops, edges, sim_seconds}) {
    h.f64(v);
  }
  pass.counts_digest = h.value();
  return pass;
}

/// The final snapshot as the labelled-text records mrscan_cli --serve
/// writes.
std::vector<sweep::LabeledPoint> snapshot_records(
    const serve::ClusterService& service) {
  const auto snapshot = service.snapshot();
  std::vector<sweep::LabeledPoint> records;
  records.reserve(snapshot->points.size());
  for (std::size_t i = 0; i < snapshot->points.size(); ++i) {
    records.push_back(
        sweep::LabeledPoint{snapshot->points[i], snapshot->labels[i]});
  }
  return records;
}

/// serve ≡ batch: the final snapshot is the same clustering as a cold
/// core::MrScan run over the surviving points (the differential
/// battery's batch configuration).
bool matches_batch(const serve::ClusterService& service) {
  const auto snapshot = service.snapshot();
  core::MrScanConfig config;
  config.params = {kEps, kMinPts};
  config.leaves = 4;
  config.partition_nodes = 2;
  config.host_threads = kHostThreads;
  const auto batch =
      core::MrScan(config).run(snapshot->points).labels_for(snapshot->points);
  return sweep::equivalent_partitions(snapshot->labels, batch);
}

}  // namespace

std::size_t serve_threads(const std::string& workload) {
  // Each reader is busy all the time; the writer is busy only while the
  // service's pool is not, since it waits on the pool.
  return workload == kName ? kHostThreads + kReaders : 0;
}

int run_serve(const RunOptions& opts) {
  fs::create_directories(opts.work_dir);
  const fs::path output = opts.work_dir / (opts.workload + ".clusters");
  print_environment(opts, kInitialPoints * sizeof(geom::Point));

  // Set-up: stream generation + bootstrap, several rounds for a median.
  std::vector<double> setup_seconds;
  for (int round = 0; round < kSetupRounds; ++round) {
    const auto t0 = Clock::now();
    serve::ClusterService service(serve_config());
    service.bootstrap(make_stream(opts.seed).initial);
    setup_seconds.push_back(seconds_between(t0, Clock::now()));
  }

  Checks checks;
  std::vector<Pass> passes;
  std::vector<LayerSample> counts;
  std::uint64_t output_digest = 0;
  std::unique_ptr<serve::ClusterService> final_service;
  SpanLog log;

  const auto drive = [&](bool traced, double budget) {
    const auto start = Clock::now();
    const std::size_t first = passes.size();
    while (passes.size() == first ||
           seconds_between(start, Clock::now()) < budget) {
      final_service.reset();  // one service alive at a time
      const int run = static_cast<int>(passes.size());
      Pass pass = run_pass(opts.seed, traced ? &log : nullptr, run);
      checks.attempt(pass.operations);
      if (pass.failed_epochs > 0) {
        checks.fail(pass.failed_epochs,
                    std::to_string(pass.failed_epochs) + " failed epochs");
      }
      sweep::write_labeled_text(output, snapshot_records(*pass.service));
      const std::uint64_t digest = file_digest(output);
      if (passes.empty()) {
        output_digest = digest;
      } else if (digest != output_digest ||
                 pass.counts_digest != passes.front().counts_digest) {
        checks.fail(1, "pass " + std::to_string(run) +
                           " final snapshot or counts differ from pass 0");
      }
      counts.push_back(pass.counts);
      final_service = std::move(pass.service);
      passes.push_back(std::move(pass));
    }
  };

  LayerSample values;
  if (!opts.trace) {
    drive(false, opts.seconds);
  } else {
    drive(false, opts.seconds / 2);
    drive(true, opts.seconds / 2);
  }
  const double rss = peak_rss_mb();

  // Epoch latency quantiles are taken per pass, then the median over
  // passes: a host hiccup that stretches the tail of one pass does not
  // move the run's figure.
  std::vector<double> epoch_p50, epoch_p90, stream_s, qps;
  std::size_t epochs = 0;
  std::vector<double> traced_s, untraced_s, apply_us, query_ns, coverage;
  for (const Pass& p : passes) {
    (p.traced ? traced_s : untraced_s).push_back(p.stream_s);
    if (p.traced) {
      apply_us.insert(apply_us.end(), p.apply_us.begin(), p.apply_us.end());
      query_ns.insert(query_ns.end(), p.query_ns.begin(), p.query_ns.end());
      coverage.push_back(p.coverage);
      continue;
    }
    epoch_p50.push_back(quantile(p.epoch_ms, 0.5));
    epoch_p90.push_back(quantile(p.epoch_ms, 0.9));
    epochs += p.epoch_ms.size();
    stream_s.push_back(p.stream_s);
    qps.push_back(static_cast<double>(p.queries) / p.stream_s);
  }
  checks.expect_repeat(counts, kRepeatedCounts);

  if (!opts.trace) {
    values["setup_s"] = median(setup_seconds);
    values["e2e_s"] = median(stream_s);
    values["peak_rss_mb"] = rss;
    values["epoch_ms.p50"] = median(epoch_p50);
    values["epoch_ms.p90"] = median(epoch_p90);
    values["queries_per_s"] = median(qps);
    std::cout << "pass stream_s / epoch_ms.p50 / epoch_ms.p90 / "
                 "queries_per_s:";
    for (const Pass& p : passes) {
      std::cout << " " << p.stream_s << "/" << median(p.epoch_ms) << "/"
                << quantile(p.epoch_ms, 0.9) << "/"
                << static_cast<double>(p.queries) / p.stream_s;
    }
    std::cout << "\npasses: " << passes.size() << ", " << epochs
              << " epochs, " << final_service->live_points()
              << " live points at the end\n";
  } else {
    values = counts.front();
    values["serve.apply_us.p50"] = median(apply_us);
    values["serve.query_ns.p50"] = median(query_ns);
    values["trace.overhead"] = median(traced_s) / median(untraced_s) - 1.0;
    values["trace.coverage"] = median(coverage);
    obs::write_text_file((opts.work_dir / (opts.workload + ".spans.json"))
                             .string(),
                         log.to_json());
  }

  if (!matches_batch(*final_service)) {
    checks.fail(1, "final snapshot differs from a batch run over the live set");
  }
  if (!check_expected(opts, output_digest, passes.front().counts_digest)) {
    checks.fail(checks.attempted(),
                "final snapshot or counts differ from the recorded digests");
  }
  print_result(opts.trace, values, checks);
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace e2e
