// serve::ClusterService lifecycle: epoch edge cases (empty epoch,
// delete-only epoch emptying a core cell, mutations whose effect lands in
// a shadow ring of the dirty cell, coordinates the grid cannot address),
// incremental ≡ cold bootstrap after every epoch (streams and a bridge
// that splits and re-merges a cluster), golden per-epoch counts,
// fault-injected maintenance epochs, epoch-based snapshot reclamation,
// and the seeded streaming workload generator the service tests and
// bench share.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "cluster/cell_graph_ops.hpp"
#include "cluster_equiv.hpp"
#include "core/mrscan.hpp"
#include "core/serve_state.hpp"
#include "data/stream.hpp"
#include "data/synthetic.hpp"
#include "obs/names.hpp"
#include "serve/script.hpp"
#include "serve/service.hpp"

namespace md = mrscan::data;
namespace mg = mrscan::geom;
namespace ms = mrscan::serve;
namespace names = mrscan::obs::names;

namespace {

ms::ServeConfig make_config(double eps, std::size_t min_pts) {
  ms::ServeConfig config;
  config.params = {eps, min_pts};
  return config;
}

mg::Point pt(mg::PointId id, double x, double y) {
  mg::Point p;
  p.id = id;
  p.x = x;
  p.y = y;
  p.weight = 1.0;
  return p;
}

/// Cold batch labels for the service's current live set, aligned with the
/// snapshot's ascending-id point order.
std::vector<mrscan::dbscan::ClusterId> batch_labels(
    const mg::PointSet& points, const mrscan::dbscan::DbscanParams& params) {
  mrscan::core::MrScanConfig config;
  config.params = params;
  config.leaves = 4;
  config.partition_nodes = 2;
  return mrscan::core::MrScan(config).run(points).labels_for(points);
}

void expect_matches_batch(const ms::ClusterService& service,
                          const std::string& context) {
  const auto snapshot = service.snapshot();
  const auto batch = batch_labels(snapshot->points, service.config().params);
  EXPECT_TRUE(mrscan::test::same_clustering(snapshot->labels, batch))
      << context;
}

/// Incremental ≡ cold, bit for bit: the snapshot equals the one a fresh
/// service publishes when bootstrapped on the same live set.
void expect_matches_cold(const ms::ClusterService& service,
                         const std::string& context) {
  const auto snapshot = service.snapshot();
  ms::ClusterService cold(service.config());
  ASSERT_TRUE(cold.bootstrap(snapshot->points).ok) << context;
  const auto reference = cold.snapshot();
  ASSERT_EQ(snapshot->points, reference->points) << context;
  ASSERT_EQ(snapshot->labels, reference->labels) << context;
  ASSERT_EQ(snapshot->core, reference->core) << context;
  ASSERT_EQ(snapshot->clusters.size(), reference->clusters.size()) << context;
  for (std::size_t c = 0; c < snapshot->clusters.size(); ++c) {
    const ms::ClusterStats& a = snapshot->clusters[c];
    const ms::ClusterStats& b = reference->clusters[c];
    EXPECT_EQ(a.size, b.size) << context << " cluster " << c;
    EXPECT_EQ(a.core_points, b.core_points) << context << " cluster " << c;
    EXPECT_EQ(a.weight, b.weight) << context << " cluster " << c;
    EXPECT_EQ(a.bbox.min_x, b.bbox.min_x) << context << " cluster " << c;
    EXPECT_EQ(a.bbox.min_y, b.bbox.min_y) << context << " cluster " << c;
    EXPECT_EQ(a.bbox.max_x, b.bbox.max_x) << context << " cluster " << c;
    EXPECT_EQ(a.bbox.max_y, b.bbox.max_y) << context << " cluster " << c;
  }
}

void apply(ms::ClusterService& service, const md::Mutation& m) {
  if (m.kind == md::Mutation::Kind::kInsert) {
    service.insert(m.point);
  } else {
    service.remove(m.point.id);
  }
}

}  // namespace

TEST(ServeLifecycle, EmptyEpochIsFreeAndChangesNothing) {
  ms::ClusterService service(make_config(1.0, 3));
  const std::vector<mg::Point> points{pt(0, 0.0, 0.0), pt(1, 0.4, 0.0),
                                      pt(2, 0.0, 0.4), pt(3, 5.0, 5.0)};
  ASSERT_TRUE(service.bootstrap(points).ok);
  const auto before = service.snapshot();

  const auto result = service.advance_epoch();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.stats.dirty_cells, 0u);
  EXPECT_EQ(result.stats.recluster_points, 0u);
  EXPECT_EQ(result.stats.distance_ops, 0u);
  EXPECT_EQ(service.epoch(), 2u);

  const auto after = service.snapshot();
  EXPECT_EQ(after->epoch, 2u);
  EXPECT_EQ(after->labels, before->labels);
  EXPECT_EQ(after->core, before->core);
  expect_matches_batch(service, "after empty epoch");
}

TEST(ServeLifecycle, DeleteOnlyEpochEmptiesCoreCell) {
  // Five points in one Eps/(2*sqrt(2)) cell (wholesale core with
  // min_pts 4) plus a second tight group far away.
  ms::ClusterService service(make_config(1.0, 4));
  const std::vector<mg::Point> points{
      pt(0, 0.05, 0.05), pt(1, 0.10, 0.10), pt(2, 0.15, 0.05),
      pt(3, 0.10, 0.15), pt(4, 0.05, 0.10), pt(5, 10.0, 10.0),
      pt(6, 10.1, 10.0), pt(7, 10.0, 10.1), pt(8, 10.1, 10.1)};
  ASSERT_TRUE(service.bootstrap(points).ok);
  ASSERT_EQ(service.snapshot()->clusters.size(), 2u);

  for (mg::PointId id = 0; id < 5; ++id) service.remove(id);
  const auto result = service.advance_epoch();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.stats.removes, 5u);
  EXPECT_EQ(result.stats.inserts, 0u);

  const auto snapshot = service.snapshot();
  EXPECT_EQ(snapshot->points.size(), 4u);
  EXPECT_EQ(snapshot->clusters.size(), 1u);
  EXPECT_FALSE(service.label_of(0).has_value());
  expect_matches_batch(service, "after emptying the core cell");
}

TEST(ServeLifecycle, MutationInShadowRingReclassifiesNeighborCell) {
  // p sits alone (noise). The insert lands in a different cell — p's cell
  // is never dirty — but p's core status flips because its cell is inside
  // the dirty cell's ring-3 shadow. If the invalidation region were the
  // dirty cells alone, p would stay noise.
  ms::ClusterService service(make_config(1.0, 2));
  ASSERT_TRUE(service.bootstrap(std::vector<mg::Point>{pt(0, 0.0, 0.0)}).ok);
  ASSERT_EQ(service.label_of(0), mrscan::dbscan::kNoise);

  service.insert(pt(1, 0.9, 0.0));
  ASSERT_TRUE(service.advance_epoch().ok);
  const auto label = service.label_of(0);
  ASSERT_TRUE(label.has_value());
  EXPECT_GE(*label, 0);
  EXPECT_EQ(service.label_of(0), service.label_of(1));
  expect_matches_batch(service, "after shadow-ring insert");

  // The reverse shadow effect: removing the far point de-cores p again.
  service.remove(1);
  ASSERT_TRUE(service.advance_epoch().ok);
  EXPECT_EQ(service.label_of(0), mrscan::dbscan::kNoise);
  expect_matches_batch(service, "after shadow-ring remove");
}

TEST(ServeLifecycle, RejectsDuplicateInsertAndUnknownRemove) {
  ms::ClusterService service(make_config(1.0, 2));
  ASSERT_TRUE(service.bootstrap(std::vector<mg::Point>{pt(0, 0.0, 0.0),
                                                       pt(1, 0.2, 0.0)})
                  .ok);
  service.insert(pt(0, 3.0, 3.0));  // id already live
  service.remove(99);               // never existed
  service.insert(pt(2, 0.4, 0.0));
  service.insert(pt(2, 0.5, 0.0));  // id already pending this epoch
  const auto result = service.advance_epoch();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.stats.inserts, 1u);
  EXPECT_EQ(result.stats.rejected, 3u);
  EXPECT_EQ(service.live_points(), 3u);
  EXPECT_EQ(service.metrics().counter_value(names::kServeRejected), 3u);
}

TEST(ServeLifecycle, RejectsPointsTheGridCannotAddress) {
  const double side = mrscan::cluster::cell_graph_side(1.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ms::ClusterService service(make_config(1.0, 2));
  ASSERT_TRUE(service.bootstrap(std::vector<mg::Point>{pt(0, 0.0, 0.0),
                                                       pt(1, 0.3, 0.0)})
                  .ok);
  service.insert(pt(10, 1e300, 0.0));
  service.insert(pt(11, 0.0, -1e300));
  service.insert(pt(12, nan, 0.0));
  service.insert(pt(13, 0.0, inf));
  // Cell index 2^31 - 2: its ring-3 neighbourhood leaves int32.
  service.insert(pt(14, side * 2147483646.0, 0.0));
  service.remove(10);  // never became live
  // Far away, but every ring-3 neighbour cell is addressable.
  service.insert(pt(15, side * 2147483000.0, -side * 2147483000.0));
  const auto result = service.advance_epoch();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.stats.rejected, 6u);
  EXPECT_EQ(result.stats.inserts, 1u);
  EXPECT_EQ(service.live_points(), 3u);
  EXPECT_FALSE(service.label_of(12).has_value());
  EXPECT_EQ(service.label_of(15), mrscan::dbscan::kNoise);
  EXPECT_EQ(service.label_of(0), service.label_of(1));
  EXPECT_EQ(service.metrics().counter_value(names::kServeRejected), 6u);

  service.remove(15);
  ASSERT_TRUE(service.advance_epoch().ok);
  expect_matches_batch(service, "after rejecting unaddressable points");
  expect_matches_cold(service, "after rejecting unaddressable points");
}

TEST(ServeLifecycle, ScriptRejectsOutOfRangeCoordinates) {
  ms::ClusterService service(make_config(1.0, 2));
  std::istringstream in(
      "insert 1 1e300 0\n"
      "insert 2 0 -1e300\n"
      "insert 3 0.1 0.1\n"
      "insert 4 0.2 0.1\n"
      "epoch\n"
      "query 1\n"
      "query 3\n");
  std::ostringstream out;
  const auto result = ms::run_script(service, in, out);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.epochs, 1u);
  EXPECT_EQ(out.str(),
            "epoch 1 ok points=2 clusters=1 dirty=1 recluster=2 "
            "rejected=2\n"
            "query 1 -> unknown\n"
            "query 3 -> 0\n");
  EXPECT_EQ(service.metrics().counter_value(names::kServeRejected), 2u);
}

TEST(ServeLifecycle, ScriptEpochLineCountsEachEpochsRejectedInserts) {
  ms::ClusterService service(make_config(1.0, 2));
  std::istringstream in(
      "insert 1 1e308 0\n"
      "insert 2 0 -1e308\n"
      "insert 3 0.1 0.1\n"
      "epoch\n"
      "insert 4 0.2 0.1\n"
      "epoch\n");
  std::ostringstream out;
  const auto result = ms::run_script(service, in, out);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.epochs, 2u);
  std::istringstream lines(out.str());
  std::string first, second;
  ASSERT_TRUE(std::getline(lines, first));
  ASSERT_TRUE(std::getline(lines, second));
  EXPECT_TRUE(first.ends_with(" rejected=2")) << first;
  EXPECT_TRUE(second.ends_with(" rejected=0")) << second;
}

TEST(ServeLifecycle, ScriptFailsOnAnUnparseableWeight) {
  for (const char* junk : {"abc", "1.5x", "1e99", "-"}) {
    ms::ClusterService service(make_config(1.0, 2));
    std::istringstream in(std::string("insert 1 0 0 2.5\n"
                                      "insert 2 0.1 0\n"
                                      "insert 3 0.2 0 ") +
                          junk + "\nepoch\n");
    std::ostringstream out;
    const auto result = ms::run_script(service, in, out);
    EXPECT_FALSE(result.ok) << junk;
    EXPECT_TRUE(result.error.starts_with("3: ")) << result.error;
    EXPECT_NE(result.error.find(junk), std::string::npos) << result.error;
    EXPECT_EQ(result.epochs, 0u) << junk;
  }

  // A missing weight still defaults to 1; a parsed one is kept.
  ms::ClusterService service(make_config(1.0, 2));
  std::istringstream in(
      "insert 1 0 0 2.5\n"
      "insert 2 0.1 0\n"
      "epoch\n"
      "stats 0\n");
  std::ostringstream out;
  const auto result = ms::run_script(service, in, out);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_NE(out.str().find("stats 0 -> size=2 core=2 weight=3.5\n"),
            std::string::npos)
      << out.str();
}

// ---- incremental ≡ cold ----

TEST(ServeIncremental, EveryEpochMatchesColdBootstrap) {
  struct Case {
    const char* name;
    md::StreamConfig stream;
    mrscan::dbscan::DbscanParams params;
  };
  md::StreamConfig blobs;
  blobs.distribution = md::StreamDistribution::kBlobs;
  blobs.initial_points = 600;
  blobs.mutations = 200;
  md::StreamConfig twitter;
  twitter.distribution = md::StreamDistribution::kTwitter;
  twitter.initial_points = 400;
  twitter.mutations = 200;
  twitter.remove_fraction = 0.45;
  twitter.seed = 42;
  for (const Case& c : {Case{"blobs", blobs, {0.35, 6}},
                        Case{"twitter", twitter, {0.05, 5}}}) {
    const auto stream = md::generate_mutation_stream(c.stream);
    ms::ClusterService service(make_config(c.params.eps, c.params.min_pts));
    ASSERT_TRUE(service.bootstrap(stream.initial).ok);
    expect_matches_cold(service, std::string(c.name) + " bootstrap");
    // Epochs of 1, 2, 3, ... mutations, so single changes and bursts both
    // occur.
    std::size_t applied = 0;
    for (std::size_t burst = 1; applied < stream.mutations.size(); ++burst) {
      const std::size_t end =
          std::min(applied + burst % 5 + 1, stream.mutations.size());
      for (; applied < end; ++applied) {
        apply(service, stream.mutations[applied]);
      }
      ASSERT_TRUE(service.advance_epoch().ok);
      expect_matches_cold(service, std::string(c.name) + " after " +
                                       std::to_string(applied) +
                                       " mutations");
    }
  }
}

TEST(ServeIncremental, BridgeSplitsAndMergesAgain) {
  // Two blobs joined by a chain of core points 0.3 apart along y = 0.1
  // (Eps 1, MinPts 3, cells of side ~0.354, so chain point i lies in cell
  // column floor(0.3 i / 0.354)).
  ms::ClusterService service(make_config(1.0, 3));
  std::vector<mg::Point> points;
  mg::PointId next = 0;
  for (int gx = 0; gx < 5; ++gx) {
    for (int gy = 0; gy < 5; ++gy) {
      points.push_back(pt(next++, -0.6 + 0.1 * gx, -0.1 + 0.1 * gy));
      points.push_back(pt(next++, 9.2 + 0.1 * gx, -0.1 + 0.1 * gy));
    }
  }
  const mg::PointId chain = next;
  std::vector<mg::Point> chain_points;
  for (int i = 0; i <= 30; ++i) {
    chain_points.push_back(pt(chain + i, 0.3 * i, 0.1));
  }
  points.insert(points.end(), chain_points.begin(), chain_points.end());
  ASSERT_TRUE(service.bootstrap(points).ok);
  ASSERT_EQ(service.snapshot()->clusters.size(), 1u);

  const auto check = [&](std::size_t clusters, const std::string& context) {
    EXPECT_EQ(service.snapshot()->clusters.size(), clusters) << context;
    expect_matches_batch(service, context);
    expect_matches_cold(service, context);
  };

  // Cut the chain at x = 4.2, 4.5, 4.8. The cells holding 4.5 and 4.8
  // (columns 12 and 13) lose their only core point and vanish; the cell
  // of 3.9 and 4.2 (column 11) keeps 3.9 as a core point, so its pair
  // with the cell of 5.1 (column 14) is re-tested and turns from linked
  // (0.9 apart) to unlinked (1.2 apart).
  for (const int i : {14, 15, 16}) service.remove(chain + i);
  ASSERT_TRUE(service.advance_epoch().ok);
  check(2, "after cutting the chain");
  EXPECT_NE(service.label_of(0), service.label_of(1));

  // Re-inserting the cut points links the halves again.
  for (const int i : {14, 15, 16}) service.insert(chain_points[i]);
  ASSERT_TRUE(service.advance_epoch().ok);
  check(1, "after re-inserting the cut");

  // Remove the whole chain, then bring it back point by point.
  for (const auto& p : chain_points) service.remove(p.id);
  ASSERT_TRUE(service.advance_epoch().ok);
  check(2, "after removing the chain");
  for (const auto& p : chain_points) {
    service.insert(p);
    ASSERT_TRUE(service.advance_epoch().ok);
    // Chain point 28 (x = 8.4) is the first within Eps of the right blob.
    const mg::PointId i = p.id - chain;
    check(i >= 28 ? 1 : 2,
          "after re-inserting chain point " + std::to_string(i));
  }

  // One epoch that re-inserts a removed id at a new position (keeping its
  // slot) and reuses a slot freed within the epoch.
  service.remove(chain);
  service.insert(pt(chain, 0.05, 0.1));
  service.insert(pt(next + 100, 5.0, 5.0));
  service.remove(next + 100);
  service.insert(pt(next + 101, 5.0, 5.1));
  ASSERT_TRUE(service.advance_epoch().ok);
  check(1, "after re-inserting an id within one epoch");
}

// ---- golden per-epoch counts ----

TEST(ServeGolden, PerEpochCountsRepeatExactly) {
  // Recorded before connectivity was kept across epochs: the scan orders
  // (own cell first, then the ring-3 offsets, members ascending by id)
  // and the BCP operand order fix these counts, so a slip in either
  // changes them.
  struct Counts {
    std::uint64_t dirty_cells, recluster_points, distance_ops, edge_tests;
  };
  const std::vector<Counts> golden{
      {2621, 3000, 15533, 4077}, {8, 100, 1203, 44}, {8, 52, 696, 0},
      {8, 10, 18, 0},            {8, 175, 300, 0},   {8, 71, 873, 27},
      {8, 54, 543, 26},          {8, 21, 98, 1},     {8, 302, 1801, 68},
      {8, 77, 864, 6},           {8, 144, 333, 22},  {8, 15, 86, 7},
      {8, 229, 896, 46},         {8, 13, 67, 17},    {8, 14, 59, 6},
      {8, 20, 89, 0},            {8, 11, 23, 0},     {8, 65, 750, 44},
      {8, 21, 128, 6},           {8, 20, 129, 21},   {8, 179, 375, 41},
  };
  md::StreamConfig config;
  config.distribution = md::StreamDistribution::kTwitter;
  config.initial_points = 3000;
  config.mutations = 160;
  config.seed = 7;
  const auto stream = md::generate_mutation_stream(config);
  ms::ClusterService service(make_config(0.05, 5));

  std::vector<ms::EpochStats> epochs;
  const auto record = [&](const ms::EpochResult& r) {
    ASSERT_TRUE(r.ok);
    epochs.push_back(r.stats);
  };
  record(service.bootstrap(stream.initial));
  for (std::size_t i = 0; i < stream.mutations.size(); ++i) {
    apply(service, stream.mutations[i]);
    if ((i + 1) % 8 == 0) record(service.advance_epoch());
  }
  ASSERT_EQ(epochs.size(), golden.size());
  for (std::size_t e = 0; e < golden.size(); ++e) {
    EXPECT_EQ(epochs[e].dirty_cells, golden[e].dirty_cells) << "epoch " << e;
    EXPECT_EQ(epochs[e].recluster_points, golden[e].recluster_points)
        << "epoch " << e;
    EXPECT_EQ(epochs[e].distance_ops, golden[e].distance_ops)
        << "epoch " << e;
    EXPECT_EQ(epochs[e].edge_tests, golden[e].edge_tests) << "epoch " << e;
  }
  EXPECT_EQ(service.snapshot()->clusters.size(), 44u);
  EXPECT_EQ(service.live_points(), 3040u);
}

TEST(ServeFault, DroppedPublishRetriesThenSucceeds) {
  auto config = make_config(1.0, 2);
  // Epoch 2 (the first post-bootstrap epoch) loses its first two publish
  // attempts; the third goes through.
  config.fault_plan.drop(2, 0).drop(2, 1);
  ms::ClusterService service(config);
  ASSERT_TRUE(service.bootstrap(std::vector<mg::Point>{pt(0, 0.0, 0.0),
                                                       pt(1, 0.3, 0.0)})
                  .ok);
  service.insert(pt(2, 0.6, 0.0));
  const auto result = service.advance_epoch();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.stats.retries, 2u);
  EXPECT_GT(result.stats.sim_seconds, 0.0);
  EXPECT_EQ(service.metrics().counter_value(names::kServeRetries), 2u);
  expect_matches_batch(service, "after retried epoch");
}

TEST(ServeFault, ExhaustedRetryBudgetFailsEpochCleanly) {
  auto config = make_config(1.0, 2);
  for (std::uint32_t attempt = 0; attempt < config.fault_plan.retry.max_attempts;
       ++attempt) {
    config.fault_plan.drop(2, attempt);
  }
  ms::ClusterService service(config);
  ASSERT_TRUE(service.bootstrap(std::vector<mg::Point>{pt(0, 0.0, 0.0),
                                                       pt(1, 0.3, 0.0)})
                  .ok);
  const auto before = service.snapshot();

  service.insert(pt(2, 0.6, 0.0));
  const auto result = service.advance_epoch();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("retry budget exhausted"), std::string::npos);
  // The previous snapshot stays current and the mutation stays pending.
  EXPECT_EQ(service.epoch(), 1u);
  EXPECT_EQ(service.pending_mutations(), 1u);
  EXPECT_EQ(service.live_points(), 2u);
  EXPECT_EQ(service.snapshot()->labels, before->labels);
  EXPECT_EQ(service.metrics().counter_value(names::kServeFaultAborts), 1u);
}

TEST(ServeFault, SlowEpochStretchesVirtualSeconds) {
  auto slow = make_config(1.0, 2);
  slow.fault_plan.slow(2, 8.0);
  ms::ClusterService slowed(slow);
  ms::ClusterService plain(make_config(1.0, 2));
  const std::vector<mg::Point> initial{pt(0, 0.0, 0.0), pt(1, 0.3, 0.0)};
  ASSERT_TRUE(slowed.bootstrap(initial).ok);
  ASSERT_TRUE(plain.bootstrap(initial).ok);

  slowed.insert(pt(2, 0.6, 0.0));
  plain.insert(pt(2, 0.6, 0.0));
  const auto slow_result = slowed.advance_epoch();
  const auto plain_result = plain.advance_epoch();
  ASSERT_TRUE(slow_result.ok);
  ASSERT_TRUE(plain_result.ok);
  EXPECT_DOUBLE_EQ(slow_result.stats.sim_seconds,
                   8.0 * plain_result.stats.sim_seconds);
  // Faults never touch labels.
  EXPECT_EQ(slowed.snapshot()->labels, plain.snapshot()->labels);
}

TEST(ServeSnapshots, PinnedEpochSurvivesLaterPublishes) {
  ms::ClusterService service(make_config(1.0, 2));
  ASSERT_TRUE(service.bootstrap(std::vector<mg::Point>{pt(0, 0.0, 0.0),
                                                       pt(1, 0.3, 0.0)})
                  .ok);
  {
    const auto pinned = service.snapshot();
    EXPECT_EQ(pinned->epoch, 1u);

    service.insert(pt(2, 5.0, 5.0));
    ASSERT_TRUE(service.advance_epoch().ok);

    // The pinned epoch still reads its own state; new queries see epoch 2.
    EXPECT_EQ(pinned->points.size(), 2u);
    EXPECT_FALSE(pinned->label_of(2).has_value());
    EXPECT_TRUE(service.label_of(2).has_value());
    EXPECT_DOUBLE_EQ(service.metrics().gauge_value(names::kServePinnedEpochs),
                     1.0);
  }
  // Reader drained: the next publish reports no retired-but-pinned epochs.
  ASSERT_TRUE(service.advance_epoch().ok);
  EXPECT_DOUBLE_EQ(service.metrics().gauge_value(names::kServePinnedEpochs),
                   0.0);
}

TEST(ServeSnapshots, QueriesRunConcurrentlyWithEpochs) {
  ms::ClusterService service(make_config(0.35, 4));
  md::StreamConfig stream_config;
  stream_config.distribution = md::StreamDistribution::kBlobs;
  stream_config.initial_points = 300;
  stream_config.mutations = 60;
  const auto stream = md::generate_mutation_stream(stream_config);
  ASSERT_TRUE(service.bootstrap(stream.initial).ok);

  std::thread reader([&] {
    for (int i = 0; i < 400; ++i) {
      const auto snapshot = service.snapshot();
      std::size_t labeled = 0;
      for (const auto label : snapshot->labels) {
        if (label >= 0) ++labeled;
      }
      EXPECT_LE(labeled, snapshot->points.size());
      service.label_of(static_cast<mg::PointId>(i % 300));
    }
  });
  for (const auto& m : stream.mutations) {
    apply(service, m);
    ASSERT_TRUE(service.advance_epoch().ok);
  }
  reader.join();
  expect_matches_batch(service, "after concurrent reads");
}

TEST(ServeQueries, LabelOfFindsEveryIdUnderAnySpacing) {
  const mg::PointId far = std::numeric_limits<mg::PointId>::max();
  std::vector<std::vector<mg::PointId>> layouts{
      {7}, {0, far}, {far - 2, far - 1, far}};
  std::vector<mg::PointId> dense, squares, two_runs;
  for (mg::PointId i = 0; i < 1000; ++i) {
    dense.push_back(i);
    squares.push_back(i * i * i);
    two_runs.push_back(i < 500 ? i : 1'000'000'000'000'000ULL + i);
  }
  layouts.push_back(dense);
  layouts.push_back(squares);
  layouts.push_back(two_runs);
  for (const auto& ids : layouts) {
    ms::EpochSnapshot snapshot;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      snapshot.points.push_back(pt(ids[i], 0.0, 0.0));
      snapshot.labels.push_back(static_cast<mrscan::dbscan::ClusterId>(i));
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(snapshot.label_of(ids[i]),
                static_cast<mrscan::dbscan::ClusterId>(i))
          << "id " << ids[i];
      for (const mg::PointId probe : {ids[i] - 1, ids[i] + 1}) {
        if (!std::binary_search(ids.begin(), ids.end(), probe)) {
          EXPECT_FALSE(snapshot.label_of(probe).has_value())
              << "absent id " << probe;
        }
      }
    }
  }
  EXPECT_FALSE(ms::EpochSnapshot{}.label_of(0).has_value());
}

TEST(ServeQueries, ClusterStatsAggregateTheSnapshot) {
  ms::ClusterService service(make_config(1.0, 2));
  ASSERT_TRUE(service.bootstrap(std::vector<mg::Point>{
                  pt(0, 0.0, 0.0), pt(1, 0.3, 0.0), pt(2, 0.6, 0.0),
                  pt(3, 9.0, 9.0)})
                  .ok);
  const auto snapshot = service.snapshot();
  ASSERT_EQ(snapshot->clusters.size(), 1u);
  const auto stats = service.cluster_stats(0);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->size, 3u);
  EXPECT_EQ(stats->core_points, 3u);
  EXPECT_DOUBLE_EQ(stats->weight, 3.0);
  EXPECT_FALSE(service.cluster_stats(1).has_value());
  EXPECT_FALSE(service.cluster_stats(mrscan::dbscan::kNoise).has_value());
  EXPECT_GE(service.metrics().counter_value(names::kServeQueries), 2u);
}

TEST(ServeState, FromBuildReproducesTheBatchClustering) {
  const mg::BBox window{0.0, 0.0, 10.0, 10.0};
  const std::vector<md::Blob> blobs{{2.0, 2.0, 0.3, 150},
                                    {7.5, 7.5, 0.3, 150}};
  auto points = md::gaussian_blobs(blobs, 30, window, 7);
  std::sort(points.begin(), points.end(),
            [](const mg::Point& a, const mg::Point& b) { return a.id < b.id; });

  mrscan::core::MrScanConfig config;
  config.params = {0.35, 5};
  config.leaves = 4;
  config.partition_nodes = 2;
  const auto result = mrscan::core::MrScan(config).run(points);
  const auto state = mrscan::core::extract_serve_state(config, result, points);
  ASSERT_EQ(state.points.size(), points.size());

  const auto service = ms::ClusterService::from_build(state);
  const auto snapshot = service->snapshot();
  ASSERT_EQ(snapshot->points.size(), points.size());
  EXPECT_TRUE(mrscan::test::same_clustering(snapshot->labels,
                                            result.labels_for(points)));
  EXPECT_TRUE(
      mrscan::test::same_clustering(snapshot->labels, state.labels));
}

// ---- the shared streaming workload generator ----

TEST(MutationStream, DeterministicAndIdUnique) {
  md::StreamConfig config;
  config.initial_points = 200;
  config.mutations = 120;
  const auto a = md::generate_mutation_stream(config);
  const auto b = md::generate_mutation_stream(config);
  ASSERT_EQ(a.initial.size(), 200u);
  ASSERT_EQ(a.mutations.size(), 120u);
  ASSERT_EQ(a.initial.size(), b.initial.size());
  for (std::size_t i = 0; i < a.initial.size(); ++i) {
    EXPECT_EQ(a.initial[i].id, b.initial[i].id);
    EXPECT_DOUBLE_EQ(a.initial[i].x, b.initial[i].x);
  }
  std::vector<mg::PointId> inserted_ids;
  for (std::size_t i = 0; i < a.mutations.size(); ++i) {
    EXPECT_EQ(static_cast<int>(a.mutations[i].kind),
              static_cast<int>(b.mutations[i].kind));
    EXPECT_EQ(a.mutations[i].point.id, b.mutations[i].point.id);
    if (a.mutations[i].kind == md::Mutation::Kind::kInsert) {
      inserted_ids.push_back(a.mutations[i].point.id);
    }
  }
  // Ids are unique across the whole stream: initial ids first, inserted
  // ids strictly above them.
  std::vector<mg::PointId> all_ids;
  for (const auto& p : a.initial) all_ids.push_back(p.id);
  all_ids.insert(all_ids.end(), inserted_ids.begin(), inserted_ids.end());
  std::sort(all_ids.begin(), all_ids.end());
  EXPECT_EQ(std::adjacent_find(all_ids.begin(), all_ids.end()),
            all_ids.end());
}

TEST(MutationStream, RemovesTargetLivePointsAndClockAdvances) {
  md::StreamConfig config;
  config.initial_points = 50;
  config.mutations = 300;
  config.remove_fraction = 0.6;
  const auto stream = md::generate_mutation_stream(config);
  std::vector<mg::PointId> live;
  for (const auto& p : stream.initial) live.push_back(p.id);
  double clock = 0.0;
  std::size_t removes = 0;
  for (const auto& m : stream.mutations) {
    EXPECT_GE(m.timestamp_s, clock);
    clock = m.timestamp_s;
    if (m.kind == md::Mutation::Kind::kRemove) {
      const auto it = std::find(live.begin(), live.end(), m.point.id);
      ASSERT_NE(it, live.end()) << "remove of a dead id";
      live.erase(it);
      ++removes;
    } else {
      EXPECT_EQ(std::find(live.begin(), live.end(), m.point.id), live.end());
      live.push_back(m.point.id);
    }
  }
  EXPECT_GT(removes, 0u);
  EXPECT_LT(removes, stream.mutations.size());
  EXPECT_GT(clock, 0.0);
}

TEST(MutationStream, BothDistributionsReplayThroughTheService) {
  for (const auto dist :
       {md::StreamDistribution::kTwitter, md::StreamDistribution::kBlobs}) {
    md::StreamConfig config;
    config.distribution = dist;
    config.initial_points = 150;
    config.mutations = 30;
    const auto stream = md::generate_mutation_stream(config);
    ms::ClusterService service(
        make_config(dist == md::StreamDistribution::kBlobs ? 0.35 : 0.05, 4));
    ASSERT_TRUE(service.bootstrap(stream.initial).ok);
    for (const auto& m : stream.mutations) apply(service, m);
    ASSERT_TRUE(service.advance_epoch().ok);
    expect_matches_batch(service, dist == md::StreamDistribution::kBlobs
                                      ? "blobs stream"
                                      : "twitter stream");
  }
}
