// bench_serve: epoch latency of the long-lived clustering service
// (serve::ClusterService, DESIGN §14) as a function of epoch batch size
// and of the live-set size.
//
// Batch axis (BM_ServeEpoch): one seeded mutation stream
// (data::generate_mutation_stream — the same workload the differential
// battery replays) is driven through the service with an epoch every
// 1 / 8 / 64 / 256 mutations. Small batches measure per-epoch fixed cost
// (the snapshot copy is one O(live) sequential pass; everything else is
// proportional to the dirty region); large batches measure how the
// dirty-region recompute amortizes. Each batch size exports
// "bench.serve.batch<N>.*" gauges (mean epoch wall ms, mean re-clustered
// points per epoch, epochs run) — the recluster gauge staying well below
// the live point count at small batches is the incrementality claim in
// exportable form.
//
// Live axis (BM_ServeLive): the same stream shape bootstrapped at 4k,
// 20k and 40k live points, epoch every 8 mutations, exporting
// "bench.serve.live<N>.batch8.epoch_ms" — the epoch cost staying roughly
// flat as the live set grows is the O(dirty) claim in exportable form.
//
// All gauges land in BENCH_serve_epoch.json for the CI bench-smoke
// validator.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "common/experiment.hpp"
#include "data/stream.hpp"
#include "obs/names.hpp"
#include "obs/registry.hpp"
#include "serve/service.hpp"

namespace {

using namespace mrscan;

// Gauges accumulated across all benchmarks, exported once from main().
obs::Registry g_registry;

data::MutationStream make_stream(std::uint64_t initial_points,
                                 std::uint64_t mutations) {
  data::StreamConfig config;
  config.distribution = data::StreamDistribution::kTwitter;
  config.initial_points = initial_points;
  config.mutations = mutations;
  config.remove_fraction = 0.35;
  return data::generate_mutation_stream(config);
}

const data::MutationStream& bench_stream() {
  static const data::MutationStream stream =
      make_stream(bench::env_u64("MRSCAN_BENCH_SERVE_INITIAL", 20000),
                  bench::env_u64("MRSCAN_BENCH_SERVE_MUTATIONS", 512));
  return stream;
}

serve::ServeConfig bench_config() {
  serve::ServeConfig config;
  config.params = {0.05, 5};
  config.host_threads = static_cast<std::size_t>(
      bench::env_u64("MRSCAN_BENCH_HOST_THREADS", 1));
  return config;
}

struct EpochTotals {
  std::uint64_t epochs = 0;
  std::uint64_t recluster = 0;
  std::uint64_t live = 0;
  double epoch_wall = 0.0;
};

/// Replay `stream` through a fresh service (bootstrap untimed — it is
/// the batch pipeline's cost) with an epoch every `batch` mutations.
void replay(benchmark::State& state, const data::MutationStream& stream,
            std::size_t batch, EpochTotals& totals) {
  state.PauseTiming();
  serve::ClusterService service(bench_config());
  service.bootstrap(stream.initial);
  state.ResumeTiming();

  std::size_t in_batch = 0;
  auto run_epoch = [&] {
    const serve::EpochResult r = service.advance_epoch();
    totals.epoch_wall += r.stats.wall_seconds;
    totals.recluster += r.stats.recluster_points;
    ++totals.epochs;
    in_batch = 0;
  };
  for (const auto& m : stream.mutations) {
    if (m.kind == data::Mutation::Kind::kInsert) {
      service.insert(m.point);
    } else {
      service.remove(m.point.id);
    }
    if (++in_batch == batch) run_epoch();
  }
  if (in_batch > 0) run_epoch();
  totals.live = service.live_points();
  benchmark::DoNotOptimize(totals.live);
}

void BM_ServeEpoch(benchmark::State& state) {
  const data::MutationStream& stream = bench_stream();
  const std::size_t batch = static_cast<std::size_t>(state.range(0));

  EpochTotals totals;
  for (auto _ : state) {
    replay(state, stream, batch, totals);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(stream.mutations.size()));
  state.counters["live"] = static_cast<double>(totals.live);

  auto set_gauge = [&](const std::string& suffix, double value) {
    g_registry.set(std::string(obs::names::kBenchServePrefix) + "batch" +
                       std::to_string(batch) + "." + suffix,
                   value);
  };
  const double n =
      totals.epochs > 0 ? static_cast<double>(totals.epochs) : 1.0;
  set_gauge("epoch_ms", 1000.0 * totals.epoch_wall / n);
  set_gauge("recluster_points_per_epoch",
            static_cast<double>(totals.recluster) / n);
  set_gauge("epochs", static_cast<double>(totals.epochs));
  set_gauge("live_points", static_cast<double>(totals.live));
}
BENCHMARK(BM_ServeEpoch)->Arg(1)->Arg(8)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_ServeLive(benchmark::State& state) {
  // Sizes and stream length are fixed so the committed gauges compare
  // across runs: 512 mutations make 64 epochs per size.
  const auto initial = static_cast<std::uint64_t>(state.range(0));
  const data::MutationStream stream = make_stream(initial, 512);

  EpochTotals totals;
  for (auto _ : state) {
    replay(state, stream, 8, totals);
  }
  state.counters["live"] = static_cast<double>(totals.live);

  const double n =
      totals.epochs > 0 ? static_cast<double>(totals.epochs) : 1.0;
  g_registry.set(std::string(obs::names::kBenchServePrefix) + "live" +
                     std::to_string(initial) + ".batch8.epoch_ms",
                 1000.0 * totals.epoch_wall / n);
}
// One replay per size: each iteration re-bootstraps the whole live set,
// and the gauge already averages over every epoch of the replay.
BENCHMARK(BM_ServeLive)->Arg(4000)->Arg(20000)->Arg(40000)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  mrscan::bench::write_bench_snapshot("serve_epoch", g_registry);
  return 0;
}
