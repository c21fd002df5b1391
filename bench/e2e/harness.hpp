// Shared pieces of the end-to-end benchmark: clocks, the in-memory span
// log, metric reporting, correctness bookkeeping, digests, and the
// machine facts printed next to every result. See README.md for the
// workloads and what each metric means.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "geometry/point.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Options every workload receives from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Inputs, outputs and the span dump go here (inside the checkout).
  std::filesystem::path work_dir;
  /// Recorded digests per (workload, seed); may be empty.
  std::filesystem::path expected_path;
  /// Host worker threads: the workload's width, capped at nproc.
  std::size_t threads = 1;
};

/// One recorded span: a call into a layer's public function, timed from
/// the benchmark's own code. Times are seconds since the log's origin.
struct Span {
  std::string name;
  int parent = -1;
  int run = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Spans stay in memory and are written out once, at exit. Not
/// thread-safe: work timed on pool workers is stored in per-task slots
/// and added with add() after the barrier.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  double now() const { return seconds_between(origin_, Clock::now()); }
  int begin(std::string name, int parent, int run);
  void end(int id);
  int add(std::string name, int parent, int run, double start_s,
          double end_s);
  double duration(int id) const;
  /// Seconds of `id` covered by its direct children (children must not
  /// overlap each other, which holds for the sequential top-level steps).
  double child_seconds(int id) const;
  std::string to_json() const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// `count` points of `pool` drawn without replacement by `seed`, kept in
/// pool order. The Twitter-shaped workloads draw their points this way
/// from one fixed geography: the generator's own seed also places the
/// cities, and its heavy-tailed city weights make the cost of a dataset
/// swing by half from one generator seed to the next.
mrscan::geom::PointSet seeded_sample(const mrscan::geom::PointSet& pool,
                                     std::size_t count, std::uint64_t seed);

/// Per-repetition layer measurements, keyed by per-layer metric name.
using LayerSample = std::map<std::string, double>;

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty input.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Median of every key over the samples that carry it.
LayerSample median_sample(const std::vector<LayerSample>& samples);

/// Operations attempted and failed. A failed check prints one line on
/// stderr naming what missed.
class Checks {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n, const std::string& what);
  /// Flag drift of repeated counts: every sample must carry the same
  /// value for each key in `keys`.
  void expect_repeat(const std::vector<LayerSample>& samples,
                     std::span<const char* const> keys);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// FNV-1a, 64-bit.
class Fnv {
 public:
  void bytes(std::span<const std::uint8_t> data);
  void u64(std::uint64_t v);
  void f64(double v);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

std::uint64_t file_digest(const std::filesystem::path& path);

/// Compare this execution's output digest and counts digest with the
/// ones recorded for its workload and seed (when the table has them) and
/// print the line a recording run collects. Returns false on a mismatch.
bool check_expected(const RunOptions& opts, std::uint64_t output_digest,
                    std::uint64_t counts_digest);

/// High-water resident set of this process, MiB.
double peak_rss_mb();
/// CPUs this process may run on.
std::size_t online_cpus();
/// One line: nproc, LLC, build type, input bytes against LLC.
void print_environment(const RunOptions& opts, std::uint64_t input_bytes);

/// Print the result line: the last line of stdout. With trace off it
/// carries the end-to-end metrics, with trace on the per-layer ones;
/// a metric the workload does not exercise reads 0.
void print_result(bool trace, const LayerSample& values,
                  const Checks& checks);

/// Workload entry points; each returns the process exit code.
int run_batch(const RunOptions& opts);
int run_serve(const RunOptions& opts);
/// Host worker threads the named workload asks for (before the nproc
/// cap), or 0 when no workload has that name.
std::size_t batch_threads(const std::string& workload);
std::size_t serve_threads(const std::string& workload);

}  // namespace e2e
