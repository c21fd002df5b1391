#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "io/checked_file.hpp"
#include "util/rng.hpp"

#ifndef MRSCAN_E2E_BUILD_TYPE
#define MRSCAN_E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must list exactly BENCHMARK.json's end_to_end and per_layer metrics.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"e2e_s", "s"},
    {"peak_rss_mb", "MiB"},    {"epoch_ms.p50", "ms"},
    {"epoch_ms.p90", "ms"},    {"queries_per_s", "1/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"io.read_s", "s"},
    {"io.input_bytes", "bytes"},
    {"partition.run_s", "s"},
    {"partition.shadow_ratio", "ratio"},
    {"partition.parts", "count"},
    {"gpu.cluster_s", "s"},
    {"gpu.leaf_s.p50", "s"},
    {"gpu.leaf_s.max", "s"},
    {"gpu.distance_ops", "count"},
    {"gpu.dense_point_ratio", "ratio"},
    {"gpu.kernel_launches", "count"},
    {"gpu.transfers", "count"},
    {"cluster.bcp_ops", "count"},
    {"cluster.bcp_pairs", "count"},
    {"merge.summary_s", "s"},
    {"merge.reduce_s", "s"},
    {"merge.level1_s", "s"},
    {"merge.level2_s", "s"},
    {"merge.bytes_up", "bytes"},
    {"merge.merges_detected", "count"},
    {"sweep.label_s", "s"},
    {"sweep.encode_s", "s"},
    {"sweep.output_bytes", "bytes"},
    {"serve.apply_us.p50", "us"},
    {"serve.query_ns.p50", "ns"},
    {"serve.recluster_ratio", "ratio"},
    {"serve.dirty_cells", "count/epoch"},
    {"serve.distance_ops", "count/epoch"},
    {"serve.edge_tests", "count/epoch"},
    {"sim.total_s", "s"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Shortest decimal that round-trips: every digit as measured.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Digests recorded for one (workload, seed).
struct Expected {
  std::string output;
  std::string counts;
};

std::optional<Expected> lookup_expected(const std::filesystem::path& table,
                                        const std::string& workload,
                                        std::uint64_t seed) {
  if (table.empty() || !std::filesystem::exists(table)) return std::nullopt;
  const std::vector<std::uint8_t> bytes = mrscan::io::read_file_bytes(table);
  std::istringstream in(std::string(bytes.begin(), bytes.end()));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, output, counts;
    std::uint64_t line_seed = 0;
    if (!(fields >> name >> line_seed >> output >> counts)) continue;
    if (name == workload && line_seed == seed) {
      return Expected{output, counts};
    }
  }
  return std::nullopt;
}

/// Last-level cache size in bytes, 0 when unknown.
std::uint64_t llc_bytes() {
  for (const int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return 0;
}

}  // namespace

int SpanLog::begin(std::string name, int parent, int run) {
  const double t = now();
  return add(std::move(name), parent, run, t, t);
}

void SpanLog::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = now();
}

int SpanLog::add(std::string name, int parent, int run, double start_s,
                 double end_s) {
  spans_.push_back(Span{std::move(name), parent, run, start_s, end_s});
  return static_cast<int>(spans_.size() - 1);
}

double SpanLog::duration(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return s.end_s - s.start_s;
}

double SpanLog::child_seconds(int id) const {
  double covered = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == id) covered += s.end_s - s.start_s;
  }
  return covered;
}

std::string SpanLog::to_json() const {
  std::ostringstream out;
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << json_escape(s.name)
        << "\", \"parent\": " << s.parent << ", \"run\": " << s.run
        << ", \"start_s\": " << number(s.start_s)
        << ", \"end_s\": " << number(s.end_s) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return out.str();
}

mrscan::geom::PointSet seeded_sample(const mrscan::geom::PointSet& pool,
                                     std::size_t count, std::uint64_t seed) {
  if (count > pool.size()) {
    throw std::invalid_argument("seeded_sample: count exceeds the pool");
  }
  std::vector<std::size_t> order(pool.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  mrscan::util::Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(order[i], order[i + rng.next_below(pool.size() - i)]);
  }
  order.resize(count);
  std::sort(order.begin(), order.end());
  mrscan::geom::PointSet out;
  out.reserve(count);
  for (const std::size_t i : order) out.push_back(pool[i]);
  return out;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

LayerSample median_sample(const std::vector<LayerSample>& samples) {
  std::map<std::string, std::vector<double>> by_key;
  for (const LayerSample& s : samples) {
    for (const auto& [key, value] : s) by_key[key].push_back(value);
  }
  LayerSample out;
  for (auto& [key, values] : by_key) out[key] = median(std::move(values));
  return out;
}

void Checks::fail(std::uint64_t n, const std::string& what) {
  failed_ += n;
  std::cerr << "e2e: check failed: " << what << "\n";
}

void Checks::expect_repeat(const std::vector<LayerSample>& samples,
                           std::span<const char* const> keys) {
  for (const char* key : keys) {
    std::optional<double> first;
    for (const LayerSample& s : samples) {
      const auto it = s.find(key);
      if (it == s.end()) continue;
      if (!first) {
        first = it->second;
      } else if (*first != it->second) {
        fail(1, std::string("count '") + key +
                    "' drifted across repetitions (" + number(*first) +
                    " vs " + number(it->second) + ")");
        break;
      }
    }
  }
}

void Fnv::bytes(std::span<const std::uint8_t> data) {
  for (const std::uint8_t b : data) {
    hash_ ^= b;
    hash_ *= 1099511628211ULL;
  }
}

void Fnv::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (v >> (8 * i)) & 0xffULL;
    hash_ *= 1099511628211ULL;
  }
}

void Fnv::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

std::uint64_t file_digest(const std::filesystem::path& path) {
  Fnv h;
  h.bytes(mrscan::io::read_file_bytes(path));
  return h.value();
}

bool check_expected(const RunOptions& opts, std::uint64_t output_digest,
                    std::uint64_t counts_digest) {
  const std::string out_hex = hex64(output_digest);
  const std::string counts_hex = hex64(counts_digest);
  std::cout << "expected " << opts.workload << " " << opts.seed << " "
            << out_hex << " " << counts_hex << "\n";
  const auto expected =
      lookup_expected(opts.expected_path, opts.workload, opts.seed);
  if (!expected) {
    std::cout << "digest: no recorded digest for seed " << opts.seed
              << "; the other checks still ran\n";
    return true;
  }
  bool ok = true;
  if (expected->output != out_hex) {
    std::cerr << "e2e: output digest " << out_hex << " != recorded "
              << expected->output << "\n";
    ok = false;
  }
  if (expected->counts != counts_hex) {
    std::cerr << "e2e: counts digest " << counts_hex << " != recorded "
              << expected->counts << "\n";
    ok = false;
  }
  if (ok) std::cout << "digest: matches the recorded output and counts\n";
  return ok;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return static_cast<std::size_t>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
}

void print_environment(const RunOptions& opts, std::uint64_t input_bytes) {
  const std::uint64_t llc = llc_bytes();
  std::cout << "env: nproc " << online_cpus() << ", threads " << opts.threads
            << ", llc " << (llc >> 10) << " KiB, build "
            << MRSCAN_E2E_BUILD_TYPE << ", input " << input_bytes
            << " bytes";
  if (llc > 0) {
    std::cout << " (" << number(static_cast<double>(input_bytes) /
                                static_cast<double>(llc))
              << "x llc)";
  }
  std::cout << "\n";
}

void print_result(bool trace, const LayerSample& values,
                  const Checks& checks) {
  const std::span<const MetricDef> defs =
      trace ? std::span<const MetricDef>(kPerLayer)
            : std::span<const MetricDef>(kEndToEnd);
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    std::cout << "metric " << d.name << " = "
              << number(it == values.end() ? 0.0 : it->second) << " "
              << d.unit << "\n";
  }
  const double ratio =
      checks.attempted() == 0
          ? 0.0
          : static_cast<double>(checks.failed()) /
                static_cast<double>(checks.attempted());
  std::cout << "fail_ratio = " << number(ratio) << " (" << checks.failed()
            << " failed of " << checks.attempted() << " attempted)\n";

  std::ostringstream line;
  line << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << checks.attempted()
       << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    line << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
         << number(it == values.end() ? 0.0 : it->second)
         << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
}

}  // namespace e2e
