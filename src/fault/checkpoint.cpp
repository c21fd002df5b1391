#include "fault/checkpoint.hpp"

#include <cerrno>
#include <cstring>

#include "io/checked_file.hpp"
#include "util/fnv.hpp"

namespace mrscan::fault {

namespace {

constexpr char kMagic[4] = {'M', 'R', 'C', 'K'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 8;

void put_bytes(std::vector<std::uint8_t>& buf, const void* src,
               std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(src);
  buf.insert(buf.end(), p, p + n);
}

void append_entry(std::vector<std::uint8_t>& buf,
                  const CheckpointEntry& entry) {
  const std::size_t begin = buf.size();
  put_bytes(buf, &entry.rank, 4);
  put_bytes(buf, &entry.ready_seconds, 8);
  put_bytes(buf, &entry.labels_bytes, 8);
  const std::uint32_t stats_len =
      static_cast<std::uint32_t>(entry.stats.size());
  put_bytes(buf, &stats_len, 4);
  put_bytes(buf, entry.stats.data(), entry.stats.size());
  const std::uint32_t summary_len =
      static_cast<std::uint32_t>(entry.summary.size());
  put_bytes(buf, &summary_len, 4);
  put_bytes(buf, entry.summary.data(), entry.summary.size());
  const std::uint64_t checksum =
      util::fnv1a(buf.data() + begin, buf.size() - begin);
  put_bytes(buf, &checksum, 8);
}

/// Reads the entry at `cursor`; returns false (leaving the manifest
/// untouched) when the remaining bytes are short, damaged, or name an
/// impossible rank — the torn-tail cases load_checkpoint truncates at.
bool parse_entry(const std::vector<std::uint8_t>& bytes, std::size_t& cursor,
                 const CheckpointManifest& manifest, CheckpointEntry& out) {
  const std::size_t begin = cursor;
  const auto remaining = [&] { return bytes.size() - cursor; };
  const auto get = [&](void* dst, std::size_t n) {
    if (remaining() < n) return false;
    std::memcpy(dst, bytes.data() + cursor, n);
    cursor += n;
    return true;
  };
  std::uint32_t stats_len = 0;
  std::uint32_t summary_len = 0;
  std::uint64_t checksum = 0;
  if (!get(&out.rank, 4) || !get(&out.ready_seconds, 8) ||
      !get(&out.labels_bytes, 8) || !get(&stats_len, 4)) {
    return false;
  }
  if (remaining() < stats_len) return false;
  out.stats.assign(bytes.begin() + static_cast<std::ptrdiff_t>(cursor),
                   bytes.begin() + static_cast<std::ptrdiff_t>(cursor) +
                       stats_len);
  cursor += stats_len;
  if (!get(&summary_len, 4) || remaining() < summary_len) return false;
  out.summary.assign(bytes.begin() + static_cast<std::ptrdiff_t>(cursor),
                     bytes.begin() + static_cast<std::ptrdiff_t>(cursor) +
                         summary_len);
  cursor += summary_len;
  const std::size_t checksummed = cursor - begin;
  if (!get(&checksum, 8)) return false;
  if (checksum != util::fnv1a(bytes.data() + begin, checksummed)) return false;
  if (out.rank >= manifest.total_leaves) return false;
  return true;
}

}  // namespace

std::size_t save_checkpoint(const std::filesystem::path& path,
                            const CheckpointManifest& manifest) {
  std::vector<std::uint8_t> buf;
  put_bytes(buf, kMagic, 4);
  put_bytes(buf, &kVersion, 4);
  put_bytes(buf, &manifest.fingerprint, 8);
  put_bytes(buf, &manifest.total_leaves, 8);
  for (const CheckpointEntry& entry : manifest.entries) {
    append_entry(buf, entry);
  }
  io::write_file_atomic(path, buf);
  return buf.size();
}

CheckpointManifest load_checkpoint(const std::filesystem::path& path,
                                   std::uint64_t expected_fingerprint) {
  const std::vector<std::uint8_t> bytes = io::read_file_bytes(path);
  errno = 0;
  if (bytes.size() < kHeaderSize) {
    io::fail(path, "truncated checkpoint manifest header");
  }
  if (std::memcmp(bytes.data(), kMagic, 4) != 0) {
    io::fail(path, "not a mrscan checkpoint manifest");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, 4);
  if (version != kVersion) {
    io::fail(path, "unsupported checkpoint manifest version");
  }
  CheckpointManifest manifest;
  std::memcpy(&manifest.fingerprint, bytes.data() + 8, 8);
  std::memcpy(&manifest.total_leaves, bytes.data() + 16, 8);
  if (manifest.fingerprint != expected_fingerprint) {
    io::fail(path,
             "checkpoint manifest does not match this run's configuration");
  }
  std::size_t cursor = kHeaderSize;
  while (cursor < bytes.size()) {
    CheckpointEntry entry;
    const std::size_t entry_start = cursor;
    if (!parse_entry(bytes, cursor, manifest, entry)) {
      // Torn tail: everything before `entry_start` checksummed clean, so
      // restore that prefix and let resume re-cluster the rest.
      cursor = entry_start;
      break;
    }
    manifest.entries.push_back(std::move(entry));
  }
  return manifest;
}

}  // namespace mrscan::fault
