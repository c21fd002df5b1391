// FNV-1a, 64-bit: the one non-cryptographic hash behind packet
// checksums, checkpoint entry checksums, the out-of-core run fingerprint
// and the serving path's core-membership fingerprints.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mrscan::util {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Fold `n` bytes at `data` into the running hash `h`.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = kFnvOffsetBasis) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Fold the 8 bytes of `v`, least significant first, into the running
/// hash `h`: the same value on every host byte order.
inline std::uint64_t fnv1a_u64(std::uint64_t v,
                               std::uint64_t h = kFnvOffsetBasis) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace mrscan::util
