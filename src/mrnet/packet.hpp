// Wire packets for the tree network.
//
// Everything that travels the tree (cell histograms, partition boundaries,
// cluster summaries, global-id maps) is serialised into Packets, so message
// sizes — which drive the network cost model — are the real encoded sizes,
// not estimates.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/fnv.hpp"

namespace mrscan::mrnet {

class Packet {
 public:
  Packet() = default;
  explicit Packet(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  std::size_t size_bytes() const { return bytes_.size(); }
  std::span<const std::uint8_t> bytes() const { return bytes_; }

  /// FNV-1a hash of the payload. The network records it at first send and
  /// verifies it at delivery when fault handling is armed, so a bug in the
  /// retransmission path (delivering a moved-from or truncated copy) is
  /// caught at the wire rather than as a wrong clustering.
  std::uint64_t checksum() const {
    return util::fnv1a(bytes_.data(), bytes_.size());
  }

  // -- Writing (appends) --
  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_u32(std::uint32_t v) { put_raw(&v, 4); }
  void put_u64(std::uint64_t v) { put_raw(&v, 8); }
  void put_i64(std::int64_t v) { put_raw(&v, 8); }
  void put_f64(double v) { put_raw(&v, 8); }
  void put_f32(float v) { put_raw(&v, 4); }

  void put_string(const std::string& s) {
    put_u64(s.size());
    put_raw(s.data(), s.size());
  }

  template <typename T>
  void put_pod_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_u64(v.size());
    put_raw(v.data(), v.size() * sizeof(T));
  }

  // -- Reading (cursor-based) --
  class Reader {
   public:
    explicit Reader(const Packet& packet) : packet_(packet) {}

    std::uint8_t get_u8() {
      std::uint8_t v;
      get_raw(&v, 1);
      return v;
    }
    std::uint32_t get_u32() {
      std::uint32_t v;
      get_raw(&v, 4);
      return v;
    }
    std::uint64_t get_u64() {
      std::uint64_t v;
      get_raw(&v, 8);
      return v;
    }
    std::int64_t get_i64() {
      std::int64_t v;
      get_raw(&v, 8);
      return v;
    }
    double get_f64() {
      double v;
      get_raw(&v, 8);
      return v;
    }
    float get_f32() {
      float v;
      get_raw(&v, 4);
      return v;
    }

    /// Read a u64 element count and check it against the bytes left,
    /// given the smallest encoded size of one element, so a forged count
    /// fails before anything is allocated for it.
    std::uint64_t get_count(std::size_t min_element_bytes) {
      const std::uint64_t n = get_u64();
      MRSCAN_REQUIRE_MSG(n <= remaining() / min_element_bytes,
                         "packet count exceeds the bytes left");
      return n;
    }

    std::string get_string() {
      const std::uint64_t n = get_count(1);
      std::string s(n, '\0');
      get_raw(s.data(), n);
      return s;
    }

    template <typename T>
    std::vector<T> get_pod_vector() {
      static_assert(std::is_trivially_copyable_v<T>);
      const std::uint64_t n = get_count(sizeof(T));
      std::vector<T> v;
      if (n == 0) return v;
      v.resize(n);
      get_raw(v.data(), n * sizeof(T));
      return v;
    }

    bool at_end() const { return cursor_ == packet_.bytes_.size(); }
    std::size_t remaining() const { return packet_.bytes_.size() - cursor_; }

   private:
    void get_raw(void* dst, std::size_t n) {
      MRSCAN_REQUIRE_MSG(n <= remaining(), "packet underrun");
      std::memcpy(dst, packet_.bytes_.data() + cursor_, n);
      cursor_ += n;
    }

    const Packet& packet_;
    std::size_t cursor_ = 0;
  };

  Reader reader() const { return Reader(*this); }

 private:
  void put_raw(const void* src, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(src);
    bytes_.insert(bytes_.end(), p, p + n);
  }

  std::vector<std::uint8_t> bytes_;
};

}  // namespace mrscan::mrnet
