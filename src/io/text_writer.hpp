// Streaming text encoder for point records: the one formatter behind
// io::write_points_text ("id x y weight") and sweep::write_labeled_text
// ("id x y weight cluster").
//
// Doubles are written with std::to_chars(general, precision 17), which is
// specified to produce exactly printf("%.17g") — the bytes the earlier
// std::ostream precision-17 encoder wrote. The float weight is widened
// to double first, as operator<< does. Records are formatted into a
// fixed 64 KiB buffer that is written out whenever it fills, so memory
// stays flat whatever the file size.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "geometry/point.hpp"

namespace mrscan::io {

class TextRecordWriter {
 public:
  /// Create or truncate `path`. Throws with errno context (io::fail).
  explicit TextRecordWriter(std::filesystem::path path);
  /// Closes the file without reporting errors if close() was not called
  /// (an exception is already unwinding).
  ~TextRecordWriter();
  TextRecordWriter(const TextRecordWriter&) = delete;
  TextRecordWriter& operator=(const TextRecordWriter&) = delete;

  /// Append "id x y weight\n".
  void write(const geom::Point& p);
  /// Append "id x y weight cluster\n".
  void write(const geom::Point& p, std::int64_t cluster);

  /// Write out the buffer and close the file. Throws with errno context
  /// on a short write or a failed close.
  void close();

 private:
  static constexpr std::size_t kBufferBytes = 64 * 1024;

  /// Make room for one record, writing the buffer out when it is short.
  char* reserve();
  char* put_point(char* out, const geom::Point& p);
  void flush();

  std::filesystem::path path_;
  std::FILE* file_ = nullptr;
  std::vector<char> buf_;
  std::size_t used_ = 0;
};

}  // namespace mrscan::io
