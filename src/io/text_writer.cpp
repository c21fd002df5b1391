#include "io/text_writer.hpp"

#include <cerrno>
#include <charconv>

#include "io/checked_file.hpp"

namespace mrscan::io {

namespace {

/// Upper bound on one record: a u64 id (20 chars), three %.17g doubles
/// (24 chars each, "-d.dddddddddddddddde-308"), an i64 cluster (20),
/// four separators and the newline.
constexpr std::size_t kMaxRecordBytes = 20 + 3 * 24 + 20 + 5;

char* put_double(char* out, double v) {
  return std::to_chars(out, out + 24, v, std::chars_format::general, 17).ptr;
}

template <typename Int>
char* put_int(char* out, Int v) {
  return std::to_chars(out, out + 20, v).ptr;
}

}  // namespace

TextRecordWriter::TextRecordWriter(std::filesystem::path path)
    : path_(std::move(path)), buf_(kBufferBytes) {
  errno = 0;
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) fail(path_, "cannot open for writing");
  // buf_ is the only buffer: each flush is one write(2) of up to 64 KiB.
  std::setvbuf(file_, nullptr, _IONBF, 0);
}

TextRecordWriter::~TextRecordWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void TextRecordWriter::write(const geom::Point& p) {
  char* out = put_point(reserve(), p);
  *out++ = '\n';
  used_ = static_cast<std::size_t>(out - buf_.data());
}

void TextRecordWriter::write(const geom::Point& p, std::int64_t cluster) {
  char* out = put_point(reserve(), p);
  *out++ = ' ';
  out = put_int(out, cluster);
  *out++ = '\n';
  used_ = static_cast<std::size_t>(out - buf_.data());
}

void TextRecordWriter::close() {
  flush();
  std::FILE* f = file_;
  file_ = nullptr;
  errno = 0;
  if (std::fclose(f) != 0) fail(path_, "close failed");
}

char* TextRecordWriter::reserve() {
  if (kBufferBytes - used_ < kMaxRecordBytes) flush();
  return buf_.data() + used_;
}

char* TextRecordWriter::put_point(char* out, const geom::Point& p) {
  out = put_int(out, p.id);
  *out++ = ' ';
  out = put_double(out, p.x);
  *out++ = ' ';
  out = put_double(out, p.y);
  *out++ = ' ';
  return put_double(out, static_cast<double>(p.weight));
}

void TextRecordWriter::flush() {
  errno = 0;
  if (used_ > 0 && std::fwrite(buf_.data(), 1, used_, file_) != used_) {
    fail(path_, "write failed");
  }
  used_ = 0;
}

}  // namespace mrscan::io
