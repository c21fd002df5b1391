#include "util/logging.hpp"

#include <cstdio>
#include <mutex>

namespace mrscan::util {

namespace {
std::mutex g_mutex;
}  // namespace

void log_error(const std::string& msg) {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::fprintf(stderr, "[mrscan ERROR] %s\n", msg.c_str());
}

}  // namespace mrscan::util
