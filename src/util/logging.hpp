// Error diagnostics to stderr.
//
// Kept deliberately small: experiments are driven by bench binaries that
// print their own tables; library code reports the rare failure it must
// not throw (a failed observability export) through here, the one place
// the printf family is allowed outside util/assert.
#pragma once

#include <string>

namespace mrscan::util {

/// Emit "[mrscan ERROR] msg" on stderr (thread-safe, single write per
/// line).
void log_error(const std::string& msg);

}  // namespace mrscan::util
