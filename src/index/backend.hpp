// The spatial index the per-leaf kernels traverse. The region-leaf KD-tree
// (§3.2.1) is the only one; this one-value enum survives solely because
// the frozen end-to-end benchmark driver (bench/e2e/batch.cpp) still
// assigns `index_backend` between configs, and goes once that line does.
#pragma once

namespace mrscan::index {

enum class Backend { kKdTree };

}  // namespace mrscan::index
