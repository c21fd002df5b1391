// Turn a partition plan plus the actual points into per-partition segments
// (owned points followed by shadow points), optionally applying the
// partitioner's shadow representative-point optimisation (§3.1.3): for
// extremely dense shadow cells, write 8 geometrically-selected
// representatives instead of the full cell, trading a possible missed merge
// for drastically less data written.
#pragma once

#include <filesystem>
#include <span>

#include "index/grid.hpp"
#include "io/mapped_segment.hpp"
#include "partition/plan.hpp"
#include "sim/titan.hpp"
#include "util/thread_pool.hpp"

namespace mrscan::partition {

struct MaterializeConfig {
  /// Replace shadow-cell contents with representatives when a shadow cell
  /// holds more than this many points (0 disables the optimisation).
  std::size_t shadow_rep_threshold = 0;
};

/// Every partition of a plan, as materialize_partitions leaves it.
struct MaterializedPartitions {
  /// One segment per part; empty when the parts were spooled to files.
  std::vector<io::Segment> segments;
  /// Per-part record counts, filled either way.
  std::vector<io::SegmentCounts> counts;
};

/// Extract every partition's owned and shadow points on `pool`; `grid`
/// must be built over `points` with the plan's geometry. Part pi writes
/// only its own slots, so the result is identical for any worker count.
/// With an empty `spool_dir` each part keeps its segment; otherwise it
/// writes it to io::segment_file_path(spool_dir, pi) and drops it, so at
/// most pool-many segments are in flight at once (DESIGN §15).
MaterializedPartitions materialize_partitions(
    const PartitionPlan& plan, const index::Grid& grid,
    std::span<const geom::Point> points, util::ThreadPool& pool,
    const MaterializeConfig& config = {},
    const std::filesystem::path& spool_dir = {});

/// Modeled PFS cost of re-reading one materialized partition during leaf
/// recovery: a single surviving sibling streams the dead leaf's segment
/// back from the segmented partition file (§3.1.3's layout records each
/// partition's offset, so the re-read is one contiguous stream). This
/// PFS-backed restart is what makes leaf failure recoverable at all. Only
/// the record counts are needed, so out-of-core runs, where the dead
/// leaf's points are not resident, charge the identical model.
double segment_reread_seconds(const io::SegmentCounts& counts,
                              const sim::LustreParams& lustre);

}  // namespace mrscan::partition
