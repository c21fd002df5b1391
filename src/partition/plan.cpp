#include "partition/plan.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/assert.hpp"

namespace mrscan::partition {

std::uint64_t PartitionPlan::total_owned_points() const {
  std::uint64_t total = 0;
  for (const auto& p : parts) total += p.owned_points;
  return total;
}

std::uint64_t PartitionPlan::total_points_with_shadow() const {
  std::uint64_t total = 0;
  for (const auto& p : parts) total += p.total_points();
  return total;
}

std::uint32_t PartitionPlan::owner_of(std::uint64_t cell_code) const {
  const auto it = std::lower_bound(
      owner_.begin(), owner_.end(), cell_code,
      [](const auto& e, std::uint64_t c) { return e.first < c; });
  if (it == owner_.end() || it->first != cell_code) return kUnowned;
  return it->second;
}

void PartitionPlan::reindex() {
  owner_.clear();
  for (std::uint32_t pi = 0; pi < parts.size(); ++pi) {
    for (const std::uint64_t code : parts[pi].owned_cells) {
      owner_.emplace_back(code, pi);
    }
  }
  std::sort(owner_.begin(), owner_.end());
  for (std::size_t i = 1; i < owner_.size(); ++i) {
    MRSCAN_REQUIRE_MSG(owner_[i].first != owner_[i - 1].first,
                       "cell owned by two partitions");
  }
}

void PartitionPlan::validate(const index::CellHistogram& hist) const {
  std::uint64_t owned_total = 0;
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t pi = 0; pi < parts.size(); ++pi) {
    const auto& part = parts[pi];
    MRSCAN_REQUIRE_MSG(!part.owned_cells.empty(), "empty partition");
    std::uint64_t pts = 0;
    for (const std::uint64_t code : part.owned_cells) {
      MRSCAN_REQUIRE_MSG(seen.insert(code).second,
                         "cell owned by two partitions");
      MRSCAN_REQUIRE_MSG(owner_of(code) == pi, "ownership index stale");
      pts += hist.count_of(geom::cell_from_code(code));
    }
    MRSCAN_REQUIRE_MSG(pts == part.owned_points, "owned point count stale");
    owned_total += pts;
    for (const std::uint64_t code : part.shadow_cells) {
      MRSCAN_REQUIRE_MSG(owner_of(code) != pi,
                         "shadow cell also owned by same partition");
      MRSCAN_REQUIRE_MSG(hist.count_of(geom::cell_from_code(code)) > 0,
                         "empty shadow cell retained");
    }
  }
  MRSCAN_REQUIRE_MSG(owned_total == hist.total_points(),
                     "partitions do not cover all points");
}

PartitionPlan make_plan(geom::GridGeometry geometry,
                        std::vector<PartitionPart> parts,
                        std::int32_t shadow_rings) {
  PartitionPlan plan;
  plan.geometry = geometry;
  plan.shadow_rings = shadow_rings;
  plan.parts = std::move(parts);
  plan.reindex();
  return plan;
}

}  // namespace mrscan::partition
