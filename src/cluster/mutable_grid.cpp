#include "cluster/mutable_grid.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mrscan::cluster {

std::uint32_t MutableCellGrid::insert(geom::CellKey key, geom::PointId id,
                                      std::uint32_t slot) {
  const std::uint64_t code = geom::cell_code(key);
  auto [it, fresh] = index_.try_emplace(code, kNone);
  if (fresh) {
    if (free_.empty()) {
      it->second = static_cast<std::uint32_t>(cells_.size());
      cells_.emplace_back();
      components_.push_back(kNone);
    } else {
      it->second = free_.back();
      free_.pop_back();
    }
    const std::uint32_t index = it->second;
    Cell& cell = cells_[index];
    cell.code = code;
    // Link the new cell and its allocated neighbours both ways.
    for (int k = 0; k < kRingCells; ++k) {
      const auto found = index_.find(geom::cell_code(geom::CellKey{
          key.ix + kRingOffsets[k].ix, key.iy + kRingOffsets[k].iy}));
      cell.ring[k] = found == index_.end() ? kNone : found->second;
      if (found != index_.end()) {
        cells_[found->second].ring[reverse_offset(k)] = index;
      }
    }
  }
  auto& members = cells_[it->second].members;
  const auto pos = std::lower_bound(
      members.begin(), members.end(), id,
      [](const Member& m, geom::PointId v) { return m.id < v; });
  MRSCAN_REQUIRE(pos == members.end() || pos->id != id);
  members.insert(pos, Member{id, slot});
  return it->second;
}

void MutableCellGrid::remove(std::uint32_t index, geom::PointId id) {
  auto& members = cells_[index].members;
  const auto pos = std::lower_bound(
      members.begin(), members.end(), id,
      [](const Member& m, geom::PointId v) { return m.id < v; });
  MRSCAN_REQUIRE(pos != members.end() && pos->id == id);
  members.erase(pos);
}

void MutableCellGrid::release(std::uint32_t index) {
  Cell& cell = cells_[index];
  MRSCAN_REQUIRE(cell.members.empty() && cell.core_slots.empty() &&
                 cell.tested == 0 && components_[index] == kNone);
  for (int k = 0; k < kRingCells; ++k) {
    if (cell.ring[k] != kNone) {
      cells_[cell.ring[k]].ring[reverse_offset(k)] = kNone;
    }
  }
  index_.erase(cell.code);
  free_.push_back(index);
}

}  // namespace mrscan::cluster
