#include "partition/partitioner.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "partition/audit.hpp"
#include "util/assert.hpp"
#include "util/audit.hpp"

namespace mrscan::partition {

namespace {

/// Backward-rebalancing state over flat arrays. A cell is named by its
/// index in the code-sorted histogram, and its neighbours within the
/// shadow rings are listed once (CSR) up front. Part p owns the
/// grid-order ranks [begin_[p], begin_[p+1]): packing fills the parts as
/// consecutive runs of grid order, and the backward pass only ever hands
/// part pi's first cell to the end of part pi-1, so ownership stays a
/// run per part.
///
/// Shadow bookkeeping rests on one fact: a move from pi to pi-1 changes
/// shadow membership only for the moved cell and its neighbours, and
/// only in those two parts. Two adjacency counters — neighbours owned by
/// pi and neighbours owned by pi-1 — turn each membership change into a
/// 0<->1 counter transition, so a move costs O(rings^2) array updates.
/// Stepping pi down clears the old counter sparsely (neighbours of pi's
/// cells) and refills it for pi-2: every cell is counted in and out
/// once, O(cells * rings^2) in all (DESIGN §5 item 3).
class Rebalancer {
 public:
  Rebalancer(const index::CellHistogram& hist,
             std::vector<std::uint32_t> order,
             std::vector<std::size_t> begin, bool shadow_regions,
             std::int32_t rings)
      : cells_(hist.entries()),
        order_(std::move(order)),
        begin_(std::move(begin)),
        shadow_regions_(shadow_regions),
        rings_(rings) {
    parts_ = static_cast<std::uint32_t>(begin_.size()) - 1;
    owner_.resize(cells_.size());
    owned_points_.assign(parts_, 0);
    shadow_points_.assign(parts_, 0);
    for (std::uint32_t pi = 0; pi < parts_; ++pi) {
      for (std::size_t r = begin_[pi]; r < begin_[pi + 1]; ++r) {
        owner_[order_[r]] = pi;
        owned_points_[pi] += cells_[order_[r]].count;
      }
    }
    if (shadow_regions_) {
      index_neighbours();
      stamp_.assign(cells_.size(), PartitionPlan::kUnowned);
      for (std::uint32_t pi = 0; pi < parts_; ++pi) {
        shadow_points_[pi] = collect_shadow(pi, nullptr);
      }
    }
  }

  std::uint32_t part_count() const { return parts_; }

  std::uint64_t total_with_shadow() const {
    std::uint64_t t = 0;
    for (std::uint32_t pi = 0; pi < parts_; ++pi) t += total_points(pi);
    return t;
  }

  /// Trim each part from the back of the sequence toward the front until
  /// it holds at most `threshold` points (shadows included), handing its
  /// front cell to the previous part, but never below one owned cell or
  /// `min_size` owned points. Returns the number of cells moved.
  std::uint64_t trim_backward(double threshold, double min_size) {
    if (shadow_regions_) {
      near_cur_.assign(cells_.size(), 0);
      near_prev_.assign(cells_.size(), 0);
      count_neighbours(parts_ - 1, near_cur_);
    }
    std::uint64_t moves = 0;
    for (std::uint32_t pi = parts_ - 1; pi >= 1; --pi) {
      if (shadow_regions_) {
        if (pi + 1 < parts_) {
          clear_neighbours(pi + 1, near_cur_);
          std::swap(near_cur_, near_prev_);
        }
        count_neighbours(pi - 1, near_prev_);
      }
      while (begin_[pi + 1] - begin_[pi] > 1 &&
             static_cast<double>(total_points(pi)) > threshold) {
        const std::uint64_t front = cells_[order_[begin_[pi]]].count;
        if (static_cast<double>(owned_points_[pi] - front) < min_size) {
          break;  // keep every partition at least MinPts points
        }
        move_front_cell(pi);
        ++moves;
      }
    }
    return moves;
  }

  /// Final per-part cell lists (owned in grid order, shadows sorted by
  /// code) and counts.
  std::vector<PartitionPart> export_parts() {
    std::vector<PartitionPart> out(parts_);
    if (shadow_regions_) {
      std::fill(stamp_.begin(), stamp_.end(), PartitionPlan::kUnowned);
    }
    for (std::uint32_t pi = 0; pi < parts_; ++pi) {
      PartitionPart& part = out[pi];
      part.owned_cells.reserve(begin_[pi + 1] - begin_[pi]);
      for (std::size_t r = begin_[pi]; r < begin_[pi + 1]; ++r) {
        part.owned_cells.push_back(cells_[order_[r]].code);
      }
      if (shadow_regions_) {
        collect_shadow(pi, &part.shadow_cells);
        std::sort(part.shadow_cells.begin(), part.shadow_cells.end());
      }
      part.owned_points = owned_points_[pi];
      part.shadow_points = shadow_points_[pi];
    }
    return out;
  }

 private:
  std::uint64_t total_points(std::uint32_t pi) const {
    return owned_points_[pi] + shadow_points_[pi];
  }

  /// Neighbours of `cell`: the other histogram cells within rings_
  /// (Chebyshev) of it.
  std::span<const std::uint32_t> neighbours(std::uint32_t cell) const {
    return {nbr_.data() + nbr_begin_[cell], nbr_.data() + nbr_begin_[cell + 1]};
  }

  /// Fill nbr_begin_/nbr_ with every cell's neighbours, one seek() per
  /// neighbour row. Codes sort iy as uint32, so a row window that
  /// crosses iy = 0 is two runs, [lo, -1] then [0, hi]; windows are
  /// clamped to the int32 range instead of wrapping. Two passes (count,
  /// then fill) size nbr_ exactly, which keeps the planner's peak memory
  /// at the lists themselves.
  void index_neighbours() {
    nbr_begin_.assign(cells_.size() + 1, 0);
    std::size_t total = 0;
    for (std::uint32_t cell = 0; cell < cells_.size(); ++cell) {
      for_each_row_run(cell, [&](auto first, auto last) {
        total += static_cast<std::size_t>(last - first);
      });
      MRSCAN_REQUIRE_MSG(total <= std::numeric_limits<std::uint32_t>::max(),
                         "shadow neighbourhood lists exceed 2^32 entries");
      nbr_begin_[cell + 1] = static_cast<std::uint32_t>(total);
    }
    nbr_.resize(total);
    for (std::uint32_t cell = 0; cell < cells_.size(); ++cell) {
      std::uint32_t* out = nbr_.data() + nbr_begin_[cell];
      for_each_row_run(cell, [&](auto first, auto last) {
        for (auto it = first; it != last; ++it) {
          *out++ = static_cast<std::uint32_t>(it - cells_.begin());
        }
      });
    }
  }

  /// Index of the first cell whose code is >= `target`, galloping out
  /// from cell `from`: neighbour rows lie a few rows' worth of cells
  /// away in code order, so this touches O(log distance) nearby entries
  /// instead of bisecting the whole histogram.
  std::size_t seek(std::size_t from, std::uint64_t target) const {
    const auto less = [](const index::CellHistogram::Entry& e,
                         std::uint64_t c) { return e.code < c; };
    const std::size_t n = cells_.size();
    std::size_t lo = 0;
    std::size_t hi = from;  // the answer lies in [lo, hi]
    std::size_t step = 1;
    if (cells_[from].code < target) {
      lo = from + 1;
      while (true) {
        const std::size_t probe = lo + step - 1;
        if (probe >= n) {
          hi = n;
          break;
        }
        if (cells_[probe].code >= target) {
          hi = probe;
          break;
        }
        lo = probe + 1;
        step *= 2;
      }
    } else {
      while (hi >= step && cells_[hi - step].code >= target) {
        hi -= step;
        step *= 2;
      }
      lo = hi >= step ? hi - step + 1 : 0;
    }
    return static_cast<std::size_t>(
        std::lower_bound(cells_.begin() + lo, cells_.begin() + hi, target,
                         less) -
        cells_.begin());
  }

  /// Call fn(first, last) with the histogram range of each neighbour-row
  /// run of `cell`, with `cell` itself split out of its own row.
  template <typename Fn>
  void for_each_row_run(std::uint32_t cell, Fn&& fn) const {
    constexpr std::int64_t kMin = std::numeric_limits<std::int32_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
    const geom::CellKey key = geom::cell_from_code(cells_[cell].code);
    const std::int64_t lo = std::max(kMin, std::int64_t{key.iy} - rings_);
    const std::int64_t hi = std::min(kMax, std::int64_t{key.iy} + rings_);
    const auto self = cells_.begin() + cell;
    const auto run = [&](std::int32_t ix, std::int64_t a, std::int64_t b) {
      const auto first = cells_.begin() + seek(
          cell, geom::cell_code({ix, static_cast<std::int32_t>(a)}));
      const std::uint64_t last_code =
          geom::cell_code({ix, static_cast<std::int32_t>(b)});
      auto last = first;
      while (last != cells_.end() && last->code <= last_code) ++last;
      if (first <= self && self < last) {
        fn(first, self);
        fn(self + 1, last);
      } else {
        fn(first, last);
      }
    };
    for (std::int64_t ix = std::max(kMin, std::int64_t{key.ix} - rings_);
         ix <= std::min(kMax, std::int64_t{key.ix} + rings_); ++ix) {
      const auto row = static_cast<std::int32_t>(ix);
      if (lo < 0 && hi >= 0) {
        run(row, lo, -1);
        run(row, 0, hi);
      } else {
        run(row, lo, hi);
      }
    }
  }

  /// Count, into `near`, part pi's cells around every cell.
  void count_neighbours(std::uint32_t pi,
                        std::vector<std::uint32_t>& near) const {
    for (std::size_t r = begin_[pi]; r < begin_[pi + 1]; ++r) {
      for (const std::uint32_t n : neighbours(order_[r])) ++near[n];
    }
  }

  /// Zero `near` wherever count_neighbours(pi) could have touched it.
  void clear_neighbours(std::uint32_t pi,
                        std::vector<std::uint32_t>& near) const {
    for (std::size_t r = begin_[pi]; r < begin_[pi + 1]; ++r) {
      for (const std::uint32_t n : neighbours(order_[r])) near[n] = 0;
    }
  }

  /// Part pi's shadow by definition: every non-empty cell within rings_
  /// of a cell pi owns that pi does not own itself. Appends the codes to
  /// `codes` when given; returns the shadow's point count. stamp_ must
  /// hold no part id >= pi: passes visit parts in increasing order after
  /// a reset to kUnowned.
  std::uint64_t collect_shadow(std::uint32_t pi,
                               std::vector<std::uint64_t>* codes) {
    std::uint64_t points = 0;
    for (std::size_t r = begin_[pi]; r < begin_[pi + 1]; ++r) {
      for (const std::uint32_t n : neighbours(order_[r])) {
        if (owner_[n] == pi || cells_[n].count == 0 || stamp_[n] == pi) {
          continue;
        }
        stamp_[n] = pi;
        points += cells_[n].count;
        if (codes != nullptr) codes->push_back(cells_[n].code);
      }
    }
    return points;
  }

  /// Move part pi's first owned cell (earliest in grid order, adjacent to
  /// part pi-1) to the end of part pi-1. near_cur_ counts neighbours
  /// owned by pi and near_prev_ those owned by pi-1.
  void move_front_cell(std::uint32_t pi) {
    const std::uint32_t cell = order_[begin_[pi]];
    const std::uint64_t count = cells_[cell].count;
    ++begin_[pi];
    owner_[cell] = pi - 1;
    owned_points_[pi] -= count;
    owned_points_[pi - 1] += count;
    if (!shadow_regions_) return;

    if (count > 0) {
      if (near_prev_[cell] > 0) shadow_points_[pi - 1] -= count;
      if (near_cur_[cell] > 0) shadow_points_[pi] += count;
    }
    for (const std::uint32_t n : neighbours(cell)) {
      const std::uint64_t n_count = cells_[n].count;
      if (--near_cur_[n] == 0 && owner_[n] != pi) {
        shadow_points_[pi] -= n_count;
      }
      if (near_prev_[n]++ == 0 && owner_[n] != pi - 1) {
        shadow_points_[pi - 1] += n_count;
      }
    }
  }

  std::span<const index::CellHistogram::Entry> cells_;
  std::vector<std::uint32_t> order_;  // cell indices in grid order
  std::vector<std::size_t> begin_;    // parts_ + 1 grid-order offsets
  bool shadow_regions_ = true;
  std::int32_t rings_ = 1;
  std::uint32_t parts_ = 0;
  std::vector<std::uint32_t> owner_;
  std::vector<std::uint64_t> owned_points_;
  std::vector<std::uint64_t> shadow_points_;
  std::vector<std::uint32_t> nbr_begin_;  // CSR offsets into nbr_
  std::vector<std::uint32_t> nbr_;        // neighbour cell indices
  std::vector<std::uint32_t> stamp_;      // shadow dedup, one pass
  std::vector<std::uint32_t> near_cur_;   // neighbours owned by pi
  std::vector<std::uint32_t> near_prev_;  // neighbours owned by pi-1
};

}  // namespace

PartitionPlan plan_partitions(const index::CellHistogram& hist,
                              const geom::GridGeometry& geometry,
                              const PartitionerConfig& config) {
  MRSCAN_REQUIRE(config.target_parts >= 1);
  MRSCAN_REQUIRE(config.rebalance_threshold >= 1.0);
  MRSCAN_REQUIRE(config.cell_refine >= 1);
  // Shadow radius 2*Eps (two Eps-sized rings, 2k refined ones): the inner
  // Eps band completes owned points' neighbourhoods, the outer band makes
  // the inner band's *core flags* exact — a shadow point within Eps of an
  // owned cell sees its own full Eps-ball, so border attachment and core
  // connectivity never depend on which leaf owns which side of a cut.
  const auto rings = 2 * static_cast<std::int32_t>(config.cell_refine);

  const auto cells = hist.entries();
  if (cells.empty()) return make_plan(geometry, {}, rings);
  MRSCAN_REQUIRE(cells.size() < PartitionPlan::kUnowned);
  const std::size_t n_parts = std::min(config.target_parts, cells.size());

  // Cells in the partitioner's iteration order: "first along the y axis,
  // and then along the x axis" — y varies fastest (CellKey's ordering,
  // which differs from code order once coordinates go negative).
  std::vector<std::uint32_t> order(cells.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return geom::cell_from_code(cells[a].code) <
                     geom::cell_from_code(cells[b].code);
            });

  const double target = static_cast<double>(hist.total_points()) /
                        static_cast<double>(n_parts);
  const double min_size = static_cast<double>(config.min_pts);

  // ---- Sequential packing with the running-difference rule (§3.1.2):
  // cells are appended until the next one would overflow the current
  // target; oversized partitions shrink the targets that follow. Part p
  // takes grid-order ranks [begin[p], begin[p+1]). ----
  std::vector<std::size_t> begin{0};
  std::uint64_t part_points = 0;
  double running_diff = 0.0;
  auto current_target = [&]() {
    return running_diff > 0.0 ? std::max(min_size, target - running_diff)
                              : target;
  };
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const std::uint64_t count = cells[order[rank]].count;
    const bool is_final_part = begin.size() == n_parts;
    const double would_be = static_cast<double>(part_points + count);
    if (rank > begin.back() && !is_final_part &&
        would_be > current_target()) {
      running_diff += static_cast<double>(part_points) - target;
      begin.push_back(rank);
      part_points = 0;
    }
    part_points += count;
  }
  begin.push_back(order.size());

  Rebalancer reb(hist, std::move(order), std::move(begin),
                 config.shadow_regions, rings);

  // ---- Backward rebalancing (Figure 2c/2d): update the target to the
  // mean including shadow regions, then trim each partition from the back
  // of the sequence toward the front, handing trimmed cells to the
  // previous partition. The first partition absorbs the residue. ----
  double used_threshold = 0.0;
  std::uint64_t rebalance_moves = 0;
  if (config.rebalance && reb.part_count() >= 2) {
    const double final_target =
        static_cast<double>(reb.total_with_shadow()) /
        static_cast<double>(reb.part_count());
    used_threshold = config.rebalance_threshold * final_target;
    rebalance_moves = reb.trim_backward(used_threshold, min_size);
  }

  PartitionPlan plan = make_plan(geometry, reb.export_parts(), rings);
  plan.rebalance_moves = rebalance_moves;
  if constexpr (util::kAuditEnabled) {
    audit_plan(plan, hist, config, used_threshold);
  }
  return plan;
}

}  // namespace mrscan::partition
