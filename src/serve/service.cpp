#include "serve/service.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "cluster/cell_graph_ops.hpp"
#include "core/serve_state.hpp"
#include "obs/names.hpp"
#include "util/assert.hpp"
#include "util/fnv.hpp"
#include "util/timer.hpp"

namespace mrscan::serve {

namespace {

namespace names = obs::names;

using cluster::kRingCells;

/// The cells whose members lie within Eps reach of cell c's members: c
/// first, then its occupied ring-3 neighbours in kRingOffsets order (the
/// geom::for_each_neighbor_within order). Returns how many were written.
using ScanCells = std::array<std::uint32_t, 1 + kRingCells>;
std::size_t scan_cells(const cluster::MutableCellGrid& grid, std::uint32_t c,
                       ScanCells& out) {
  std::size_t n = 0;
  out[n++] = c;
  for (int k = 0; k < kRingCells; ++k) {
    const std::uint32_t nb = grid.neighbor(c, k);
    if (nb != cluster::MutableCellGrid::kNone && !grid.members(nb).empty()) {
      out[n++] = nb;
    }
  }
  return n;
}

void sort_unique(std::vector<std::uint32_t>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

std::optional<dbscan::ClusterId> EpochSnapshot::label_of(
    geom::PointId id) const {
  // Live ids are close to dense, so the search starts where an even
  // spread of ids would put `id` and gallops outward from there. That
  // touches a few neighbouring cache lines instead of a binary-search path
  // from the middle of the array, which matters because every epoch
  // publishes a new snapshot that no reader has cached yet.
  const std::size_t n = points.size();
  if (n == 0 || id < points.front().id || id > points.back().id) {
    return std::nullopt;
  }
  const double spread =
      static_cast<double>(points.back().id - points.front().id) + 1.0;
  const std::size_t guess = std::min(
      n - 1, static_cast<std::size_t>(
                 static_cast<double>(id - points.front().id) / spread *
                 static_cast<double>(n)));
  // Bracket [lo, hi) around the first point with an id >= `id`, in steps
  // doubling away from the guess.
  std::size_t lo = 0;
  std::size_t hi = n;
  std::size_t step = 1;
  if (points[guess].id < id) {
    lo = guess + 1;
    while (lo + step <= n && points[lo + step - 1].id < id) {
      lo += step;
      step *= 2;
    }
    hi = std::min(n, lo + step);
  } else {
    hi = guess + 1;
    while (hi > step && points[hi - 1 - step].id >= id) {
      hi -= step;
      step *= 2;
    }
    lo = hi > step ? hi - step : 0;
  }
  const auto it = std::lower_bound(
      points.begin() + static_cast<std::ptrdiff_t>(lo),
      points.begin() + static_cast<std::ptrdiff_t>(hi), id,
      [](const geom::Point& p, geom::PointId v) { return p.id < v; });
  if (it == points.end() || it->id != id) return std::nullopt;
  return labels[static_cast<std::size_t>(it - points.begin())];
}

ClusterService::ClusterService(ServeConfig config)
    : config_(std::move(config)),
      eps2_(config_.params.eps * config_.params.eps),
      injector_(config_.fault_plan),
      pool_(config_.host_threads),
      grid_(cluster::cell_graph_side(config_.params.eps)) {
  MRSCAN_REQUIRE(config_.params.eps > 0.0);
  MRSCAN_REQUIRE(config_.params.min_pts >= 1);
  // Every serve.* counter exists from the first snapshot on (the "created
  // at zero" idiom), so metric consumers never see a partial table.
  registry_.add(names::kServeEpochs, 0);
  registry_.add(names::kServeInserts, 0);
  registry_.add(names::kServeRemoves, 0);
  registry_.add(names::kServeRejected, 0);
  registry_.add(names::kServeReclusterPoints, 0);
  registry_.add(names::kServeDistanceOps, 0);
  registry_.add(names::kServeEdgeTests, 0);
  registry_.add(names::kServeQueries, 0);
  registry_.add(names::kServeRetries, 0);
  registry_.add(names::kServeFaultAborts, 0);
  registry_.set(names::kServePoints, 0.0);
  registry_.set(names::kServeCells, 0.0);
  registry_.set(names::kServeClusters, 0.0);
  registry_.set(names::kServePinnedEpochs, 0.0);
  registry_.set(names::kServeSimSeconds, 0.0);
  // Epoch 0: the empty clustering, published so queries are well-defined
  // before any mutation arrives.
  publish(std::make_shared<const EpochSnapshot>());
}

ClusterService::~ClusterService() = default;

std::unique_ptr<ClusterService> ClusterService::from_build(
    const core::ServeState& state) {
  ServeConfig config;
  config.params = state.params;
  config.host_threads = state.host_threads;
  auto service = std::make_unique<ClusterService>(std::move(config));
  const EpochResult r = service->bootstrap(state.points);
  MRSCAN_REQUIRE(r.ok);
  return service;
}

void ClusterService::insert(const geom::Point& point) {
  pending_.push_back(Mutation{Mutation::Kind::kInsert, point});
}

void ClusterService::remove(geom::PointId id) {
  geom::Point key;
  key.id = id;
  pending_.push_back(Mutation{Mutation::Kind::kRemove, key});
}

EpochResult ClusterService::bootstrap(std::span<const geom::Point> points) {
  for (const geom::Point& p : points) insert(p);
  return advance_epoch();
}

EpochResult ClusterService::advance_epoch() {
  util::Timer timer;
  EpochResult result;
  EpochStats& stats = result.stats;
  const std::uint64_t e = epoch_ + 1;
  stats.epoch = e;

  // ---- Fault gate: the epoch's publish link. Epoch e plays node e in
  // the fault plan; each drop costs an ack timeout + exponential backoff
  // on the virtual clock, and exhausting the retry budget fails the
  // epoch cleanly — the previous snapshot stays current and the pending
  // mutations are retried by the next advance_epoch().
  double fault_delay_s = 0.0;
  if (injector_.active()) {
    const auto node = static_cast<std::uint32_t>(e);
    std::uint32_t attempt = 0;
    while (injector_.should_drop(node, attempt)) {
      fault_delay_s += injector_.retry().ack_timeout_s +
                       injector_.retry().backoff_seconds(attempt);
      ++stats.retries;
      ++attempt;
      if (attempt >= injector_.retry().max_attempts) {
        registry_.add(names::kServeRetries, stats.retries);
        registry_.add(names::kServeFaultAborts);
        result.ok = false;
        result.error = "epoch " + std::to_string(e) +
                       ": publish retry budget exhausted";
        return result;
      }
    }
  }

  // ---- Apply pending mutations; every touched cell is dirty.
  const std::vector<CellIndex> dirty = apply_pending(stats);
  stats.dirty_cells = dirty.size();

  // ---- Invalidation region. Core status can only flip for points within
  // Eps of a mutation; with cells of side Eps/(2*sqrt(2)) those points
  // live within Chebyshev distance kCellGraphRings of a dirty cell
  // (DESIGN §12's reachability bound), so `affected` is a complete core
  // recompute set.
  const std::vector<CellIndex> affected = occupied_neighborhoods(dirty);

  std::vector<CellIndex> changed_core;
  stats.distance_ops += classify_core_cells(affected, changed_core);

  // A dirty cell that vanished entirely: its former core members are
  // gone, which is a core-membership change like any other.
  for (const CellIndex c : dirty) {
    auto& cell = grid_.cell(c);
    if (cell.members.empty() && !cell.core_slots.empty()) {
      cell.core_slots.clear();
      changed_core.push_back(c);
    }
  }

  // ---- Connectivity: re-test the pairs the core changes invalidated and
  // update the components they touch.
  connect(changed_core, stats);

  // ---- Border anchors. An anchor (lowest-id core point within Eps) can
  // only change when a core-membership change happens within Eps, i.e.
  // for border points within ring-3 of a changed_core cell — plus the
  // affected cells themselves, whose own members (re-)classified.
  std::vector<CellIndex> anchor_region = occupied_neighborhoods(changed_core);
  anchor_region.insert(anchor_region.end(), affected.begin(), affected.end());
  sort_unique(anchor_region);
  // Re-clustered points: the epoch's distance-level footprint — every
  // member of a core-recompute cell plus every border point whose anchor
  // was redone outside those cells.
  for (const CellIndex c : affected) {
    stats.recluster_points += grid_.members(c).size();
  }
  for (const CellIndex c : anchor_region) {
    if (std::binary_search(affected.begin(), affected.end(), c)) continue;
    const auto& cell = grid_.cell(c);
    stats.recluster_points += cell.members.size() - cell.core_slots.size();
  }
  stats.distance_ops += recompute_anchors(anchor_region);

  // Vacated cells have retired their graph state above; free them.
  for (const CellIndex c : dirty) {
    if (grid_.members(c).empty()) grid_.release(c);
  }

  std::shared_ptr<EpochSnapshot> snapshot = emit_snapshot(stats);

  stats.wall_seconds = timer.seconds();
  stats.sim_seconds =
      (static_cast<double>(stats.distance_ops) / config_.titan.cpu_op_rate +
       fault_delay_s) *
      injector_.slow_factor(static_cast<std::uint32_t>(e));
  sim_seconds_total_ += stats.sim_seconds;
  epoch_ = e;

  // Mirror the epoch into the serve.* series.
  registry_.add(names::kServeEpochs);
  registry_.add(names::kServeInserts, stats.inserts);
  registry_.add(names::kServeRemoves, stats.removes);
  registry_.add(names::kServeRejected, stats.rejected);
  registry_.add(names::kServeReclusterPoints, stats.recluster_points);
  registry_.add(names::kServeDistanceOps, stats.distance_ops);
  registry_.add(names::kServeEdgeTests, stats.edge_tests);
  registry_.add(names::kServeRetries, stats.retries);
  registry_.observe(names::kServeEpochDirtyCells,
                    static_cast<double>(stats.dirty_cells));
  registry_.observe(names::kServeEpochReclusterPoints,
                    static_cast<double>(stats.recluster_points));
  registry_.observe(names::kServeEpochSeconds, stats.wall_seconds);
  registry_.set(names::kServePoints, static_cast<double>(live_.size()));
  registry_.set(names::kServeCells,
                static_cast<double>(grid_.cell_count()));
  registry_.set(names::kServeClusters,
                static_cast<double>(snapshot->clusters.size()));
  registry_.set(names::kServeSimSeconds, sim_seconds_total_);

  snapshot->stats = stats;
  publish(std::move(snapshot));
  return result;
}

std::vector<ClusterService::CellIndex> ClusterService::apply_pending(
    EpochStats& stats) {
  std::vector<CellIndex> dirty;
  std::vector<std::uint32_t> inserted;
  std::vector<Mutation> batch;
  batch.swap(pending_);
  for (const Mutation& m : batch) {
    if (m.kind == Mutation::Kind::kInsert) {
      if (!grid_.addressable(m.point) || live_.contains(m.point.id)) {
        ++stats.rejected;
        continue;
      }
      std::uint32_t slot;
      if (free_slots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
      } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
      }
      PointRec& rec = slots_[slot];
      rec = PointRec{};
      rec.point = m.point;
      rec.live = true;
      rec.cell = grid_.insert(grid_.key_of(m.point), m.point.id, slot);
      live_.emplace(m.point.id, slot);
      dirty.push_back(rec.cell);
      inserted.push_back(slot);
      ++stats.inserts;
    } else {
      const auto it = live_.find(m.point.id);
      if (it == live_.end()) {
        ++stats.rejected;
        continue;
      }
      PointRec& rec = slots_[it->second];
      grid_.remove(rec.cell, m.point.id);
      rec.live = false;
      free_slots_.push_back(it->second);
      dirty.push_back(rec.cell);
      live_.erase(it);
      ++stats.removes;
    }
  }

  // Keep order_ ascending by id. An entry is current while its slot holds
  // a live point with its id. A slot reused within the epoch is listed
  // twice in `inserted`, and a point removed and re-inserted may keep its
  // id and slot, so std::unique drops repeated entries.
  const auto stale = [&](const std::pair<geom::PointId, std::uint32_t>& e) {
    const PointRec& rec = slots_[e.second];
    return !rec.live || rec.point.id != e.first;
  };
  if (stats.removes > 0) std::erase_if(order_, stale);
  std::vector<std::pair<geom::PointId, std::uint32_t>> added;
  added.reserve(inserted.size());
  for (const std::uint32_t slot : inserted) {
    added.emplace_back(slots_[slot].point.id, slot);
  }
  std::erase_if(added, stale);
  std::sort(added.begin(), added.end());
  added.erase(std::unique(added.begin(), added.end()), added.end());
  const auto mid = order_.insert(order_.end(), added.begin(), added.end());
  if (mid != order_.begin() && mid != order_.end() &&
      std::prev(mid)->first >= mid->first) {
    std::inplace_merge(order_.begin(), mid, order_.end());
    order_.erase(std::unique(order_.begin(), order_.end()), order_.end());
  }

  sort_unique(dirty);
  return dirty;
}

std::vector<ClusterService::CellIndex> ClusterService::occupied_neighborhoods(
    std::span<const CellIndex> cells) const {
  std::vector<CellIndex> out;
  ScanCells scan;
  for (const CellIndex c : cells) {
    const std::size_t n = scan_cells(grid_, c, scan);
    // scan_cells lists c itself unconditionally; a vacated c is not.
    const std::size_t first = grid_.members(c).empty() ? 1 : 0;
    out.insert(out.end(), scan.begin() + first, scan.begin() + n);
  }
  sort_unique(out);
  return out;
}

std::uint64_t ClusterService::classify_core_cells(
    std::span<const CellIndex> affected,
    std::vector<CellIndex>& changed_core) {
  const std::size_t min_pts = config_.params.min_pts;
  std::vector<std::uint64_t> cell_ops(affected.size(), 0);

  // One task per cell: a worker writes only its own cell's members' core
  // flags and its own ops slot, and reads only point coordinates — the
  // determinism contract's disjoint-writes discipline (DESIGN §8).
  pool_.parallel_for(0, affected.size(), [&](std::size_t ci) {
    const CellIndex c = affected[ci];
    const auto members = grid_.members(c);
    if (members.size() >= min_pts) {
      // Wholesale rule: the cell diagonal is Eps/2, so all members are
      // mutually within Eps — core without a single distance test.
      for (const auto& member : members) slots_[member.slot].core = true;
      return;
    }
    // Exact early-exit count over the ring-3 neighbourhood (self first —
    // dist 0 counts the point itself, matching DbscanParams' inclusive
    // MinPts).
    ScanCells scan;
    const std::size_t scan_count = scan_cells(grid_, c, scan);
    std::uint64_t ops = 0;
    for (const auto& member : members) {
      const geom::Point& p = slots_[member.slot].point;
      std::size_t found = 0;
      for (std::size_t s = 0; s < scan_count && found < min_pts; ++s) {
        for (const auto& candidate : grid_.members(scan[s])) {
          ++ops;
          if (geom::dist2(p, slots_[candidate.slot].point) <= eps2_) {
            if (++found >= min_pts) break;
          }
        }
      }
      slots_[member.slot].core = found >= min_pts;
    }
    cell_ops[ci] = ops;
  });

  // Post-barrier reductions: op totals, and each cell's core list, box
  // and fingerprint, whose change marks the cell changed_core.
  std::uint64_t total_ops = 0;
  for (std::size_t ci = 0; ci < affected.size(); ++ci) {
    total_ops += cell_ops[ci];
    auto& cell = grid_.cell(affected[ci]);
    const bool had_core = !cell.core_slots.empty();
    const std::uint64_t old_fp = cell.core_fp;
    cell.core_slots.clear();
    cell.core_bbox = geom::BBox{};
    // FNV-1a over the ascending core-member ids: a changed fingerprint
    // is how an epoch detects a core-membership change.
    cell.core_fp = util::kFnvOffsetBasis;
    for (const auto& member : cell.members) {
      const PointRec& rec = slots_[member.slot];
      if (!rec.core) continue;
      cell.core_fp = util::fnv1a_u64(member.id, cell.core_fp);
      cell.core_slots.push_back(member.slot);
      cell.core_bbox.expand(rec.point);
    }
    const bool has_core = !cell.core_slots.empty();
    if (had_core != has_core || (has_core && cell.core_fp != old_fp)) {
      changed_core.push_back(affected[ci]);
    }
  }
  return total_ops;
}

void ClusterService::connect(std::span<const CellIndex> changed_core,
                             EpochStats& stats) {
  // A cached BCP outcome is a function of the two cells' core-member
  // sets, so exactly the pairs touching a changed cell are dropped. Their
  // links are remembered first (before any neighbour clears its side) to
  // tell afterwards which links did not come back.
  std::vector<std::uint64_t> old_linked(changed_core.size());
  for (std::size_t i = 0; i < changed_core.size(); ++i) {
    old_linked[i] = grid_.cell(changed_core[i]).linked;
  }
  std::vector<std::uint32_t> split;
  for (std::size_t i = 0; i < changed_core.size(); ++i) {
    const CellIndex c = changed_core[i];
    auto& cell = grid_.cell(c);
    for (std::uint64_t bits = cell.tested; bits != 0; bits &= bits - 1) {
      const int k = std::countr_zero(bits);
      auto& other = grid_.cell(grid_.neighbor(c, k));
      const std::uint64_t back = ~(std::uint64_t{1}
                                   << cluster::reverse_offset(k));
      other.tested &= back;
      other.linked &= back;
    }
    cell.tested = 0;
    cell.linked = 0;
    const std::uint32_t component = grid_.component(c);
    if (cell.core_slots.empty()) {
      // A core cell disappeared. A linked cell shared its component with
      // others, which may now fall apart; an unlinked one was alone.
      MRSCAN_ASSERT(component != kNone);
      if (old_linked[i] != 0) {
        split.push_back(component);
      } else {
        components_[component].clear();
        free_components_.push_back(component);
      }
      grid_.set_component(c, kNone);
    } else if (component == kNone) {
      const std::uint32_t fresh = new_component();
      grid_.set_component(c, fresh);
      components_[fresh].push_back(c);
    }
  }

  // Re-test every core-core pair touching a changed core cell, each pair
  // once, with the lower-code cell as the first BCP operand — the shared
  // cluster::bcp_within_eps kernel behind the core-bbox Eps prefilter.
  std::vector<std::pair<CellIndex, CellIndex>> links;
  std::uint64_t edge_ops = 0;
  for (const CellIndex c : changed_core) {
    auto& cell = grid_.cell(c);
    if (cell.core_slots.empty()) continue;
    for (int k = 0; k < kRingCells; ++k) {
      if ((cell.tested >> k) & 1u) continue;
      const CellIndex n = grid_.neighbor(c, k);
      if (n == kNone) continue;
      auto& other = grid_.cell(n);
      if (other.core_slots.empty()) continue;
      const auto& a = cell.code < other.code ? cell : other;
      const auto& b = cell.code < other.code ? other : cell;
      bool linked = false;
      if (cluster::box_gap2(a.core_bbox, b.core_bbox) <= eps2_) {
        linked = cluster::bcp_within_eps(
            a.core_slots.size(), b.core_slots.size(),
            [&](std::size_t i) -> const geom::Point& {
              return slots_[a.core_slots[i]].point;
            },
            [&](std::size_t j) -> const geom::Point& {
              return slots_[b.core_slots[j]].point;
            },
            eps2_, edge_ops);
      }
      ++stats.edge_tests;
      const std::uint64_t bit = std::uint64_t{1} << k;
      const std::uint64_t back = std::uint64_t{1}
                                 << cluster::reverse_offset(k);
      cell.tested |= bit;
      other.tested |= back;
      if (linked) {
        cell.linked |= bit;
        other.linked |= back;
        links.emplace_back(c, n);
      }
    }
  }
  stats.distance_ops += edge_ops;

  // A changed cell that lost a link may have split its component.
  for (std::size_t i = 0; i < changed_core.size(); ++i) {
    const auto& cell = grid_.cell(changed_core[i]);
    if (!cell.core_slots.empty() && (old_linked[i] & ~cell.linked) != 0) {
      split.push_back(grid_.component(changed_core[i]));
    }
  }
  sort_unique(split);
  for (const std::uint32_t component : split) reflood(component);
  // Links within one old component were followed by the re-flood; links
  // across components merge them.
  for (const auto& [a, b] : links) unite(a, b);
}

std::uint32_t ClusterService::new_component() {
  if (free_components_.empty()) {
    components_.emplace_back();
    return static_cast<std::uint32_t>(components_.size() - 1);
  }
  const std::uint32_t id = free_components_.back();
  free_components_.pop_back();
  return id;
}

void ClusterService::reflood(std::uint32_t component) {
  // The component's remaining core cells fall into the pieces its linked
  // masks still connect. Links to other components are new this epoch
  // and are left to unite(); the flood stays inside `component`. The
  // first piece keeps the id.
  constexpr std::uint32_t kFlooding = kNone - 1;
  std::vector<CellIndex> cells;
  cells.swap(components_[component]);
  for (const CellIndex c : cells) {
    if (grid_.component(c) == component) grid_.set_component(c, kFlooding);
  }
  bool first = true;
  std::vector<CellIndex> stack;
  for (const CellIndex seed : cells) {
    if (grid_.component(seed) != kFlooding) continue;
    const std::uint32_t id = first ? component : new_component();
    first = false;
    grid_.set_component(seed, id);
    components_[id].push_back(seed);
    stack.push_back(seed);
    while (!stack.empty()) {
      const CellIndex c = stack.back();
      stack.pop_back();
      for (std::uint64_t bits = grid_.cell(c).linked; bits != 0;
           bits &= bits - 1) {
        const CellIndex n = grid_.neighbor(c, std::countr_zero(bits));
        if (grid_.component(n) != kFlooding) continue;
        grid_.set_component(n, id);
        components_[id].push_back(n);
        stack.push_back(n);
      }
    }
  }
  if (first) free_components_.push_back(component);
}

void ClusterService::unite(CellIndex a, CellIndex b) {
  std::uint32_t keep = grid_.component(a);
  std::uint32_t gone = grid_.component(b);
  if (keep == gone) return;
  if (components_[keep].size() < components_[gone].size()) {
    std::swap(keep, gone);
  }
  std::vector<CellIndex> moved;
  moved.swap(components_[gone]);
  for (const CellIndex c : moved) grid_.set_component(c, keep);
  components_[keep].insert(components_[keep].end(), moved.begin(),
                           moved.end());
  free_components_.push_back(gone);
}

std::uint64_t ClusterService::recompute_anchors(
    std::span<const CellIndex> region) {
  std::vector<std::uint64_t> cell_ops(region.size(), 0);

  pool_.parallel_for(0, region.size(), [&](std::size_t ci) {
    const CellIndex c = region[ci];
    const auto& cell = grid_.cell(c);
    if (cell.members.size() == cell.core_slots.size()) return;  // no border
    ScanCells scan;
    const std::size_t scan_count = scan_cells(grid_, c, scan);
    std::uint64_t ops = 0;
    for (const auto& member : cell.members) {
      PointRec& rec = slots_[member.slot];
      if (rec.core) continue;
      geom::PointId best = 0;
      CellIndex best_cell = 0;
      bool has_best = false;
      for (std::size_t s = 0; s < scan_count; ++s) {
        // Core members are ascending by id, so within one cell the first
        // core point inside Eps is that cell's lowest-id candidate — scan
        // the rest of the cell only while no hit has been found.
        for (const std::uint32_t cand : grid_.cell(scan[s]).core_slots) {
          const geom::Point& q = slots_[cand].point;
          if (has_best && q.id >= best) break;
          ++ops;
          if (geom::dist2(rec.point, q) <= eps2_) {
            best = q.id;
            best_cell = scan[s];
            has_best = true;
            break;
          }
        }
      }
      rec.anchor_cell = best_cell;
      rec.has_anchor = has_best;
    }
    cell_ops[ci] = ops;
  });

  std::uint64_t total_ops = 0;
  for (const std::uint64_t ops : cell_ops) total_ops += ops;
  return total_ops;
}

std::shared_ptr<EpochSnapshot> ClusterService::emit_snapshot(
    EpochStats& stats) const {
  // One sequential pass over the live set in id order. Labels number
  // components by first appearance, so they are canonical whatever ids
  // the components happen to carry.
  auto snapshot = std::make_shared<EpochSnapshot>();
  snapshot->epoch = stats.epoch;
  snapshot->points.reserve(order_.size());
  snapshot->labels.reserve(order_.size());
  snapshot->core.reserve(order_.size());
  std::vector<dbscan::ClusterId> canonical(components_.size(),
                                           dbscan::kNoise);
  for (const auto& [id, slot] : order_) {
    const PointRec& rec = slots_[slot];
    std::uint32_t component = kNone;
    if (rec.core) {
      component = grid_.component(rec.cell);
    } else if (rec.has_anchor) {
      component = grid_.component(rec.anchor_cell);
      MRSCAN_ASSERT(component != kNone);
    }
    dbscan::ClusterId label = dbscan::kNoise;
    if (component != kNone) {
      label = canonical[component];
      if (label == dbscan::kNoise) {
        label = static_cast<dbscan::ClusterId>(snapshot->clusters.size());
        canonical[component] = label;
        snapshot->clusters.emplace_back();
      }
      ClusterStats& cs = snapshot->clusters[static_cast<std::size_t>(label)];
      ++cs.size;
      if (rec.core) ++cs.core_points;
      cs.weight += rec.point.weight;
      cs.bbox.expand(rec.point);
    }
    snapshot->points.push_back(rec.point);
    snapshot->labels.push_back(label);
    snapshot->core.push_back(rec.core ? 1 : 0);
  }
  stats.live_points = order_.size();
  stats.clusters = snapshot->clusters.size();
  return snapshot;
}

void ClusterService::publish(
    std::shared_ptr<const EpochSnapshot> snapshot) {
  Retired retired;  // destroyed after the lock is released
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  published_.push_back(Entry{next_serial_++, std::move(snapshot), 0});
  drain_retired_locked(retired);
  registry_.set(names::kServePinnedEpochs,
                static_cast<double>(published_.size() - 1));
}

void ClusterService::drain_retired_locked(Retired& retired) const {
  // Epoch-based reclamation: a retired snapshot (anything but the back)
  // is freed once its last reader drops. A pin holds only its own entry,
  // so the retired depth is bounded by the number of pinned epochs, not
  // by the age of the oldest reader. The dropped snapshots move to
  // `retired`, which the caller destroys outside snapshot_mutex_, so
  // readers never wait on the frees.
  for (auto it = published_.begin(); it + 1 != published_.end();) {
    if (it->pins == 0) {
      retired.push_back(std::move(it->snapshot));
      it = published_.erase(it);
    } else {
      ++it;
    }
  }
}

void ClusterService::unpin(std::size_t serial) const {
  Retired retired;  // destroyed after the lock is released
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  for (Entry& entry : published_) {
    if (entry.serial == serial) {
      MRSCAN_ASSERT(entry.pins > 0);
      --entry.pins;
      break;
    }
  }
  drain_retired_locked(retired);
}

ClusterService::SnapshotGuard::SnapshotGuard(SnapshotGuard&& other) noexcept
    : service_(other.service_),
      entry_(other.entry_),
      snapshot_(other.snapshot_) {
  other.service_ = nullptr;
  other.snapshot_ = nullptr;
}

ClusterService::SnapshotGuard::~SnapshotGuard() {
  if (service_ != nullptr) service_->unpin(entry_);
}

ClusterService::SnapshotGuard ClusterService::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  Entry& current = published_.back();
  ++current.pins;
  return SnapshotGuard(this, current.serial, current.snapshot.get());
}

std::optional<dbscan::ClusterId> ClusterService::label_of(
    geom::PointId id) const {
  util::Timer timer;
  const SnapshotGuard guard = snapshot();
  const auto label = guard->label_of(id);
  registry_.add(names::kServeQueries);
  registry_.observe(names::kServeQuerySeconds, timer.seconds());
  return label;
}

std::optional<ClusterStats> ClusterService::cluster_stats(
    dbscan::ClusterId cluster) const {
  util::Timer timer;
  const SnapshotGuard guard = snapshot();
  std::optional<ClusterStats> stats;
  if (cluster >= 0 &&
      static_cast<std::size_t>(cluster) < guard->clusters.size()) {
    stats = guard->clusters[static_cast<std::size_t>(cluster)];
  }
  registry_.add(names::kServeQueries);
  registry_.observe(names::kServeQuerySeconds, timer.seconds());
  return stats;
}

std::uint64_t ClusterService::epoch() const { return epoch_; }

std::size_t ClusterService::live_points() const { return live_.size(); }

std::size_t ClusterService::pending_mutations() const {
  return pending_.size();
}

}  // namespace mrscan::serve
