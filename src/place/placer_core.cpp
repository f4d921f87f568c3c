#include "place/placer_core.hpp"

#include <cmath>
#include <cstdlib>
#include <utility>

namespace fbmb {

PlacerCore::PlacerCore(const Allocation& allocation, const ChipSpec& spec,
                       const std::vector<Net>& nets)
    : allocation_(&allocation),
      nets_(&nets),
      chip_{0, 0, spec.grid_width, spec.grid_height},
      spacing_(spec.component_spacing),
      n_(static_cast<int>(allocation.size())),
      base_w_(allocation.size()),
      base_h_(allocation.size()),
      incidence_(allocation.size()),
      cx_(allocation.size()),
      cy_(allocation.size()),
      committed_fp_(allocation.size()),
      occupancy_(spec.grid_width, spec.grid_height) {
  for (const auto& comp : allocation.components()) {
    const auto slot = static_cast<std::size_t>(comp.id.value);
    base_w_[slot] = comp.width;
    base_h_[slot] = comp.height;
  }
  net_a_.reserve(nets.size());
  net_b_.reserve(nets.size());
  pri_.reserve(nets.size());
  mdis_.assign(nets.size(), 0);
  for (std::size_t k = 0; k < nets.size(); ++k) {
    net_a_.push_back(nets[k].a.value);
    net_b_.push_back(nets[k].b.value);
    pri_.push_back(nets[k].priority);
    incidence_[static_cast<std::size_t>(nets[k].a.value)].push_back(
        static_cast<int>(k));
    incidence_[static_cast<std::size_t>(nets[k].b.value)].push_back(
        static_cast<int>(k));
  }
  pending_nets_.reserve(nets.size());
}

void PlacerCore::bind(Placement placement) {
  placement_ = std::move(placement);
  occupancy_ = OccupancyIndex(chip_.width, chip_.height);
  for (int i = 0; i < n_; ++i) {
    const auto slot = static_cast<std::size_t>(i);
    const Rect fp = footprint_of(i, placement_.at(ComponentId{i}));
    committed_fp_[slot] = fp;
    const Point c = fp.center();
    cx_[slot] = c.x;
    cy_[slot] = c.y;
    occupancy_.insert(fp, i);
  }
  for (std::size_t k = 0; k < mdis_.size(); ++k) {
    const auto a = static_cast<std::size_t>(net_a_[k]);
    const auto b = static_cast<std::size_t>(net_b_[k]);
    mdis_[k] = std::abs(cx_[a] - cx_[b]) + std::abs(cy_[a] - cy_[b]);
  }
  total_distance_ = 0;
  for (int i = 0; i < n_; ++i) {
    for (int j = i + 1; j < n_; ++j) {
      const auto si = static_cast<std::size_t>(i);
      const auto sj = static_cast<std::size_t>(j);
      total_distance_ +=
          std::abs(cx_[si] - cx_[sj]) + std::abs(cy_[si] - cy_[sj]);
    }
  }
  pending_ = false;
  pending_count_ = 0;
  ++stats_.full_evals;
}

double PlacerCore::energy_sum() const {
  // Same summation order and expression shape as placement_energy, over
  // the same exact integers — bit-identical doubles.
  double energy = 0.0;
  for (std::size_t k = 0; k < mdis_.size(); ++k) {
    energy += static_cast<double>(mdis_[k]) * pri_[k];
  }
  energy += kCompactionWeight * static_cast<double>(total_distance_);
  return energy;
}

void PlacerCore::begin_single(ComponentId id, const PlacedComponent& next,
                              const Rect& new_fp) {
  const int i = id.value;
  const auto si = static_cast<std::size_t>(i);
  pending_ = true;
  pending_count_ = 1;
  saved_total_distance_ = total_distance_;
  pending_nets_.clear();
  pending_comps_[0] = {i, placement_.at(id), cx_[si], cy_[si],
                       committed_fp_[si], new_fp};

  const Point nc = new_fp.center();
  long delta = 0;
  for (int j = 0; j < n_; ++j) {
    if (j == i) continue;
    const auto sj = static_cast<std::size_t>(j);
    delta += std::abs(nc.x - cx_[sj]) + std::abs(nc.y - cy_[sj]);
    delta -= std::abs(cx_[si] - cx_[sj]) + std::abs(cy_[si] - cy_[sj]);
  }
  total_distance_ += delta;

  placement_.at(id) = next;
  cx_[si] = nc.x;
  cy_[si] = nc.y;
  for (const int k : incidence_[si]) {
    const auto sk = static_cast<std::size_t>(k);
    pending_nets_.push_back({k, mdis_[sk]});
    const auto a = static_cast<std::size_t>(net_a_[sk]);
    const auto b = static_cast<std::size_t>(net_b_[sk]);
    mdis_[sk] = std::abs(cx_[a] - cx_[b]) + std::abs(cy_[a] - cy_[b]);
  }
}

void PlacerCore::begin_pair(ComponentId target, const PlacedComponent& next_t,
                            const Rect& fp_t, ComponentId other,
                            const PlacedComponent& next_o, const Rect& fp_o) {
  const int i = target.value;
  const int j = other.value;
  const auto si = static_cast<std::size_t>(i);
  const auto sj = static_cast<std::size_t>(j);
  pending_ = true;
  pending_count_ = 2;
  saved_total_distance_ = total_distance_;
  pending_nets_.clear();
  pending_comps_[0] = {i, placement_.at(target), cx_[si], cy_[si],
                       committed_fp_[si], fp_t};
  pending_comps_[1] = {j, placement_.at(other), cx_[sj], cy_[sj],
                       committed_fp_[sj], fp_o};

  const Point nt = fp_t.center();
  const Point no = fp_o.center();
  long delta = 0;
  for (int m = 0; m < n_; ++m) {
    if (m == i || m == j) continue;
    const auto sm = static_cast<std::size_t>(m);
    delta += std::abs(nt.x - cx_[sm]) + std::abs(nt.y - cy_[sm]);
    delta -= std::abs(cx_[si] - cx_[sm]) + std::abs(cy_[si] - cy_[sm]);
    delta += std::abs(no.x - cx_[sm]) + std::abs(no.y - cy_[sm]);
    delta -= std::abs(cx_[sj] - cx_[sm]) + std::abs(cy_[sj] - cy_[sm]);
  }
  delta += std::abs(nt.x - no.x) + std::abs(nt.y - no.y);
  delta -= std::abs(cx_[si] - cx_[sj]) + std::abs(cy_[si] - cy_[sj]);
  total_distance_ += delta;

  placement_.at(target) = next_t;
  placement_.at(other) = next_o;
  cx_[si] = nt.x;
  cy_[si] = nt.y;
  cx_[sj] = no.x;
  cy_[sj] = no.y;
  for (const int k : incidence_[si]) {
    const auto sk = static_cast<std::size_t>(k);
    pending_nets_.push_back({k, mdis_[sk]});
    const auto a = static_cast<std::size_t>(net_a_[sk]);
    const auto b = static_cast<std::size_t>(net_b_[sk]);
    mdis_[sk] = std::abs(cx_[a] - cx_[b]) + std::abs(cy_[a] - cy_[b]);
  }
  for (const int k : incidence_[sj]) {
    const auto sk = static_cast<std::size_t>(k);
    // Nets joining target and other were already refreshed above; saving
    // them twice would record the refreshed value as "old".
    if (net_a_[sk] == i || net_b_[sk] == i) continue;
    pending_nets_.push_back({k, mdis_[sk]});
    const auto a = static_cast<std::size_t>(net_a_[sk]);
    const auto b = static_cast<std::size_t>(net_b_[sk]);
    mdis_[sk] = std::abs(cx_[a] - cx_[b]) + std::abs(cy_[a] - cy_[b]);
  }
}

std::optional<double> PlacerCore::try_single(ComponentId id,
                                             const PlacedComponent& next) {
  const Rect fp = footprint_of(id.value, next);
  if (!chip_.contains(fp)) return std::nullopt;
  ++stats_.occupancy_probes;
  if (occupancy_.occupied(fp.inflated(spacing_), id.value)) {
    return std::nullopt;
  }
  begin_single(id, next, fp);
  ++stats_.delta_evals;
  return energy_sum();
}

std::optional<double> PlacerCore::propose(Rng& rng) {
  ++stats_.proposals;
  const int n = n_;
  const ComponentId target{rng.uniform_int(0, n - 1)};
  const int kind = n >= 2 ? rng.uniform_int(0, 3) : rng.uniform_int(0, 2);
  switch (kind) {
    case 0: {  // translate to a random origin
      const PlacedComponent& pc = placement_.at(target);
      const auto slot = static_cast<std::size_t>(target.value);
      const int w = pc.rotated ? base_h_[slot] : base_w_[slot];
      const int h = pc.rotated ? base_w_[slot] : base_h_[slot];
      if (chip_.width - w < 0 || chip_.height - h < 0) {
        return std::nullopt;
      }
      const PlacedComponent next{{rng.uniform_int(0, chip_.width - w),
                                  rng.uniform_int(0, chip_.height - h)},
                                 pc.rotated};
      return try_single(target, next);
    }
    case 1: {  // local nudge: low-temperature refinement moves
      const PlacedComponent& pc = placement_.at(target);
      const PlacedComponent next{
          {pc.origin.x + rng.uniform_int(-3, 3),
           pc.origin.y + rng.uniform_int(-3, 3)},
          pc.rotated};
      return try_single(target, next);
    }
    case 2: {  // rotate 90 degrees
      const PlacedComponent& pc = placement_.at(target);
      return try_single(target, {pc.origin, !pc.rotated});
    }
    default: {  // swap origins with another component
      const ComponentId other{rng.uniform_int(0, n - 1)};
      if (other == target) return std::nullopt;
      const PlacedComponent& tc = placement_.at(target);
      const PlacedComponent& oc = placement_.at(other);
      const PlacedComponent next_t{oc.origin, tc.rotated};
      const PlacedComponent next_o{tc.origin, oc.rotated};
      const Rect fp_t = footprint_of(target.value, next_t);
      const Rect fp_o = footprint_of(other.value, next_o);
      if (!chip_.contains(fp_o) || !chip_.contains(fp_t)) {
        return std::nullopt;
      }
      ++stats_.occupancy_probes;
      if (occupancy_.occupied(fp_o.inflated(spacing_), other.value,
                              target.value)) {
        return std::nullopt;
      }
      ++stats_.occupancy_probes;
      if (occupancy_.occupied(fp_t.inflated(spacing_), target.value,
                              other.value)) {
        return std::nullopt;
      }
      // The two moved footprints are absent from the grid probes above and
      // must be checked against each other directly.
      if (fp_t.inflated(spacing_).overlaps(fp_o)) return std::nullopt;
      begin_pair(target, next_t, fp_t, other, next_o, fp_o);
      ++stats_.delta_evals;
      return energy_sum();
    }
  }
}

void PlacerCore::commit() {
  for (int c = 0; c < pending_count_; ++c) {
    occupancy_.remove(pending_comps_[c].old_fp, pending_comps_[c].id);
  }
  for (int c = 0; c < pending_count_; ++c) {
    occupancy_.insert(pending_comps_[c].new_fp, pending_comps_[c].id);
    committed_fp_[static_cast<std::size_t>(pending_comps_[c].id)] =
        pending_comps_[c].new_fp;
  }
  pending_ = false;
  pending_count_ = 0;
  ++stats_.accepts;
}

void PlacerCore::revert() {
  for (const SavedNet& saved : pending_nets_) {
    mdis_[static_cast<std::size_t>(saved.index)] = saved.mdis;
  }
  for (int c = 0; c < pending_count_; ++c) {
    const SavedComp& saved = pending_comps_[c];
    const auto slot = static_cast<std::size_t>(saved.id);
    placement_.at(ComponentId{saved.id}) = saved.placed;
    cx_[slot] = saved.cx;
    cy_[slot] = saved.cy;
  }
  total_distance_ = saved_total_distance_;
  pending_ = false;
  pending_count_ = 0;
}

double PlacerCore::polish() {
  // Decision-identical to the reference polish: same visit order, same
  // strict-improvement threshold, same "best trial vs saved" bookkeeping;
  // only the per-trial evaluation is incremental.
  bool improved = true;
  double e_best = energy_sum();
  while (improved) {
    improved = false;
    for (const auto& comp : allocation_->components()) {
      const PlacedComponent saved = placement_.at(comp.id);
      PlacedComponent trial_best = saved;
      const Point deltas[4] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
      for (int rot = 0; rot < 2; ++rot) {
        for (const Point& d : deltas) {
          const PlacedComponent next{
              saved.origin + d, rot == 1 ? !saved.rotated : saved.rotated};
          const std::optional<double> e = try_single(comp.id, next);
          if (!e) continue;
          if (*e < e_best - 1e-12) {
            e_best = *e;
            trial_best = next;
            improved = true;
          }
          revert();
        }
      }
      if (trial_best.origin != saved.origin ||
          trial_best.rotated != saved.rotated) {
        if (try_single(comp.id, trial_best)) commit();
      }
    }
  }
  return e_best;
}

}  // namespace fbmb
