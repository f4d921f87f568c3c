// Incremental SA placement core (the placer's analogue of route/RouterCore).
//
// The reference placer pays, per proposal: a full Placement copy, an
// O(nets) energy recomputation with footprint/center rebuilds, an O(n^2)
// pairwise rescan for the compaction term, and an O(n) legality scan.
// PlacerCore keeps the bound placement hot instead:
//
//  - per-net Manhattan distances (`mdis`, exact ints) and the all-pairs
//    center distance (`D`, an exact long) are maintained incrementally —
//    a move touches only the nets incident to the moved component(s) and
//    an O(n) distance delta;
//  - proposals mutate one or two PlacedComponent slots in place and roll
//    back on reject (the anneal_moves protocol in sa_engine.hpp) — no
//    Placement copies;
//  - legality is answered by an occupancy grid (cell -> component id):
//    a probe reads only the inflated footprint's cells instead of
//    scanning every component.
//
// Bit-identity with the reference is by construction, not by tolerance:
// because mdis and D are integers, the candidate energy is re-summed per
// evaluation in fixed net order with the same expression shape as
// placement_energy — identical doubles, so identical accept decisions and
// identical RNG consumption. tests/placer_equivalence_test.cpp asserts
// this end-to-end on all seven paper benchmarks.

#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "biochip/chip_spec.hpp"
#include "biochip/component_library.hpp"
#include "place/connection_priority.hpp"
#include "place/placement.hpp"
#include "util/fields.hpp"
#include "util/geometry.hpp"
#include "util/rng.hpp"

namespace fbmb {

/// Weight of the small all-pairs compaction term added to Eq. 3, so
/// components with no (or weak) nets do not drift to the chip rim and
/// stretch channels: energy += kCompactionWeight * total pairwise
/// Manhattan distance.
inline constexpr double kCompactionWeight = 0.1;

/// Placement search counters, accumulated across restarts and (in the
/// runtime engine) across jobs. The reference placer keeps none, mirroring
/// route_transports_reference.
struct PlaceStats {
  std::uint64_t proposals = 0;         ///< SA moves proposed
  std::uint64_t accepts = 0;           ///< moves committed (SA + polish)
  std::uint64_t delta_evals = 0;       ///< incremental energy evaluations
  std::uint64_t full_evals = 0;        ///< full rebuilds (one per bind)
  std::uint64_t occupancy_probes = 0;  ///< occupancy-grid legality probes

  /// Every counter above, as {JSON key, member} (util/fields.hpp).
  static constexpr Field<PlaceStats, std::uint64_t> kFields[] = {
      {"proposals", &PlaceStats::proposals},
      {"accepts", &PlaceStats::accepts},
      {"delta_evals", &PlaceStats::delta_evals},
      {"full_evals", &PlaceStats::full_evals},
      {"occupancy_probes", &PlaceStats::occupancy_probes},
  };

  PlaceStats& operator+=(const PlaceStats& o) { return add_fields(*this, o); }
  friend bool operator==(const PlaceStats&, const PlaceStats&) = default;
};

/// Dense grid of cell -> component id (-1 = free). Footprints of a legal
/// placement are disjoint, so each cell has at most one owner.
class OccupancyIndex {
 public:
  OccupancyIndex(int width, int height)
      : width_(width),
        height_(height),
        cells_(static_cast<std::size_t>(width) *
                   static_cast<std::size_t>(height),
               -1) {}

  /// Marks `fp`'s cells (must be in bounds and currently free).
  void insert(const Rect& fp, int id) {
    for (int y = fp.bottom(); y < fp.top(); ++y) {
      for (int x = fp.left(); x < fp.right(); ++x) {
        cells_[index(x, y)] = id;
      }
    }
  }

  /// Frees `fp`'s cells (must currently belong to `id`).
  void remove(const Rect& fp, int id) {
    (void)id;
    for (int y = fp.bottom(); y < fp.top(); ++y) {
      for (int x = fp.left(); x < fp.right(); ++x) {
        cells_[index(x, y)] = -1;
      }
    }
  }

  /// True iff any cell of `region` (clamped to the grid) is owned by a
  /// component other than `ignore_a` / `ignore_b`. Pass the inflated
  /// footprint: spacing violations show up as occupied margin cells.
  bool occupied(const Rect& region, int ignore_a = -1,
                int ignore_b = -1) const {
    const int x0 = std::max(region.left(), 0);
    const int x1 = std::min(region.right(), width_);
    const int y0 = std::max(region.bottom(), 0);
    const int y1 = std::min(region.top(), height_);
    for (int y = y0; y < y1; ++y) {
      const std::size_t row = static_cast<std::size_t>(y) *
                              static_cast<std::size_t>(width_);
      for (int x = x0; x < x1; ++x) {
        const int id = cells_[row + static_cast<std::size_t>(x)];
        if (id >= 0 && id != ignore_a && id != ignore_b) return true;
      }
    }
    return false;
  }

 private:
  std::size_t index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(x);
  }

  int width_ = 0;
  int height_ = 0;
  std::vector<int> cells_;
};

/// The incremental move/undo model driven by anneal_moves. One instance
/// per SA restart (restarts may run concurrently; the core shares only
/// const inputs). Protocol per proposal: propose() either returns nullopt
/// with the state untouched, or tentatively applies a move and returns the
/// candidate energy; the caller must then commit() or revert() before the
/// next propose().
class PlacerCore {
 public:
  /// `nets` must outlive the core. Net order fixes the energy summation
  /// order and therefore the exact double produced.
  PlacerCore(const Allocation& allocation, const ChipSpec& spec,
             const std::vector<Net>& nets);

  /// Adopts a legal placement: rebuilds centers, per-net distances, the
  /// pairwise-distance total, and the occupancy grid (one full_eval).
  void bind(Placement placement);

  /// Energy of the bound state — identical double to placement_energy on
  /// the same placement.
  double energy() const { return energy_sum(); }

  /// Draw-compatible with the reference proposal kernel: same RNG
  /// consumption, same feasibility outcomes, same candidate energies.
  std::optional<double> propose(Rng& rng);

  /// Keeps the tentative move (updates the occupancy grid).
  void commit();

  /// Rolls the tentative move back.
  void revert();

  const Placement& state() const { return placement_; }

  /// Greedy polish: unit slides / rotations committed while the energy
  /// strictly drops. Decision-identical to the reference polish loop but
  /// every trial is a delta evaluation. Returns the final energy.
  double polish();

  const PlaceStats& stats() const { return stats_; }

 private:
  /// Tentatively moves `id` to `next`; nullopt (state untouched) if the
  /// move is illegal.
  std::optional<double> try_single(ComponentId id,
                                   const PlacedComponent& next);
  void begin_single(ComponentId id, const PlacedComponent& next,
                    const Rect& new_fp);
  void begin_pair(ComponentId target, const PlacedComponent& next_t,
                  const Rect& fp_t, ComponentId other,
                  const PlacedComponent& next_o, const Rect& fp_o);
  double energy_sum() const;
  Rect footprint_of(int id, const PlacedComponent& pc) const {
    const int w = pc.rotated ? base_h_[static_cast<std::size_t>(id)]
                             : base_w_[static_cast<std::size_t>(id)];
    const int h = pc.rotated ? base_w_[static_cast<std::size_t>(id)]
                             : base_h_[static_cast<std::size_t>(id)];
    return {pc.origin.x, pc.origin.y, w, h};
  }

  struct SavedNet {
    int index;
    int mdis;
  };
  struct SavedComp {
    int id;
    PlacedComponent placed;
    int cx, cy;
    Rect old_fp;
    Rect new_fp;
  };

  const Allocation* allocation_;
  const std::vector<Net>* nets_;
  Rect chip_;
  int spacing_ = 0;
  int n_ = 0;

  std::vector<int> base_w_, base_h_;    // unrotated dims per component id
  std::vector<int> net_a_, net_b_;      // net endpoints as raw ids
  std::vector<double> pri_;             // net priorities, in net order
  std::vector<std::vector<int>> incidence_;  // component id -> net indices

  Placement placement_;
  std::vector<int> cx_, cy_;            // footprint centers per component
  std::vector<Rect> committed_fp_;      // footprints backing the grid
  std::vector<int> mdis_;               // per-net Manhattan distance
  long total_distance_ = 0;             // all-pairs center distance
  OccupancyIndex occupancy_;

  // Tentative-move undo record.
  bool pending_ = false;
  int pending_count_ = 0;
  SavedComp pending_comps_[2];
  std::vector<SavedNet> pending_nets_;
  long saved_total_distance_ = 0;

  PlaceStats stats_;
};

}  // namespace fbmb
