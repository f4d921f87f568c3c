// Half-open time intervals and ordered interval sets.
//
// The router associates every grid cell with a set of occupation time slots
// (st, et) (Section IV-B2). Two transportation tasks conflict on a cell iff
// their slots overlap; Eq. (5) prices a cell at +inf in that case. Intervals
// are half-open [start, end) so that a task ending at t and another starting
// at t do not conflict.

#pragma once

#include <algorithm>
#include <iosfwd>
#include <string>
#include <vector>

namespace fbmb {

/// Half-open time interval [start, end), in seconds.
struct TimeInterval {
  double start = 0.0;
  double end = 0.0;

  friend auto operator<=>(const TimeInterval&, const TimeInterval&) = default;

  double duration() const { return end - start; }
  bool empty() const { return end <= start; }

  bool overlaps(const TimeInterval& o) const {
    return start < o.end && o.start < end;
  }

  bool contains(double t) const { return t >= start && t < end; }
};

std::string to_string(const TimeInterval& iv);
std::ostream& operator<<(std::ostream& os, const TimeInterval& iv);

/// An ordered set of disjoint-or-touching half-open intervals supporting
/// overlap queries and insertion. Insertion keeps intervals sorted by start;
/// overlapping inserts are allowed only through insert_merged (used by
/// bookkeeping that tolerates overlap, e.g. residue history), while
/// insert_disjoint asserts the new interval conflicts with nothing.
class IntervalSet {
 public:
  bool empty() const { return intervals_.empty(); }
  std::size_t size() const { return intervals_.size(); }
  const std::vector<TimeInterval>& intervals() const { return intervals_; }

  /// True iff `iv` overlaps any stored interval. Inline, with no search
  /// on an empty set: the router asks it of every cell it probes.
  bool overlaps(const TimeInterval& iv) const {
    if (intervals_.empty() || iv.empty()) return false;
    const auto it = first_candidate(iv);
    return it != intervals_.end() && it->overlaps(iv);
  }

  /// Inserts an interval that must not overlap existing content.
  /// Returns false (and leaves the set unchanged) if it would overlap.
  bool insert_disjoint(const TimeInterval& iv);

  /// Inserts an interval, merging it with any overlapping/touching ones.
  void insert_merged(TimeInterval iv);

  /// Earliest time >= `from` at which a slot of length `duration` fits.
  double earliest_fit(double from, double duration) const;

  /// Empties the set and keeps its storage.
  void clear() { intervals_.clear(); }

 private:
  /// The first stored interval whose end is > iv.start, i.e. the first
  /// one that could overlap [iv.start, iv.end).
  std::vector<TimeInterval>::const_iterator first_candidate(
      const TimeInterval& iv) const {
    return std::lower_bound(intervals_.begin(), intervals_.end(), iv,
                            [](const TimeInterval& a, const TimeInterval& b) {
                              return a.end <= b.start;
                            });
  }

  // Sorted by start; pairwise non-overlapping.
  std::vector<TimeInterval> intervals_;
};

}  // namespace fbmb
