#include "util/interval_set.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace fbmb {

std::string to_string(const TimeInterval& iv) {
  std::ostringstream os;
  os << iv;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const TimeInterval& iv) {
  return os << '[' << iv.start << ',' << iv.end << ')';
}

bool IntervalSet::insert_disjoint(const TimeInterval& iv) {
  if (iv.empty()) return true;  // nothing to insert
  const auto it = first_candidate(iv);
  if (it != intervals_.end() && it->overlaps(iv)) return false;
  intervals_.insert(it, iv);
  return true;
}

void IntervalSet::insert_merged(TimeInterval iv) {
  if (iv.empty()) return;
  // Find the run of intervals that overlap or touch iv and coalesce.
  auto lo = std::lower_bound(
      intervals_.begin(), intervals_.end(), iv,
      [](const TimeInterval& a, const TimeInterval& b) {
        return a.end < b.start;  // touching counts as mergeable
      });
  auto hi = lo;
  while (hi != intervals_.end() && hi->start <= iv.end) {
    iv.start = std::min(iv.start, hi->start);
    iv.end = std::max(iv.end, hi->end);
    ++hi;
  }
  auto pos = intervals_.erase(lo, hi);
  intervals_.insert(pos, iv);
}

double IntervalSet::earliest_fit(double from, double duration) const {
  double t = from;
  for (const auto& iv : intervals_) {
    if (iv.end <= t) continue;
    if (iv.start >= t + duration) break;  // gap before iv is big enough
    t = iv.end;                           // pushed past this interval
  }
  return t;
}

}  // namespace fbmb
