// Field tables: each stats struct (StageTimes, RouteStats, FlowStats,
// PlaceStats, SchedStats) declares its members once more, as a
// `static constexpr kFields` array of {JSON key, member pointer} rows next
// to the members. Aggregation (add_fields), the runtime's telemetry totals
// and every JSON writer and reader loop over that table, so a new counter
// is one member plus one row.

#pragma once

#include <string_view>

namespace fbmb {

/// One row of a field table: member `member` of S, written under `key`.
template <class S, class T>
struct Field {
  std::string_view key;
  T S::* member;
};

/// Adds every tabled member of `from` into `into`, in table order.
template <class S>
S& add_fields(S& into, const S& from) {
  for (const auto& field : S::kFields) {
    into.*field.member += from.*field.member;
  }
  return into;
}

/// Streams as `"key": value, ...` over S's table (no braces), each value
/// written as `format(value)`; see json_fields.
template <class S, class Format>
struct JsonFields {
  const S& stats;
  Format format;
};

/// Passes a value through unchanged (integers stream as decimal).
struct AsIs {
  template <class T>
  T operator()(T value) const { return value; }
};

/// `out << json_fields(stats)` writes `"key": value` for every row of the
/// struct's table, separated by ", ", on any stream whose operator<< takes
/// std::string_view and the formatted value.
template <class S, class Format = AsIs>
JsonFields<S, Format> json_fields(const S& stats, Format format = {}) {
  return {stats, format};
}

template <class Out, class S, class Format>
Out& operator<<(Out& out, const JsonFields<S, Format>& fields) {
  std::string_view separator;
  for (const auto& field : S::kFields) {
    out << separator << "\"" << field.key << "\": ";
    out << fields.format(fields.stats.*field.member);
    separator = ", ";
  }
  return out;
}

}  // namespace fbmb
