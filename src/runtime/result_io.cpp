#include "runtime/result_io.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "report/json.hpp"
#include "util/fields.hpp"

namespace fbmb {

namespace jsonio {

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::optional<Value> parse() {
    std::optional<Value> v = value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  std::optional<Value> value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      // Bound the recursion so hostile input ("[[[[[..." from a network
      // peer or a corrupted spill) fails cleanly instead of overflowing
      // the stack.
      if (depth_ >= kMaxDepth) return std::nullopt;
      ++depth_;
      std::optional<Value> v = c == '{' ? object() : array();
      --depth_;
      return v;
    }
    if (c == '"') return string_value();
    if (c == 't') {
      if (!literal("true")) return std::nullopt;
      Value v;
      v.kind = Value::Kind::kBool;
      v.b = true;
      return v;
    }
    if (c == 'f') {
      if (!literal("false")) return std::nullopt;
      Value v;
      v.kind = Value::Kind::kBool;
      return v;
    }
    if (c == 'n') {
      if (!literal("null")) return std::nullopt;
      return Value{};
    }
    return number();
  }

  std::optional<Value> object() {
    if (!consume('{')) return std::nullopt;
    Value v;
    v.kind = Value::Kind::kObject;
    skip_ws();
    if (consume('}')) return v;
    for (;;) {
      std::optional<std::string> key = string_literal();
      if (!key || !consume(':')) return std::nullopt;
      std::optional<Value> member = value();
      if (!member) return std::nullopt;
      v.object.emplace_back(std::move(*key), std::move(*member));
      if (consume(',')) continue;
      if (consume('}')) return v;
      return std::nullopt;
    }
  }

  std::optional<Value> array() {
    if (!consume('[')) return std::nullopt;
    Value v;
    v.kind = Value::Kind::kArray;
    skip_ws();
    if (consume(']')) return v;
    for (;;) {
      std::optional<Value> element = value();
      if (!element) return std::nullopt;
      v.array.push_back(std::move(*element));
      if (consume(',')) continue;
      if (consume(']')) return v;
      return std::nullopt;
    }
  }

  std::optional<std::string> string_literal() {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '"') return std::nullopt;
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return std::nullopt;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const int digit = hex_digit(text_[pos_ + i]);
            if (digit < 0) return std::nullopt;  // strict: 4 hex digits
            code = code * 16 + static_cast<unsigned>(digit);
          }
          pos_ += 4;
          // Our writers only escape control characters; emit as a byte.
          out += static_cast<char>(code & 0xFF);
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;
  }

  std::optional<Value> string_value() {
    std::optional<std::string> s = string_literal();
    if (!s) return std::nullopt;
    Value v;
    v.kind = Value::Kind::kString;
    v.str = std::move(*s);
    return v;
  }

  static int hex_digit(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  }

  std::optional<Value> number() {
    // strtod alone accepts non-JSON spellings ("inf", "nan", hex floats,
    // leading '+'); require a JSON-shaped start so untrusted bytes fail
    // predictably.
    const char first = text_[pos_];
    if (first != '-' && (first < '0' || first > '9')) return std::nullopt;
    if (first == '-' && (pos_ + 1 >= text_.size() || text_[pos_ + 1] < '0' ||
                         text_[pos_ + 1] > '9')) {
      return std::nullopt;
    }
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double parsed = std::strtod(begin, &end);
    if (end == begin) return std::nullopt;
    for (const char* p = begin; p != end; ++p) {
      const char c = *p;
      const bool json_number_char = (c >= '0' && c <= '9') || c == '.' ||
                                    c == 'e' || c == 'E' || c == '+' ||
                                    c == '-';
      if (!json_number_char) return std::nullopt;  // hex floats etc.
    }
    pos_ += static_cast<std::size_t>(end - begin);
    Value v;
    v.kind = Value::Kind::kNumber;
    v.num = parsed;
    return v;
  }

  static constexpr int kMaxDepth = 96;

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<Value> parse(const std::string& text) {
  return Parser(text).parse();
}

}  // namespace jsonio

namespace {

/// A double to be written as %.17g writes it, which round-trips every
/// finite IEEE-754 double exactly.
struct Exact {
  double value;
};

Exact exact(double v) { return {v}; }

/// Appends JSON text to one string: text verbatim, integers and exact()
/// doubles through std::to_chars. A bare double, bool or char does not
/// compile, so no number is written in a second format by accident.
class JsonOut {
 public:
  explicit JsonOut(std::string& out) : out_(out) {}

  JsonOut& operator<<(std::string_view text) {
    out_ += text;
    return *this;
  }

  template <std::integral T>
    requires(!std::same_as<T, bool> && !std::same_as<T, char>)
  JsonOut& operator<<(T value) {
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
    return *this;
  }

  // to_chars with an explicit precision is defined as printf's %.*g in
  // the C locale, whatever the global locale is.
  JsonOut& operator<<(Exact v) {
    char buf[32];
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v.value,
                                   std::chars_format::general, 17)
                         .ptr);
    return *this;
  }

 private:
  std::string& out_;
};

bool read_value(const jsonio::Value* v, double& out) {
  if (!v || v->kind != jsonio::Value::Kind::kNumber) return false;
  out = v->num;
  return true;
}

/// An integer field holds a JSON number that is an integer T represents:
/// 3.5, 1e10 in an int, -1 in a counter and 1e400 (parsed as inf) are
/// malformed like any other bad field, rather than cast out of range.
template <std::integral T>
bool read_value(const jsonio::Value* v, T& out) {
  if (!v || v->kind != jsonio::Value::Kind::kNumber) return false;
  // T holds [low, 2^digits), and powers of two are exact doubles.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  const double low = std::numeric_limits<T>::is_signed ? -limit : 0.0;
  if (!(v->num >= low && v->num < limit) || std::trunc(v->num) != v->num) {
    return false;
  }
  out = static_cast<T>(v->num);
  return true;
}

double get_num(const jsonio::Value& obj, const char* key, bool& ok) {
  double value = 0.0;
  if (!read_value(obj.find(key), value)) ok = false;
  return value;
}

int get_int(const jsonio::Value& obj, const char* key, bool& ok) {
  int value = 0;
  if (!read_value(obj.find(key), value)) ok = false;
  return value;
}

/// Reads every tabled member of `stats` from `obj`. A missing or malformed
/// key fails, except that `added_later`, a key spills written before it
/// existed lack, may be missing and then stays zero. Keys the table does
/// not name are ignored.
template <class S>
void read_fields(const jsonio::Value& obj, S& stats, bool& ok,
                 std::string_view added_later = {}) {
  for (const auto& field : S::kFields) {
    const jsonio::Value* v = obj.find(field.key);
    if (!v && field.key == added_later) continue;
    if (!read_value(v, stats.*field.member)) ok = false;
  }
}

/// Reads the counter object `parent[key]` into `stats`. The object itself
/// is optional: spills written before the struct's counters existed lack
/// it and load with every counter at zero.
template <class S>
void read_counters(const jsonio::Value& parent, const char* key, S& stats,
                   bool& ok, std::string_view added_later = {}) {
  const jsonio::Value* obj = parent.find(key);
  if (obj && obj->kind == jsonio::Value::Kind::kObject) {
    read_fields(*obj, stats, ok, added_later);
  }
}

bool get_bool(const jsonio::Value& obj, const char* key, bool& ok) {
  const jsonio::Value* v = obj.find(key);
  if (!v || v->kind != jsonio::Value::Kind::kBool) {
    ok = false;
    return false;
  }
  return v->b;
}

std::string get_str(const jsonio::Value& obj, const char* key, bool& ok) {
  const jsonio::Value* v = obj.find(key);
  if (!v || v->kind != jsonio::Value::Kind::kString) {
    ok = false;
    return {};
  }
  return v->str;
}

const jsonio::Value* get_array(const jsonio::Value& obj, const char* key,
                               bool& ok) {
  const jsonio::Value* v = obj.find(key);
  if (!v || v->kind != jsonio::Value::Kind::kArray) {
    ok = false;
    return nullptr;
  }
  return v;
}

void write_fluid(JsonOut& os, const Fluid& fluid) {
  os << "{\"name\": " << json_quote(fluid.name)
     << ", \"d\": " << exact(fluid.diffusion_coefficient) << "}";
}

bool read_fluid(const jsonio::Value& obj, Fluid& fluid) {
  bool ok = true;
  fluid.name = get_str(obj, "name", ok);
  fluid.diffusion_coefficient = get_num(obj, "d", ok);
  return ok;
}

void write_schedule(JsonOut& os, const Schedule& schedule) {
  os << "{\"completion_time\": " << exact(schedule.completion_time)
     << ", \"transport_time\": " << exact(schedule.transport_time)
     << ", \"operations\": [";
  for (std::size_t i = 0; i < schedule.operations.size(); ++i) {
    const ScheduledOperation& so = schedule.operations[i];
    os << (i ? "," : "") << "{\"op\": " << so.op.value
       << ", \"component\": " << so.component.value
       << ", \"start\": " << exact(so.start)
       << ", \"end\": " << exact(so.end)
       << ", \"in_place_parent\": " << so.in_place_parent.value << "}";
  }
  os << "], \"transports\": [";
  for (std::size_t i = 0; i < schedule.transports.size(); ++i) {
    const TransportTask& t = schedule.transports[i];
    os << (i ? "," : "") << "{\"id\": " << t.id
       << ", \"producer\": " << t.producer.value
       << ", \"consumer\": " << t.consumer.value
       << ", \"from\": " << t.from.value << ", \"to\": " << t.to.value
       << ", \"fluid\": ";
    write_fluid(os, t.fluid);
    os << ", \"departure\": " << exact(t.departure)
       << ", \"transport_time\": " << exact(t.transport_time)
       << ", \"consume\": " << exact(t.consume)
       << ", \"evicted\": " << (t.evicted ? "true" : "false")
       << ", \"departure_deadline\": " << exact(t.departure_deadline) << "}";
  }
  os << "], \"washes\": [";
  for (std::size_t i = 0; i < schedule.component_washes.size(); ++i) {
    const ComponentWash& w = schedule.component_washes[i];
    os << (i ? "," : "") << "{\"component\": " << w.component.value
       << ", \"residue_of\": " << w.residue_of.value << ", \"residue\": ";
    write_fluid(os, w.residue);
    os << ", \"start\": " << exact(w.start) << ", \"end\": " << exact(w.end)
       << "}";
  }
  os << "]}";
}

bool read_schedule(const jsonio::Value& obj, Schedule& schedule) {
  bool ok = true;
  schedule.completion_time = get_num(obj, "completion_time", ok);
  schedule.transport_time = get_num(obj, "transport_time", ok);
  const jsonio::Value* ops = get_array(obj, "operations", ok);
  const jsonio::Value* transports = get_array(obj, "transports", ok);
  const jsonio::Value* washes = get_array(obj, "washes", ok);
  if (!ok) return false;
  for (const jsonio::Value& o : ops->array) {
    ScheduledOperation so;
    so.op.value = get_int(o, "op", ok);
    so.component.value = get_int(o, "component", ok);
    so.start = get_num(o, "start", ok);
    so.end = get_num(o, "end", ok);
    so.in_place_parent.value = get_int(o, "in_place_parent", ok);
    schedule.operations.push_back(so);
  }
  for (const jsonio::Value& o : transports->array) {
    TransportTask t;
    t.id = get_int(o, "id", ok);
    t.producer.value = get_int(o, "producer", ok);
    t.consumer.value = get_int(o, "consumer", ok);
    t.from.value = get_int(o, "from", ok);
    t.to.value = get_int(o, "to", ok);
    const jsonio::Value* fluid = o.find("fluid");
    if (!fluid || !read_fluid(*fluid, t.fluid)) return false;
    t.departure = get_num(o, "departure", ok);
    t.transport_time = get_num(o, "transport_time", ok);
    t.consume = get_num(o, "consume", ok);
    t.evicted = get_bool(o, "evicted", ok);
    t.departure_deadline = get_num(o, "departure_deadline", ok);
    schedule.transports.push_back(std::move(t));
  }
  for (const jsonio::Value& o : washes->array) {
    ComponentWash w;
    w.component.value = get_int(o, "component", ok);
    w.residue_of.value = get_int(o, "residue_of", ok);
    const jsonio::Value* residue = o.find("residue");
    if (!residue || !read_fluid(*residue, w.residue)) return false;
    w.start = get_num(o, "start", ok);
    w.end = get_num(o, "end", ok);
    schedule.component_washes.push_back(std::move(w));
  }
  return ok;
}

void write_placement(JsonOut& os, const Placement& placement) {
  os << "[";
  for (std::size_t i = 0; i < placement.size(); ++i) {
    const PlacedComponent& pc = placement.at(ComponentId{static_cast<int>(i)});
    os << (i ? "," : "") << "{\"x\": " << pc.origin.x
       << ", \"y\": " << pc.origin.y
       << ", \"rotated\": " << (pc.rotated ? "true" : "false") << "}";
  }
  os << "]";
}

bool read_placement(const jsonio::Value& arr, Placement& placement) {
  if (arr.kind != jsonio::Value::Kind::kArray) return false;
  placement = Placement(arr.array.size());
  bool ok = true;
  for (std::size_t i = 0; i < arr.array.size(); ++i) {
    const jsonio::Value& o = arr.array[i];
    PlacedComponent& pc = placement.at(ComponentId{static_cast<int>(i)});
    pc.origin.x = get_int(o, "x", ok);
    pc.origin.y = get_int(o, "y", ok);
    pc.rotated = get_bool(o, "rotated", ok);
  }
  return ok;
}

void write_routing(JsonOut& os, const RoutingResult& routing) {
  os << "{\"total_wash_time\": " << exact(routing.total_wash_time)
     << ", \"conflict_postponements\": " << routing.conflict_postponements
     << ", \"route_stats\": {" << json_fields(routing.stats)
     << "}, \"delays\": [";
  for (std::size_t i = 0; i < routing.delays.size(); ++i) {
    os << (i ? "," : "") << exact(routing.delays[i]);
  }
  os << "], \"paths\": [";
  for (std::size_t i = 0; i < routing.paths.size(); ++i) {
    const RoutedPath& p = routing.paths[i];
    os << (i ? "," : "") << "{\"transport_id\": " << p.transport_id
       << ", \"from_component\": " << p.from_component
       << ", \"to_component\": " << p.to_component
       << ", \"start\": " << exact(p.start)
       << ", \"transport_end\": " << exact(p.transport_end)
       << ", \"cache_until\": " << exact(p.cache_until)
       << ", \"wash_duration\": " << exact(p.wash_duration)
       << ", \"delay\": " << exact(p.delay) << ", \"cells\": [";
    for (std::size_t c = 0; c < p.cells.size(); ++c) {
      os << (c ? "," : "") << "[" << p.cells[c].x << "," << p.cells[c].y
         << "]";
    }
    os << "]}";
  }
  os << "]}";
}

bool read_routing(const jsonio::Value& obj, RoutingResult& routing) {
  bool ok = true;
  routing.total_wash_time = get_num(obj, "total_wash_time", ok);
  routing.conflict_postponements = get_int(obj, "conflict_postponements", ok);
  // fixpoints_capped was added to route_stats later.
  read_counters(obj, "route_stats", routing.stats, ok, "fixpoints_capped");
  const jsonio::Value* delays = get_array(obj, "delays", ok);
  const jsonio::Value* paths = get_array(obj, "paths", ok);
  if (!ok) return false;
  for (const jsonio::Value& d : delays->array) {
    if (d.kind != jsonio::Value::Kind::kNumber) return false;
    routing.delays.push_back(d.num);
  }
  for (const jsonio::Value& o : paths->array) {
    RoutedPath p;
    p.transport_id = get_int(o, "transport_id", ok);
    p.from_component = get_int(o, "from_component", ok);
    p.to_component = get_int(o, "to_component", ok);
    p.start = get_num(o, "start", ok);
    p.transport_end = get_num(o, "transport_end", ok);
    p.cache_until = get_num(o, "cache_until", ok);
    p.wash_duration = get_num(o, "wash_duration", ok);
    p.delay = get_num(o, "delay", ok);
    const jsonio::Value* cells = get_array(o, "cells", ok);
    if (!ok) return false;
    for (const jsonio::Value& cell : cells->array) {
      Point point;
      if (cell.kind != jsonio::Value::Kind::kArray ||
          cell.array.size() != 2 ||
          !read_value(&cell.array[0], point.x) ||
          !read_value(&cell.array[1], point.y)) {
        return false;
      }
      p.cells.push_back(point);
    }
    routing.paths.push_back(std::move(p));
  }
  return ok;
}

}  // namespace

void append_synthesis_result_json(std::string& out,
                                  const SynthesisResult& result) {
  JsonOut os(out);
  os << "{\"completion_time\": " << exact(result.completion_time)
     << ", \"utilization\": " << exact(result.utilization)
     << ", \"channel_length_mm\": " << exact(result.channel_length_mm)
     << ", \"total_cache_time\": " << exact(result.total_cache_time)
     << ", \"channel_wash_time\": " << exact(result.channel_wash_time)
     << ", \"cpu_seconds\": " << exact(result.cpu_seconds)
     << ", \"stage_seconds\": {" << json_fields(result.stage_seconds, exact)
     << "}, \"stats\": {\"completion_time\": "
     << exact(result.stats.completion_time)
     << ", \"utilization\": " << exact(result.stats.utilization)
     << ", \"total_cache_time\": " << exact(result.stats.total_cache_time)
     << ", \"component_wash_time\": "
     << exact(result.stats.component_wash_time)
     << ", \"transport_count\": " << result.stats.transport_count
     << ", \"eviction_count\": " << result.stats.eviction_count
     << ", \"in_place_count\": " << result.stats.in_place_count
     << "}, \"chip\": {\"grid_width\": " << result.chip.grid_width
     << ", \"grid_height\": " << result.chip.grid_height
     << ", \"cell_pitch_mm\": " << exact(result.chip.cell_pitch_mm)
     << ", \"transport_time\": " << exact(result.chip.transport_time)
     << ", \"initial_cell_weight\": "
     << exact(result.chip.initial_cell_weight)
     << ", \"component_spacing\": " << result.chip.component_spacing
     << ", \"cache_segment_cells\": " << result.chip.cache_segment_cells
     << "}, \"schedule\": ";
  write_schedule(os, result.schedule);
  os << ", \"placement\": ";
  write_placement(os, result.placement);
  os << ", \"place_stats\": {" << json_fields(result.place_stats)
     << "}, \"sched_stats\": {" << json_fields(result.sched_stats)
     << "}, \"flow_stats\": {" << json_fields(result.flow_stats)
     << "}, \"routing\": ";
  write_routing(os, result.routing);
  os << "}";
}

std::string synthesis_result_to_json(const SynthesisResult& result) {
  std::string out;
  append_synthesis_result_json(out, result);
  return out;
}

std::optional<SynthesisResult> synthesis_result_from_json(
    const std::string& json) {
  const std::optional<jsonio::Value> root = jsonio::parse(json);
  if (!root || root->kind != jsonio::Value::Kind::kObject) {
    return std::nullopt;
  }
  return synthesis_result_from_value(*root);
}

std::optional<SynthesisResult> synthesis_result_from_value(
    const jsonio::Value& root) {
  if (root.kind != jsonio::Value::Kind::kObject) return std::nullopt;
  SynthesisResult result;
  bool ok = true;
  result.completion_time = get_num(root, "completion_time", ok);
  result.utilization = get_num(root, "utilization", ok);
  result.channel_length_mm = get_num(root, "channel_length_mm", ok);
  result.total_cache_time = get_num(root, "total_cache_time", ok);
  result.channel_wash_time = get_num(root, "channel_wash_time", ok);
  result.cpu_seconds = get_num(root, "cpu_seconds", ok);
  const jsonio::Value* stages = root.find("stage_seconds");
  if (!stages) return std::nullopt;
  // grid_build was split out of the route span later.
  read_fields(*stages, result.stage_seconds, ok, "grid_build");
  const jsonio::Value* stats = root.find("stats");
  if (!stats) return std::nullopt;
  result.stats.completion_time = get_num(*stats, "completion_time", ok);
  result.stats.utilization = get_num(*stats, "utilization", ok);
  result.stats.total_cache_time = get_num(*stats, "total_cache_time", ok);
  result.stats.component_wash_time =
      get_num(*stats, "component_wash_time", ok);
  result.stats.transport_count = get_int(*stats, "transport_count", ok);
  result.stats.eviction_count = get_int(*stats, "eviction_count", ok);
  result.stats.in_place_count = get_int(*stats, "in_place_count", ok);
  const jsonio::Value* chip = root.find("chip");
  if (!chip) return std::nullopt;
  result.chip.grid_width = get_int(*chip, "grid_width", ok);
  result.chip.grid_height = get_int(*chip, "grid_height", ok);
  result.chip.cell_pitch_mm = get_num(*chip, "cell_pitch_mm", ok);
  result.chip.transport_time = get_num(*chip, "transport_time", ok);
  result.chip.initial_cell_weight =
      get_num(*chip, "initial_cell_weight", ok);
  result.chip.component_spacing = get_int(*chip, "component_spacing", ok);
  result.chip.cache_segment_cells =
      get_int(*chip, "cache_segment_cells", ok);
  // Keys the reader no longer knows, such as the four routing-thread
  // counters older flow_stats objects carry, are ignored.
  read_counters(root, "place_stats", result.place_stats, ok);
  read_counters(root, "sched_stats", result.sched_stats, ok);
  read_counters(root, "flow_stats", result.flow_stats, ok);
  const jsonio::Value* schedule = root.find("schedule");
  const jsonio::Value* placement = root.find("placement");
  const jsonio::Value* routing = root.find("routing");
  if (!ok || !schedule || !placement || !routing) return std::nullopt;
  if (!read_schedule(*schedule, result.schedule)) return std::nullopt;
  if (!read_placement(*placement, result.placement)) return std::nullopt;
  if (!read_routing(*routing, result.routing)) return std::nullopt;
  return result;
}

}  // namespace fbmb
