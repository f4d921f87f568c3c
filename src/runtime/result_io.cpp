#include "runtime/result_io.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "report/json.hpp"

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
          std::optional<unsigned> code = hex4();
          if (!code) return std::nullopt;
          if (*code >= 0xD800 && *code <= 0xDBFF) {
            // A high surrogate must pair with an escaped low surrogate.
            if (text_.compare(pos_, 2, "\\u") != 0) return std::nullopt;
            pos_ += 2;
            const std::optional<unsigned> low = hex4();
            if (!low || *low < 0xDC00 || *low > 0xDFFF) return std::nullopt;
            code = 0x10000 + ((*code - 0xD800) << 10) + (*low - 0xDC00);
          } else if (*code >= 0xDC00 && *code <= 0xDFFF) {
            return std::nullopt;  // a low surrogate with no high one
          }
          append_utf8(out, *code);
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

  /// The four hex digits of a \u escape (strict: exactly four).
  std::optional<unsigned> hex4() {
    if (pos_ + 4 > text_.size()) return std::nullopt;
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const int digit = hex_digit(text_[pos_ + i]);
      if (digit < 0) return std::nullopt;
      code = code * 16 + static_cast<unsigned>(digit);
    }
    pos_ += 4;
    return code;
  }

  /// Appends code point `code` (at most 0x10FFFF, not a surrogate) as
  /// UTF-8. Below 0x80 that is the byte itself, which is how the writers'
  /// \u00XX escapes of control characters read back.
  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
      return;
    }
    char bytes[4];
    int n = 0;
    if (code < 0x800) {
      bytes[n++] = static_cast<char>(0xC0 | (code >> 6));
    } else if (code < 0x10000) {
      bytes[n++] = static_cast<char>(0xE0 | (code >> 12));
      bytes[n++] = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    } else {
      bytes[n++] = static_cast<char>(0xF0 | (code >> 18));
      bytes[n++] = static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      bytes[n++] = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    }
    bytes[n++] = static_cast<char>(0x80 | (code & 0x3F));
    out.append(bytes, static_cast<std::size_t>(n));
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

/// A JSON key, written `"start"_key`: a view of the text that precedes its
/// value, `, "key": `, which the writer appends in one piece. The text is
/// built at compile time into a template parameter object, so passing a
/// key costs a pointer and a length, not a copy of the text.
struct Key {
  std::string_view text;

  std::string_view name() const { return text.substr(3, text.size() - 6); }
};

/// The text of `"name"_key`.
template <std::size_t N>
struct KeyText {
  consteval KeyText(const char (&name)[N]) {
    std::string_view(", \"").copy(text, 3);
    std::string_view(name, N - 1).copy(text + 3, N - 1);
    std::string_view("\": ").copy(text + N + 2, 3);
  }
  char text[N + 5];
};

template <KeyText K>
constexpr Key operator""_key() {
  return {std::string_view(K.text, sizeof(K.text))};
}

/// T is R or const R, so one field list serves the writer and the reader.
template <class T, class R>
concept Is = std::same_as<std::remove_const_t<T>, R>;

// The schema of a result document: each record's JSON keys, once each, in
// output order. FieldWriter and FieldReader both run these lists.
// `io("key"_key, member)` names a key every document carries; a stats table
// (util/fields.hpp) is an object of its kFields rows.

void fields(auto& io, Is<Fluid> auto& fluid) {
  io("name"_key, fluid.name);
  io("d"_key, fluid.diffusion_coefficient);
}

void fields(auto& io, Is<ScheduledOperation> auto& so) {
  io("op"_key, so.op.value);
  io("component"_key, so.component.value);
  io("start"_key, so.start);
  io("end"_key, so.end);
  io("in_place_parent"_key, so.in_place_parent.value);
}

void fields(auto& io, Is<TransportTask> auto& t) {
  io("id"_key, t.id);
  io("producer"_key, t.producer.value);
  io("consumer"_key, t.consumer.value);
  io("from"_key, t.from.value);
  io("to"_key, t.to.value);
  io("fluid"_key, t.fluid);
  io("departure"_key, t.departure);
  io("transport_time"_key, t.transport_time);
  io("consume"_key, t.consume);
  io("evicted"_key, t.evicted);
  io("departure_deadline"_key, t.departure_deadline);
}

void fields(auto& io, Is<ComponentWash> auto& w) {
  io("component"_key, w.component.value);
  io("residue_of"_key, w.residue_of.value);
  io("residue"_key, w.residue);
  io("start"_key, w.start);
  io("end"_key, w.end);
}

void fields(auto& io, Is<Schedule> auto& schedule) {
  io("completion_time"_key, schedule.completion_time);
  io("transport_time"_key, schedule.transport_time);
  io("operations"_key, schedule.operations);
  io("transports"_key, schedule.transports);
  io("washes"_key, schedule.component_washes);
}

void fields(auto& io, Is<PlacedComponent> auto& pc) {
  io("x"_key, pc.origin.x);
  io("y"_key, pc.origin.y);
  io("rotated"_key, pc.rotated);
}

void fields(auto& io, Is<RoutedPath> auto& p) {
  io("transport_id"_key, p.transport_id);
  io("from_component"_key, p.from_component);
  io("to_component"_key, p.to_component);
  io("start"_key, p.start);
  io("transport_end"_key, p.transport_end);
  io("cache_until"_key, p.cache_until);
  io("wash_duration"_key, p.wash_duration);
  io("delay"_key, p.delay);
  io("cells"_key, p.cells);
}

void fields(auto& io, Is<RoutingResult> auto& routing) {
  io("total_wash_time"_key, routing.total_wash_time);
  io("conflict_postponements"_key, routing.conflict_postponements);
  io("route_stats"_key, routing.stats);
  io("delays"_key, routing.delays);
  io("paths"_key, routing.paths);
}

void fields(auto& io, Is<ScheduleStats> auto& stats) {
  io("completion_time"_key, stats.completion_time);
  io("utilization"_key, stats.utilization);
  io("total_cache_time"_key, stats.total_cache_time);
  io("component_wash_time"_key, stats.component_wash_time);
  io("transport_count"_key, stats.transport_count);
  io("eviction_count"_key, stats.eviction_count);
  io("in_place_count"_key, stats.in_place_count);
}

void fields(auto& io, Is<ChipSpec> auto& chip) {
  io("grid_width"_key, chip.grid_width);
  io("grid_height"_key, chip.grid_height);
  io("cell_pitch_mm"_key, chip.cell_pitch_mm);
  io("transport_time"_key, chip.transport_time);
  io("initial_cell_weight"_key, chip.initial_cell_weight);
  io("component_spacing"_key, chip.component_spacing);
  io("cache_segment_cells"_key, chip.cache_segment_cells);
}

void fields(auto& io, Is<SynthesisResult> auto& result) {
  io("completion_time"_key, result.completion_time);
  io("utilization"_key, result.utilization);
  io("channel_length_mm"_key, result.channel_length_mm);
  io("total_cache_time"_key, result.total_cache_time);
  io("channel_wash_time"_key, result.channel_wash_time);
  io("cpu_seconds"_key, result.cpu_seconds);
  io("stage_seconds"_key, result.stage_seconds);
  io("stats"_key, result.stats);
  io("chip"_key, result.chip);
  io("schedule"_key, result.schedule);
  io("placement"_key, result.placement);
  io("place_stats"_key, result.place_stats);
  io("sched_stats"_key, result.sched_stats);
  io("flow_stats"_key, result.flow_stats);
  io("routing"_key, result.routing);
}

/// Appends the JSON of field-listed records to one string: a record or
/// stats table as {"key": value, ...}, a vector or Placement as
/// [value,...], a Point as [x,y]. Numbers go through std::to_chars, and a
/// double is written as %.17g writes it (to_chars with a precision is
/// printf's %.*g in the C locale, whatever the global locale is), which
/// round-trips every finite IEEE-754 double exactly.
class FieldWriter {
 public:
  explicit FieldWriter(std::string& out) : out_(out) {}

  // Every served result runs this writer. As a call per field instead of
  // inline code, it took 5 to 10% longer on results of 6 to 56 KB.
  template <class T>
  [[gnu::always_inline]] void operator()(Key key, const T& member) {
    out_ += first_ ? key.text.substr(2) : key.text;
    write(member);
    first_ = false;
  }

  // Numbers are appended by length: append(first, last) goes through the
  // slower replace().
  void write(double value) {
    char buf[32];
    const char* end = std::to_chars(buf, buf + sizeof(buf), value,
                                    std::chars_format::general, 17)
                          .ptr;
    out_.append(buf, static_cast<std::size_t>(end - buf));
  }

  template <std::integral T>
    requires(!std::same_as<T, bool>)
  void write(T value) {
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
    out_.append(buf, static_cast<std::size_t>(end - buf));
  }

  void write(bool value) { out_ += value ? "true" : "false"; }

  void write(const std::string& text) { out_ += json_quote(text); }

  void write(const Point& p) {
    out_ += '[';
    write(p.x);
    out_ += ',';
    write(p.y);
    out_ += ']';
  }

  template <class T>
  void write(const std::vector<T>& items) {
    out_ += '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i) out_ += ',';
      write(items[i]);
    }
    out_ += ']';
  }

  void write(const Placement& placement) {
    out_ += '[';
    for (std::size_t i = 0; i < placement.size(); ++i) {
      if (i) out_ += ',';
      write(placement.at(ComponentId{static_cast<int>(i)}));
    }
    out_ += ']';
  }

  template <class S>
    requires requires { S::kFields; }
  void write(const S& table) {
    out_ += '{';
    std::string_view separator;
    for (const auto& field : S::kFields) {
      out_ += separator;
      out_ += '"';
      out_ += field.key;
      out_ += "\": ";
      write(table.*field.member);
      separator = ", ";
    }
    out_ += '}';
  }

  template <class R>
    requires requires(FieldWriter& io, const R& record) { fields(io, record); }
  void write(const R& record) {
    out_ += '{';
    first_ = true;
    fields(*this, record);
    out_ += '}';
  }

 private:
  std::string& out_;
  bool first_ = true;  ///< no member of the open object written yet
};

/// Runs a field list over one parsed JSON object. A listed key that is
/// missing or holds the wrong JSON type fails the read; keys no list names
/// are ignored.
class FieldReader {
 public:
  explicit FieldReader(const jsonio::Value& object) : object_(object) {}

  template <class T>
  void operator()(Key key, T& member) {
    if (!read(object_.find(key.name()), member)) ok_ = false;
  }

  /// Reads `out` from `v`; false when `v` is null or malformed.
  static bool read(const jsonio::Value* v, double& out) {
    if (!v || v->kind != jsonio::Value::Kind::kNumber) return false;
    out = v->num;
    return true;
  }

  /// An integer holds a JSON number that is an integer T represents: 3.5,
  /// 1e10 in an int, -1 in a counter and 1e400 (parsed as inf) are
  /// malformed like any other bad field, rather than cast out of range.
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  static bool read(const jsonio::Value* v, T& out) {
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

  static bool read(const jsonio::Value* v, bool& out) {
    if (!v || v->kind != jsonio::Value::Kind::kBool) return false;
    out = v->b;
    return true;
  }

  static bool read(const jsonio::Value* v, std::string& out) {
    if (!v || v->kind != jsonio::Value::Kind::kString) return false;
    out = v->str;
    return true;
  }

  static bool read(const jsonio::Value* v, Point& out) {
    return v && v->kind == jsonio::Value::Kind::kArray &&
           v->array.size() == 2 && read(&v->array[0], out.x) &&
           read(&v->array[1], out.y);
  }

  template <class T>
  static bool read(const jsonio::Value* v, std::vector<T>& out) {
    if (!v || v->kind != jsonio::Value::Kind::kArray) return false;
    out.resize(v->array.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (!read(&v->array[i], out[i])) return false;
    }
    return true;
  }

  static bool read(const jsonio::Value* v, Placement& out) {
    std::vector<PlacedComponent> placed;
    if (!read(v, placed)) return false;
    out = Placement(placed.size());
    for (std::size_t i = 0; i < placed.size(); ++i) {
      out.at(ComponentId{static_cast<int>(i)}) = placed[i];
    }
    return true;
  }

  template <class S>
    requires requires { S::kFields; }
  static bool read(const jsonio::Value* v, S& table) {
    if (!v || v->kind != jsonio::Value::Kind::kObject) return false;
    for (const auto& field : S::kFields) {
      if (!read(v->find(field.key), table.*field.member)) return false;
    }
    return true;
  }

  template <class R>
    requires requires(FieldReader& io, R& record) { fields(io, record); }
  static bool read(const jsonio::Value* v, R& record) {
    if (!v || v->kind != jsonio::Value::Kind::kObject) return false;
    FieldReader io(*v);
    fields(io, record);
    return io.ok_;
  }

 private:
  const jsonio::Value& object_;
  bool ok_ = true;
};

}  // namespace

void append_synthesis_result_json(std::string& out,
                                  const SynthesisResult& result) {
  FieldWriter(out).write(result);
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
  SynthesisResult result;
  if (!FieldReader::read(&root, result)) return std::nullopt;
  return result;
}

}  // namespace fbmb
