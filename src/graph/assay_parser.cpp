#include "graph/assay_parser.hpp"

#include <charconv>
#include <map>
#include <sstream>

#include "util/strings.hpp"

namespace fbmb {

namespace {

/// The C locale's whitespace, the set a stream's >> splits fields on.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// The line's whitespace-separated fields, up to the first field that
/// starts with '#' (a trailing comment).
std::vector<std::string> tokens_of(std::string_view line) {
  std::vector<std::string> out;
  std::size_t at = 0;
  for (;;) {
    while (at < line.size() && is_space(line[at])) ++at;
    if (at == line.size() || line[at] == '#') return out;
    const std::size_t begin = at;
    while (at < line.size() && !is_space(line[at])) ++at;
    out.emplace_back(line.substr(begin, at - begin));
  }
}

double parse_double(const std::string& s, int line, const char* what) {
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw AssayParseError(line, std::string("invalid ") + what + " '" + s +
                                    "'");
  }
}

int parse_int(const std::string& s, int line, const char* what) {
  try {
    std::size_t used = 0;
    const int v = std::stoi(s, &used);
    if (used != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw AssayParseError(line, std::string("invalid ") + what + " '" + s +
                                    "'");
  }
}

ComponentType parse_type(const std::string& s, int line) {
  if (s == "mix") return ComponentType::kMixer;
  if (s == "heat") return ComponentType::kHeater;
  if (s == "filter") return ComponentType::kFilter;
  if (s == "detect") return ComponentType::kDetector;
  throw AssayParseError(line, "unknown operation type '" + s +
                                  "' (expected mix|heat|filter|detect)");
}

const char* type_keyword(ComponentType type) {
  switch (type) {
    case ComponentType::kMixer: return "mix";
    case ComponentType::kHeater: return "heat";
    case ComponentType::kFilter: return "filter";
    case ComponentType::kDetector: return "detect";
  }
  return "?";
}

}  // namespace

ParsedAssay parse_assay(std::string_view text) {
  ParsedAssay result;
  std::map<std::string, OperationId> by_name;

  int line_no = 0;
  for (const std::string& raw : split(text, '\n')) {
    ++line_no;
    const auto tokens = tokens_of(raw);
    if (tokens.empty()) continue;
    const std::string& keyword = tokens[0];

    if (keyword == "op") {
      if (tokens.size() < 4 || tokens.size() > 5) {
        throw AssayParseError(
            line_no, "op needs: op <name> <type> <duration> [wash=|d=]");
      }
      const std::string& name = tokens[1];
      if (by_name.contains(name)) {
        throw AssayParseError(line_no, "duplicate operation '" + name + "'");
      }
      const ComponentType type = parse_type(tokens[2], line_no);
      const double duration = parse_double(tokens[3], line_no, "duration");
      Fluid fluid{name + "_out", diffusion::kSmallMolecule};
      if (tokens.size() == 5) {
        const std::string& attr = tokens[4];
        if (attr.starts_with("wash=")) {
          const double wash =
              parse_double(attr.substr(5), line_no, "wash time");
          const double d = result.wash.diffusion_for_wash_time(wash);
          result.wash.set_override(d, wash);
          fluid.diffusion_coefficient = d;
        } else if (attr.starts_with("d=")) {
          fluid.diffusion_coefficient =
              parse_double(attr.substr(2), line_no, "diffusion coefficient");
        } else {
          throw AssayParseError(line_no,
                                "unknown attribute '" + attr +
                                    "' (expected wash=<s> or d=<coeff>)");
        }
      }
      by_name[name] =
          result.graph.add_operation(name, type, duration, std::move(fluid));
    } else if (keyword == "dep") {
      if (tokens.size() != 3) {
        throw AssayParseError(line_no, "dep needs: dep <from> <to>");
      }
      const auto from = by_name.find(tokens[1]);
      const auto to = by_name.find(tokens[2]);
      if (from == by_name.end()) {
        throw AssayParseError(line_no, "unknown operation '" + tokens[1] +
                                           "'");
      }
      if (to == by_name.end()) {
        throw AssayParseError(line_no, "unknown operation '" + tokens[2] +
                                           "'");
      }
      if (!result.graph.add_dependency(from->second, to->second)) {
        throw AssayParseError(line_no, "invalid dependency " + tokens[1] +
                                           " -> " + tokens[2]);
      }
    } else if (keyword == "allocate") {
      if (tokens.size() != 5) {
        throw AssayParseError(line_no, "allocate needs 4 counts (M H F D)");
      }
      if (result.has_allocation) {
        throw AssayParseError(line_no, "duplicate allocate directive");
      }
      result.allocation.mixers = parse_int(tokens[1], line_no, "count");
      result.allocation.heaters = parse_int(tokens[2], line_no, "count");
      result.allocation.filters = parse_int(tokens[3], line_no, "count");
      result.allocation.detectors = parse_int(tokens[4], line_no, "count");
      if (result.allocation.mixers < 0 || result.allocation.heaters < 0 ||
          result.allocation.filters < 0 || result.allocation.detectors < 0) {
        throw AssayParseError(line_no, "negative allocation count");
      }
      result.has_allocation = true;
    } else {
      throw AssayParseError(line_no, "unknown directive '" + keyword + "'");
    }
  }

  if (const auto err = result.graph.validate()) {
    throw AssayParseError(line_no, *err);
  }
  return result;
}

std::string write_assay(const SequencingGraph& graph,
                        const AllocationSpec* allocation,
                        const WashModel* wash) {
  std::ostringstream os;
  os << "# msynth assay\n";
  for (const auto& op : graph.operations()) {
    os << "op " << op.name << ' ' << type_keyword(op.type) << ' '
       << format_double(op.duration, 6);
    if (wash != nullptr) {
      os << " wash=" << format_double(wash->wash_time(op.output), 6);
    } else {
      os << " d=" << op.output.diffusion_coefficient;
    }
    os << '\n';
  }
  for (const auto& dep : graph.dependencies()) {
    os << "dep " << graph.operation(dep.from).name << ' '
       << graph.operation(dep.to).name << '\n';
  }
  if (allocation != nullptr) {
    os << "allocate " << allocation->mixers << ' ' << allocation->heaters
       << ' ' << allocation->filters << ' ' << allocation->detectors << '\n';
  }
  return os.str();
}

}  // namespace fbmb
