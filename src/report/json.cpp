#include "report/json.hpp"

#include <cstdio>

namespace fbmb {

std::string json_number(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

std::string json_quote(const std::string& value) {
  std::string out = "\"";
  for (const char ch : value) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace fbmb
