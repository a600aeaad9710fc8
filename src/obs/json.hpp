// The one JSON string escaper behind every obs exporter: metric and probe
// names, trace actors and events, profiler sites, critical-path boxes and
// flight-dump reasons all pass through here, so a name holding '"' or '\'
// can never break a dump.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace cmc::obs {

// Append `s` escaped for the inside of a JSON string literal (no quotes).
// Runs of plain characters are copied in one append.
inline void appendJsonEscaped(std::string& out, std::string_view s) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (static_cast<unsigned char>(c) >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s.substr(run));
}

}  // namespace cmc::obs
