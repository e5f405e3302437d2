///
/// \file metrics_export.cpp
/// \brief Metrics snapshot JSON writers.
///

#include "obs/metrics_export.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>

namespace nlh::obs {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_double(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

void append_key(std::string& out, const std::string& name) {
  out += '"';
  append_escaped(out, name);
  out += "\": ";
}

}  // namespace

std::string metrics_json(const metrics_snapshot& snap) {
  std::string out;
  out += "{\n  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    out += i ? ",\n    " : "\n    ";
    append_key(out, snap.counters[i].first);
    out += std::to_string(snap.counters[i].second);
  }
  out += snap.counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    out += i ? ",\n    " : "\n    ";
    append_key(out, snap.gauges[i].first);
    append_double(out, snap.gauges[i].second);
  }
  out += snap.gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& [name, s] = snap.histograms[i];
    out += i ? ",\n    " : "\n    ";
    append_key(out, name);
    out += "{\"count\": " + std::to_string(s.count) + ", \"sum\": ";
    append_double(out, s.sum);
    out += ", \"min\": ";
    append_double(out, s.min);
    out += ", \"max\": ";
    append_double(out, s.max);
    out += ", \"mean\": ";
    append_double(out, s.mean);
    out += ", \"p50\": ";
    append_double(out, s.p50);
    out += ", \"p90\": ";
    append_double(out, s.p90);
    out += ", \"p99\": ";
    append_double(out, s.p99);
    out += "}";
  }
  out += snap.histograms.empty() ? "}\n}" : "\n  }\n}";
  return out;
}

bool write_metrics_json(const std::string& path, const metrics_snapshot& snap) {
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    std::cerr << "obs: cannot write metrics to " << path << "\n";
    return false;
  }
  const auto json = metrics_json(snap) + "\n";
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  return static_cast<bool>(f);
}

}  // namespace nlh::obs
