#include "src/obs/export.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace whodunit::obs {
namespace {

// ---- writer ---------------------------------------------------------

template <typename T>
void AppendArray(std::string& out, const std::vector<T>& values) {
  out += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(values[i]);
  }
  out += ']';
}

// ---- minimal parser for the schema ToJson emits ---------------------

struct Cursor {
  std::string_view text;
  size_t pos = 0;
  bool ok = true;

  void SkipWs() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  bool Peek(char c) {
    SkipWs();
    return pos < text.size() && text[pos] == c;
  }
  void Fail() { ok = false; }
};

bool ParseStringToken(Cursor& c, std::string* out) {
  if (!c.Consume('"')) {
    return false;
  }
  out->clear();
  while (c.pos < c.text.size()) {
    char ch = c.text[c.pos++];
    if (ch == '"') {
      return true;
    }
    if (ch == '\\' && c.pos < c.text.size()) {
      char esc = c.text[c.pos++];
      switch (esc) {
        case 'n':
          *out += '\n';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u':
          // Only \u00xx is ever emitted; decode the low byte.
          if (c.pos + 4 <= c.text.size()) {
            unsigned value = 0;
            for (int i = 0; i < 4; ++i) {
              value = value * 16;
              char h = c.text[c.pos + static_cast<size_t>(i)];
              if (h >= '0' && h <= '9') {
                value += static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                value += static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                value += static_cast<unsigned>(h - 'A' + 10);
              } else {
                return false;
              }
            }
            c.pos += 4;
            *out += static_cast<char>(value & 0xff);
          } else {
            return false;
          }
          break;
        default:
          *out += esc;
      }
    } else {
      *out += ch;
    }
  }
  return false;  // unterminated
}

bool ParseInt(Cursor& c, int64_t* out) {
  c.SkipWs();
  const bool neg = c.pos < c.text.size() && c.text[c.pos] == '-';
  if (neg) {
    ++c.pos;
  }
  uint64_t value = 0;
  bool any = false;
  while (c.pos < c.text.size() && c.text[c.pos] >= '0' && c.text[c.pos] <= '9') {
    value = value * 10 + static_cast<uint64_t>(c.text[c.pos] - '0');
    ++c.pos;
    any = true;
  }
  if (!any) {
    return false;
  }
  *out = neg ? -static_cast<int64_t>(value) : static_cast<int64_t>(value);
  return true;
}

bool ParseUint(Cursor& c, uint64_t* out) {
  c.SkipWs();
  uint64_t value = 0;
  bool any = false;
  while (c.pos < c.text.size() && c.text[c.pos] >= '0' && c.text[c.pos] <= '9') {
    value = value * 10 + static_cast<uint64_t>(c.text[c.pos] - '0');
    ++c.pos;
    any = true;
  }
  *out = value;
  return any;
}

bool ParseUintArray(Cursor& c, std::vector<uint64_t>* out) {
  if (!c.Consume('[')) {
    return false;
  }
  out->clear();
  if (c.Consume(']')) {
    return true;
  }
  do {
    uint64_t v = 0;
    if (!ParseUint(c, &v)) {
      return false;
    }
    out->push_back(v);
  } while (c.Consume(','));
  return c.Consume(']');
}

// Parses {"name": uint, ...}.
bool ParseUintMap(Cursor& c, std::map<std::string, uint64_t>* out) {
  if (!c.Consume('{')) {
    return false;
  }
  if (c.Consume('}')) {
    return true;
  }
  do {
    std::string key;
    uint64_t value = 0;
    if (!ParseStringToken(c, &key) || !c.Consume(':') || !ParseUint(c, &value)) {
      return false;
    }
    (*out)[std::move(key)] = value;
  } while (c.Consume(','));
  return c.Consume('}');
}

bool ParseIntMap(Cursor& c, std::map<std::string, int64_t>* out) {
  if (!c.Consume('{')) {
    return false;
  }
  if (c.Consume('}')) {
    return true;
  }
  do {
    std::string key;
    int64_t value = 0;
    if (!ParseStringToken(c, &key) || !c.Consume(':') || !ParseInt(c, &value)) {
      return false;
    }
    (*out)[std::move(key)] = value;
  } while (c.Consume(','));
  return c.Consume('}');
}

bool ParseHistogramObject(Cursor& c, HistogramSnapshot* out) {
  if (!c.Consume('{')) {
    return false;
  }
  if (c.Consume('}')) {
    return true;
  }
  do {
    std::string key;
    if (!ParseStringToken(c, &key) || !c.Consume(':')) {
      return false;
    }
    if (key == "bounds") {
      if (!ParseUintArray(c, &out->bounds)) {
        return false;
      }
    } else if (key == "counts") {
      if (!ParseUintArray(c, &out->counts)) {
        return false;
      }
    } else if (key == "count") {
      if (!ParseUint(c, &out->count)) {
        return false;
      }
    } else if (key == "sum") {
      if (!ParseUint(c, &out->sum)) {
        return false;
      }
    } else {
      return false;
    }
  } while (c.Consume(','));
  return c.Consume('}');
}

bool ParseHistogramMap(Cursor& c, std::map<std::string, HistogramSnapshot>* out) {
  if (!c.Consume('{')) {
    return false;
  }
  if (c.Consume('}')) {
    return true;
  }
  do {
    std::string key;
    HistogramSnapshot h;
    if (!ParseStringToken(c, &key) || !c.Consume(':') || !ParseHistogramObject(c, &h)) {
      return false;
    }
    (*out)[std::move(key)] = std::move(h);
  } while (c.Consume(','));
  return c.Consume('}');
}

bool ParseSpanArray(Cursor& c, std::vector<SpanRecord>* out) {
  if (!c.Consume('[')) {
    return false;
  }
  if (c.Consume(']')) {
    return true;
  }
  do {
    if (!c.Consume('{')) {
      return false;
    }
    SpanRecord span;
    if (!c.Peek('}')) {
      do {
        std::string key;
        if (!ParseStringToken(c, &key) || !c.Consume(':')) {
          return false;
        }
        if (key == "name") {
          if (!ParseStringToken(c, &span.name)) {
            return false;
          }
        } else if (key == "detail") {
          if (!ParseStringToken(c, &span.detail)) {
            return false;
          }
        } else if (key == "ctxt_hash") {
          if (!ParseUint(c, &span.ctxt_hash)) {
            return false;
          }
        } else if (key == "start_ns") {
          if (!ParseInt(c, &span.start_ns)) {
            return false;
          }
        } else if (key == "duration_ns") {
          if (!ParseInt(c, &span.duration_ns)) {
            return false;
          }
        } else {
          return false;
        }
      } while (c.Consume(','));
    }
    if (!c.Consume('}')) {
      return false;
    }
    out->push_back(std::move(span));
  } while (c.Consume(','));
  return c.Consume(']');
}

std::string FormatNs(double ns) {
  char buf[32];
  if (ns >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2fus", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  }
  return buf;
}

// Linear-interpolated quantile over the explicit buckets.
double Quantile(const HistogramSnapshot& h, double q) {
  if (h.count == 0) {
    return 0;
  }
  const double target = q * static_cast<double>(h.count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < h.counts.size(); ++i) {
    cumulative += h.counts[i];
    if (static_cast<double>(cumulative) >= target) {
      // Upper bound of this bucket (last finite bound for overflow).
      const size_t idx = i < h.bounds.size() ? i : h.bounds.size() - 1;
      return h.bounds.empty() ? 0 : static_cast<double>(h.bounds[idx]);
    }
  }
  return h.bounds.empty() ? 0 : static_cast<double>(h.bounds.back());
}

}  // namespace

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string ToJson(const MetricsSnapshot& snapshot, const std::vector<SpanRecord>& spans) {
  std::string out;
  out += "{\n  \"schema\": \"whodunit-metrics\",\n  \"version\": 1,\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    out += JsonString(name);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    out += JsonString(name);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    out += JsonString(name);
    out += ": {\"bounds\": ";
    AppendArray(out, h.bounds);
    out += ", \"counts\": ";
    AppendArray(out, h.counts);
    out += ", \"count\": " + std::to_string(h.count);
    out += ", \"sum\": " + std::to_string(h.sum) + "}";
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"spans\": [";
  first = true;
  for (const SpanRecord& span : spans) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": ";
    out += JsonString(span.name);
    out += ", \"detail\": ";
    out += JsonString(span.detail);
    out += ", \"ctxt_hash\": " + std::to_string(span.ctxt_hash);
    out += ", \"start_ns\": " + std::to_string(span.start_ns);
    out += ", \"duration_ns\": " + std::to_string(span.duration_ns) + "}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

bool ParseJson(std::string_view json, MetricsSnapshot* out, std::vector<SpanRecord>* spans) {
  Cursor c{json};
  if (!c.Consume('{')) {
    return false;
  }
  bool version_ok = false;
  if (!c.Peek('}')) {
    do {
      std::string key;
      if (!ParseStringToken(c, &key) || !c.Consume(':')) {
        return false;
      }
      if (key == "schema") {
        std::string schema;
        if (!ParseStringToken(c, &schema) || schema != "whodunit-metrics") {
          return false;
        }
      } else if (key == "version") {
        uint64_t version = 0;
        if (!ParseUint(c, &version) || version != 1) {
          return false;
        }
        version_ok = true;
      } else if (key == "counters") {
        if (!ParseUintMap(c, &out->counters)) {
          return false;
        }
      } else if (key == "gauges") {
        if (!ParseIntMap(c, &out->gauges)) {
          return false;
        }
      } else if (key == "histograms") {
        if (!ParseHistogramMap(c, &out->histograms)) {
          return false;
        }
      } else if (key == "spans") {
        std::vector<SpanRecord> decoded;
        if (!ParseSpanArray(c, &decoded)) {
          return false;
        }
        if (spans != nullptr) {
          *spans = std::move(decoded);
        }
      } else {
        return false;
      }
    } while (c.Consume(','));
  }
  return c.Consume('}') && version_ok;
}

std::string RenderText(const MetricsSnapshot& snapshot, const std::vector<SpanRecord>* spans) {
  std::ostringstream out;
  out << "--- counters ---\n";
  for (const auto& [name, value] : snapshot.counters) {
    out << "  " << name << " = " << value << "\n";
  }
  out << "--- gauges ---\n";
  for (const auto& [name, value] : snapshot.gauges) {
    out << "  " << name << " = " << value << "\n";
  }
  out << "--- histograms ---\n";
  for (const auto& [name, h] : snapshot.histograms) {
    const double mean = h.count > 0 ? static_cast<double>(h.sum) / static_cast<double>(h.count)
                                    : 0.0;
    // Only *_ns histograms carry time units; depth histograms are counts.
    const bool is_ns = name.size() >= 3 && name.compare(name.size() - 3, 3, "_ns") == 0;
    auto fmt = [is_ns](double v) {
      if (is_ns) {
        return FormatNs(v);
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f", v);
      return std::string(buf);
    };
    out << "  " << name << ": count=" << h.count << " mean=" << fmt(mean)
        << " p50=" << fmt(Quantile(h, 0.5)) << " p99=" << fmt(Quantile(h, 0.99)) << "\n";
  }
  if (spans != nullptr && !spans->empty()) {
    out << "--- spans (" << spans->size() << " buffered, newest last) ---\n";
    const size_t show = spans->size() > 10 ? 10 : spans->size();
    for (size_t i = spans->size() - show; i < spans->size(); ++i) {
      const SpanRecord& span = (*spans)[i];
      out << "  t+" << span.start_ns << "ns " << span.name << " '" << span.detail << "' ctxt="
          << span.ctxt_hash << " dur=" << FormatNs(static_cast<double>(span.duration_ns))
          << "\n";
    }
  }
  return out.str();
}

bool DumpGlobalMetrics(const std::string& path) {
  MetricsSnapshot snapshot = Registry().Snapshot();
  snapshot.counters["obs.spans_recorded"] = Tracer().recorded();
  snapshot.counters["obs.spans_dropped"] = Tracer().dropped();
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << ToJson(snapshot, Tracer().Snapshot());
  return static_cast<bool>(out);
}

}  // namespace whodunit::obs
