#include "src/common/metrics.h"

#include <cstdio>
#include <ostream>
#include <sstream>

namespace skadi {

std::vector<HistogramSnapshot> MetricsRegistry::SnapshotHistograms() const {
  MutexLock lock(mu_);
  std::vector<HistogramSnapshot> out;
  out.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot snap;
    snap.name = name;
    snap.count = histogram.count();
    snap.sum_nanos = histogram.sum_nanos();
    snap.mean_nanos = histogram.mean_nanos();
    snap.p50 = histogram.QuantileNanos(0.5);
    snap.p90 = histogram.QuantileNanos(0.9);
    snap.p99 = histogram.QuantileNanos(0.99);
    snap.p999 = histogram.QuantileNanos(0.999);
    out.push_back(std::move(snap));
  }
  return out;
}

namespace {

// Metric names come from metric_names.h constants (dot-case, no quotes or
// control characters), but escape defensively for ad-hoc test names.
void WriteJsonString(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

template <typename Rows>
void WriteScalarMap(std::ostream& os, const char* key, const Rows& rows) {
  WriteJsonString(os, key);
  os << ": {";
  bool first = true;
  for (const auto& [name, value] : rows) {
    if (!first) {
      os << ", ";
    }
    first = false;
    WriteJsonString(os, name);
    os << ": " << value;
  }
  os << "}";
}

}  // namespace

void MetricsRegistry::WriteJson(std::ostream& os) const {
  os << "{";
  WriteScalarMap(os, "counters", SnapshotCounters());
  os << ", ";
  WriteScalarMap(os, "gauges", SnapshotGauges());
  os << ", ";
  WriteJsonString(os, "histograms");
  os << ": {";
  bool first = true;
  for (const HistogramSnapshot& h : SnapshotHistograms()) {
    if (!first) {
      os << ", ";
    }
    first = false;
    WriteJsonString(os, h.name);
    os << ": {\"count\": " << h.count << ", \"sum_nanos\": " << h.sum_nanos
       << ", \"mean_nanos\": " << h.mean_nanos << ", \"p50\": " << h.p50
       << ", \"p90\": " << h.p90 << ", \"p99\": " << h.p99
       << ", \"p999\": " << h.p999 << "}";
  }
  os << "}}";
}

std::string MetricsRegistry::ToJson() const {
  std::ostringstream os;
  WriteJson(os);
  return os.str();
}

}  // namespace skadi
