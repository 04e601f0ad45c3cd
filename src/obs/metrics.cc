#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace osdp {
namespace obs {

namespace {

// JSON string escaping for metric names (which are ASCII identifiers by
// convention, but the dump must not produce invalid JSON if one is not).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// JSON has no literal for non-finite doubles: %.17g's bare `inf`/`nan`
// would make the whole scrape unparsable (budget ε gauges can legitimately
// be ±inf), so they serialize as null.
std::string FormatDoubleJson(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const MetricsSnapshot::CounterValue* MetricsSnapshot::FindCounter(
    const std::string& name) const {
  for (const CounterValue& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const MetricsSnapshot::GaugeValue* MetricsSnapshot::FindGauge(
    const std::string& name) const {
  for (const GaugeValue& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const MetricsSnapshot::HistogramValue* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  for (const HistogramValue& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream out;
  out << "{\"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i) out << ", ";
    out << '"' << JsonEscape(counters[i].name) << "\": " << counters[i].value;
  }
  out << "}, \"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    if (i) out << ", ";
    out << '"' << JsonEscape(gauges[i].name)
        << "\": " << FormatDoubleJson(gauges[i].value);
  }
  out << "}, \"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramValue& h = histograms[i];
    if (i) out << ", ";
    out << '"' << JsonEscape(h.name) << "\": {\"count\": " << h.count
        << ", \"mean_ns\": " << FormatDoubleJson(h.mean_ns)
        << ", \"max_ns\": " << h.max_ns << ", \"p50_ns\": " << h.p50_ns
        << ", \"p95_ns\": " << h.p95_ns << ", \"p99_ns\": " << h.p99_ns
        << "}";
  }
  out << "}}";
  return out.str();
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counter_names_.find(name);
  if (it != counter_names_.end()) return it->second;
  counters_.emplace_back();
  Counter* c = &counters_.back();
  counter_names_.emplace(name, c);
  return c;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauge_names_.find(name);
  if (it != gauge_names_.end()) return it->second;
  gauges_.emplace_back();
  Gauge* g = &gauges_.back();
  gauge_names_.emplace(name, g);
  return g;
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histogram_names_.find(name);
  if (it != histogram_names_.end()) return it->second;
  histograms_.emplace_back();
  LatencyHistogram* h = &histograms_.back();
  histogram_names_.emplace(name, h);
  return h;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.counters.reserve(counter_names_.size());
  for (const auto& kv : counter_names_) {
    snap.counters.push_back({kv.first, kv.second->value()});
  }
  snap.gauges.reserve(gauge_names_.size());
  for (const auto& kv : gauge_names_) {
    snap.gauges.push_back({kv.first, kv.second->value()});
  }
  snap.histograms.reserve(histogram_names_.size());
  for (const auto& kv : histogram_names_) {
    const LatencyHistogram::Summary s = kv.second->Summarize();
    snap.histograms.push_back({kv.first, s.count, s.mean_ns, s.max_ns,
                               s.p50_ns, s.p95_ns, s.p99_ns});
  }
  return snap;
}

}  // namespace obs
}  // namespace osdp
