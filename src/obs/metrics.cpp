#include "obs/metrics.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/json.hpp"

namespace mayflower::obs {

void Histogram::observe(double v) {
  if (data_ == nullptr) return;
  const auto it =
      std::lower_bound(data_->edges.begin(), data_->edges.end(), v);
  ++data_->buckets[static_cast<std::size_t>(it - data_->edges.begin())];
  if (data_->count == 0) {
    data_->min = v;
    data_->max = v;
  } else {
    data_->min = std::min(data_->min, v);
    data_->max = std::max(data_->max, v);
  }
  ++data_->count;
  data_->sum += v;
}

Counter MetricsRegistry::counter(std::string_view name) {
  if (!enabled_) return Counter{};
  const auto it = counters_.find(name);
  if (it != counters_.end()) return Counter(&it->second);
  return Counter(&counters_.emplace(std::string(name), 0).first->second);
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  if (!enabled_) return Gauge{};
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return Gauge(&it->second);
  return Gauge(&gauges_.emplace(std::string(name), 0.0).first->second);
}

Histogram MetricsRegistry::histogram(std::string_view name,
                                     std::vector<double> edges) {
  if (!enabled_) return Histogram{};
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return Histogram(&it->second);
  MAYFLOWER_ASSERT_MSG(!edges.empty(), "histogram needs at least one edge");
  for (std::size_t i = 1; i < edges.size(); ++i) {
    MAYFLOWER_ASSERT_MSG(edges[i - 1] < edges[i],
                         "histogram edges must be strictly ascending");
  }
  HistogramData data;
  data.buckets.assign(edges.size() + 1, 0);
  data.edges = std::move(edges);
  return Histogram(
      &histograms_.emplace(std::string(name), std::move(data)).first->second);
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge_value(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const HistogramData* MetricsRegistry::find_histogram(
    std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::write_json(std::string* out) const {
  json_key("counters", out);
  out->push_back('{');
  bool first = true;
  for (const auto& [name, v] : counters_) {
    if (!first) out->push_back(',');
    first = false;
    json_key(name, out);
    json_append(v, out);
  }
  *out += "},";
  json_key("gauges", out);
  out->push_back('{');
  first = true;
  for (const auto& [name, v] : gauges_) {
    if (!first) out->push_back(',');
    first = false;
    json_key(name, out);
    json_append(v, out);
  }
  *out += "},";
  json_key("histograms", out);
  out->push_back('{');
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out->push_back(',');
    first = false;
    json_key(name, out);
    out->push_back('{');
    json_key("edges", out);
    json_append(h.edges, out);
    out->push_back(',');
    json_key("buckets", out);
    json_append(h.buckets, out);
    out->push_back(',');
    json_key("count", out);
    json_append(h.count, out);
    out->push_back(',');
    json_key("sum", out);
    json_append(h.sum, out);
    out->push_back(',');
    json_key("min", out);
    json_append(h.count == 0 ? 0.0 : h.min, out);
    out->push_back(',');
    json_key("max", out);
    json_append(h.count == 0 ? 0.0 : h.max, out);
    out->push_back('}');
  }
  out->push_back('}');
}

}  // namespace mayflower::obs
