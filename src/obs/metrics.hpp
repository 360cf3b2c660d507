// Metrics registry: named counters, gauges and fixed-bucket histograms with
// deterministic (name-sorted) JSON export.
//
// Zero-cost when disabled: a disabled registry hands out null handles —
// registration allocates nothing, and every hot-path operation degenerates
// to a single pointer test. Handles remain valid for the registry's
// lifetime (metric storage is node-based, so addresses are stable).
//
// Nothing in here reads wall-clock time or other nondeterministic inputs:
// two runs of the same seeded simulation produce byte-identical exports,
// which ci.sh diffs (see DESIGN.md "Observability").
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mayflower::obs {

class MetricsRegistry;

class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) {
    if (cell_ != nullptr) *cell_ += n;
  }
  std::uint64_t value() const { return cell_ == nullptr ? 0 : *cell_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::uint64_t* cell) : cell_(cell) {}
  std::uint64_t* cell_ = nullptr;
};

class Gauge {
 public:
  Gauge() = default;
  void set(double v) {
    if (cell_ != nullptr) *cell_ = v;
  }
  double value() const { return cell_ == nullptr ? 0.0 : *cell_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(double* cell) : cell_(cell) {}
  double* cell_ = nullptr;
};

struct HistogramData {
  // Strictly ascending finite upper bounds; bucket i counts samples
  // v <= edges[i] (and above edges[i-1]). An implicit final bucket catches
  // everything above the last edge, so buckets.size() == edges.size() + 1.
  std::vector<double> edges;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // valid only when count > 0
  double max = 0.0;
};

class Histogram {
 public:
  Histogram() = default;
  void observe(double v);
  const HistogramData* data() const { return data_; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(HistogramData* data) : data_(data) {}
  HistogramData* data_ = nullptr;
};

class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = true) : enabled_(enabled) {}
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  bool enabled() const { return enabled_; }

  // Finds or creates the named metric. Disabled registries return null
  // handles without touching any storage; the returned handles write
  // through raw cell pointers.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  // `edges` must be non-empty and strictly ascending; re-registering an
  // existing histogram ignores `edges` (the first registration wins).
  Histogram histogram(std::string_view name, std::vector<double> edges);

  // Inspection (tests, reports). Absent names read as zero.
  std::uint64_t counter_value(std::string_view name) const;
  double gauge_value(std::string_view name) const;
  const HistogramData* find_histogram(std::string_view name) const;
  std::size_t metric_count() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  // Appends {"counters":{...},"gauges":{...},"histograms":{...}} fragments
  // (without the enclosing braces) to `out`, keys sorted by name.
  void write_json(std::string* out) const;

 private:
  bool enabled_;
  // std::map nodes are stable, so handle pointers survive later
  // registrations.
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, HistogramData, std::less<>> histograms_;
};

}  // namespace mayflower::obs
