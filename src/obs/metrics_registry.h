// MetricsRegistry: the engine-wide metric registry behind `GET /metrics`,
// `GET /metrics.json` and the `{"op":"metrics"}` wire op.
//
// Every subsystem keeps its own native stats struct — ServiceMetrics,
// ProbeCacheStats, BlockCache::Stats, per-shard probe snapshots, SIMD
// dispatch counters — and updates it on its hot path without knowing the
// registry exists. The registry is a list of pull collectors: callbacks run
// at Collect() time that read those structs and emit point-in-time samples
// through an Emitter.
//
// Collect() renders every collector into one list of FamilySnapshots (name,
// help, kind, labelled samples), which is the single source for the
// Prometheus text exposition (escaped label values, # HELP / # TYPE for
// every family, cumulative histogram buckets) and for the JSON snapshot.
// Histograms keep the LatencyHistogram's native 96 ×1.25 buckets in both
// forms, so a reported quantile is within one 25% bucket of the exact one.
//
// Thread model: AddCollector and Collect() serialize on one registry mutex.
// Collectors read live atomics, so a snapshot taken under concurrent updates
// has torn-snapshot semantics (a counter may lag another by a few updates,
// never corrupt) — the same contract LatencyHistogram already gives.

#ifndef AIMQ_OBS_METRICS_REGISTRY_H_
#define AIMQ_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/histogram.h"
#include "util/json.h"

namespace aimq {
namespace obs {

/// Label key/value pairs of one sample, in render order.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Explicit-bucket histogram data of one sample. Bounds are ascending upper
/// bounds in the family's unit; counts[i] is the (non-cumulative) count of
/// observations <= bounds[i] and > bounds[i-1]; observations beyond the last
/// bound are count - sum(counts) and render under the +Inf bucket.
struct HistogramData {
  std::vector<double> bounds;
  std::vector<uint64_t> counts;
  uint64_t count = 0;
  double sum = 0.0;

  /// Upper bound of the bucket holding quantile \p q in [0,1]; 0 when empty.
  double Percentile(double q) const;
};

/// A LatencyHistogram snapshot at native resolution: one bound per geometric
/// bucket (96 bounds, then +Inf).
HistogramData FromHistogramSnapshot(const HistogramSnapshot& snapshot);
HistogramData FromLatencyHistogram(const LatencyHistogram& histogram);

/// One sample of a family: labels plus a scalar value (counter/gauge) or
/// histogram data.
struct MetricSample {
  MetricLabels labels;
  double value = 0.0;
  HistogramData histogram;  ///< histogram families only
};

/// One metric family as of a Collect() call.
struct FamilySnapshot {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::vector<MetricSample> samples;
};

/// Escapes a Prometheus label value (backslash, double quote, newline).
std::string EscapePrometheusLabel(const std::string& value);

/// Renders families as Prometheus text exposition format 0.0.4: one
/// # HELP / # TYPE pair per family, escaped label values, cumulative
/// histogram buckets ending at +Inf. Non-finite scalar values render as 0.
std::string RenderPrometheusText(const std::vector<FamilySnapshot>& families);

/// \brief Central labelled metric registry (see file comment).
class MetricsRegistry {
 public:
  /// Sample sink handed to pull collectors. Append-only; an emitted family
  /// name that matches an already-collected family merges its samples into
  /// it (the first emission wins the help text and kind).
  class Emitter {
   public:
    void Counter(const std::string& name, const std::string& help,
                 double value, MetricLabels labels = {});
    void Gauge(const std::string& name, const std::string& help, double value,
               MetricLabels labels = {});
    void Histogram(const std::string& name, const std::string& help,
                   HistogramData data, MetricLabels labels = {});

   private:
    friend class MetricsRegistry;
    explicit Emitter(std::vector<FamilySnapshot>* out) : out_(out) {}
    void Append(const std::string& name, const std::string& help,
                MetricKind kind, MetricSample sample);
    std::vector<FamilySnapshot>* out_;
  };

  using Collector = std::function<void(Emitter*)>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers a pull collector, run on every Collect() under the registry
  /// lock. Collectors must not call back into this registry.
  void AddCollector(Collector collector);

  /// One point-in-time snapshot: collector-emitted families in first-emitted
  /// order (a family emitted again merges by name).
  std::vector<FamilySnapshot> Collect() const;

  /// RenderPrometheusText(Collect()) — the one exposition path.
  std::string PrometheusText() const;

  /// Collect() as one JSON object keyed by family name. Scalar families
  /// with a single unlabelled sample flatten to a number; labelled families
  /// render as arrays of {<labels...>,"value":v}; histograms as
  /// {"count":..,"sum":..,"p50":..,"p95":..,"p99":..}.
  Json JsonSnapshot() const;

 private:
  mutable std::mutex mu_;
  std::vector<Collector> collectors_;
};

}  // namespace obs
}  // namespace aimq

#endif  // AIMQ_OBS_METRICS_REGISTRY_H_
