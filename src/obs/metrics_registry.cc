#include "obs/metrics_registry.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace aimq {
namespace obs {

namespace {

void AppendScalar(std::string* out, double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  *out += buf;
}

// {label="escaped",...} — empty labels render nothing. \p extra, when
// non-null, is appended as the last pair (the histogram "le" bound).
void AppendLabels(std::string* out, const MetricLabels& labels,
                  const std::pair<const char*, std::string>* extra) {
  if (labels.empty() && extra == nullptr) return;
  *out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) *out += ',';
    first = false;
    *out += k;
    *out += "=\"";
    *out += EscapePrometheusLabel(v);
    *out += '"';
  }
  if (extra != nullptr) {
    if (!first) *out += ',';
    *out += extra->first;
    *out += "=\"";
    *out += extra->second;  // le bounds are numeric, nothing to escape
    *out += '"';
  }
  *out += '}';
}

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

void RenderHistogramSample(std::string* out, const std::string& name,
                           const MetricSample& sample) {
  const HistogramData& data = sample.histogram;
  uint64_t cumulative = 0;
  char bound[40];
  for (size_t i = 0; i < data.bounds.size() && i < data.counts.size(); ++i) {
    cumulative += data.counts[i];
    std::snprintf(bound, sizeof(bound), "%.6g", data.bounds[i]);
    *out += name;
    *out += "_bucket";
    const std::pair<const char*, std::string> le{"le", bound};
    AppendLabels(out, sample.labels, &le);
    *out += ' ';
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 "\n", cumulative);
    *out += buf;
  }
  const std::pair<const char*, std::string> inf{"le", "+Inf"};
  *out += name;
  *out += "_bucket";
  AppendLabels(out, sample.labels, &inf);
  char buf[48];
  std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", data.count);
  *out += buf;
  *out += name;
  *out += "_sum";
  AppendLabels(out, sample.labels, nullptr);
  *out += ' ';
  AppendScalar(out, data.sum);
  *out += '\n';
  *out += name;
  *out += "_count";
  AppendLabels(out, sample.labels, nullptr);
  std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", data.count);
  *out += buf;
}

}  // namespace

double HistogramData::Percentile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  // Rank of the answering observation, at least 1 so q=0 reports the first
  // non-empty bucket (the minimum's bucket), not an empty leading one.
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count))));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size() && i < bounds.size(); ++i) {
    cumulative += counts[i];
    if (cumulative >= target) return bounds[i];
  }
  // Target rank lives in the +Inf bucket: the finite bounds can only bound
  // it from below, so report the largest one (0 with no bounds at all).
  return bounds.empty() ? 0.0 : bounds.back();
}

HistogramData FromHistogramSnapshot(const HistogramSnapshot& snapshot) {
  HistogramData data;
  data.count = snapshot.count;
  data.sum = snapshot.sum_seconds;
  data.counts = snapshot.bucket_counts;
  data.bounds.reserve(data.counts.size());
  for (size_t i = 0; i < data.counts.size(); ++i) {
    data.bounds.push_back(LatencyHistogram::BucketUpperBound(i));
  }
  return data;
}

HistogramData FromLatencyHistogram(const LatencyHistogram& histogram) {
  return FromHistogramSnapshot(histogram.Snapshot());
}

std::string EscapePrometheusLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string RenderPrometheusText(const std::vector<FamilySnapshot>& families) {
  std::string out;
  out.reserve(4096);
  for (const FamilySnapshot& family : families) {
    out += "# HELP ";
    out += family.name;
    out += ' ';
    out += family.help;
    out += "\n# TYPE ";
    out += family.name;
    out += ' ';
    out += KindName(family.kind);
    out += '\n';
    for (const MetricSample& sample : family.samples) {
      if (family.kind == MetricKind::kHistogram) {
        RenderHistogramSample(&out, family.name, sample);
        continue;
      }
      out += family.name;
      AppendLabels(&out, sample.labels, nullptr);
      out += ' ';
      AppendScalar(&out, sample.value);
      out += '\n';
    }
  }
  return out;
}

void MetricsRegistry::Emitter::Append(const std::string& name,
                                      const std::string& help, MetricKind kind,
                                      MetricSample sample) {
  for (FamilySnapshot& family : *out_) {
    if (family.name == name) {
      family.samples.push_back(std::move(sample));
      return;
    }
  }
  FamilySnapshot family;
  family.name = name;
  family.help = help;
  family.kind = kind;
  family.samples.push_back(std::move(sample));
  out_->push_back(std::move(family));
}

void MetricsRegistry::Emitter::Counter(const std::string& name,
                                       const std::string& help, double value,
                                       MetricLabels labels) {
  MetricSample sample;
  sample.labels = std::move(labels);
  sample.value = value;
  Append(name, help, MetricKind::kCounter, std::move(sample));
}

void MetricsRegistry::Emitter::Gauge(const std::string& name,
                                     const std::string& help, double value,
                                     MetricLabels labels) {
  MetricSample sample;
  sample.labels = std::move(labels);
  sample.value = value;
  Append(name, help, MetricKind::kGauge, std::move(sample));
}

void MetricsRegistry::Emitter::Histogram(const std::string& name,
                                         const std::string& help,
                                         HistogramData data,
                                         MetricLabels labels) {
  MetricSample sample;
  sample.labels = std::move(labels);
  sample.histogram = std::move(data);
  Append(name, help, MetricKind::kHistogram, std::move(sample));
}

void MetricsRegistry::AddCollector(Collector collector) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.push_back(std::move(collector));
}

std::vector<FamilySnapshot> MetricsRegistry::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FamilySnapshot> out;
  Emitter emitter(&out);
  for (const Collector& collector : collectors_) {
    collector(&emitter);
  }
  return out;
}

std::string MetricsRegistry::PrometheusText() const {
  return RenderPrometheusText(Collect());
}

Json MetricsRegistry::JsonSnapshot() const {
  Json out = Json::Obj();
  for (const FamilySnapshot& family : Collect()) {
    if (family.kind == MetricKind::kHistogram) {
      // One object (or array of labelled objects) of distribution summaries.
      auto summarize = [](const MetricSample& s) {
        Json h = Json::Obj();
        h.Set("count", Json::Num(static_cast<double>(s.histogram.count)));
        h.Set("sum", Json::Num(s.histogram.sum));
        h.Set("p50", Json::Num(s.histogram.Percentile(0.50)));
        h.Set("p95", Json::Num(s.histogram.Percentile(0.95)));
        h.Set("p99", Json::Num(s.histogram.Percentile(0.99)));
        return h;
      };
      if (family.samples.size() == 1 && family.samples[0].labels.empty()) {
        out.Set(family.name, summarize(family.samples[0]));
      } else {
        Json arr = Json::Arr();
        for (const MetricSample& s : family.samples) {
          Json h = summarize(s);
          for (const auto& [k, v] : s.labels) h.Set(k, Json::Str(v));
          arr.Push(std::move(h));
        }
        out.Set(family.name, std::move(arr));
      }
      continue;
    }
    if (family.samples.size() == 1 && family.samples[0].labels.empty()) {
      out.Set(family.name, Json::Num(family.samples[0].value));
      continue;
    }
    Json arr = Json::Arr();
    for (const MetricSample& s : family.samples) {
      Json entry = Json::Obj();
      for (const auto& [k, v] : s.labels) entry.Set(k, Json::Str(v));
      entry.Set("value", Json::Num(s.value));
      arr.Push(std::move(entry));
    }
    out.Set(family.name, std::move(arr));
  }
  return out;
}

}  // namespace obs
}  // namespace aimq
