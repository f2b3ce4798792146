// MetricsRegistry tests: collector merge semantics, Prometheus rendering
// (HELP/TYPE grammar, label escaping, cumulative buckets), JSON snapshots and
// their quantile accuracy, and snapshot-under-concurrent-update safety.

#include "obs/metrics_registry.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace aimq {
namespace obs {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

bool HasLine(const std::string& text, const std::string& exact) {
  for (const std::string& line : Lines(text)) {
    if (line == exact) return true;
  }
  return false;
}

TEST(MetricsRegistryTest, CounterRegistersAndRenders) {
  MetricsRegistry registry;
  std::atomic<uint64_t> requests{0};
  registry.AddCollector([&](MetricsRegistry::Emitter* out) {
    out->Counter("test_requests_total", "Requests seen.",
                 static_cast<double>(requests.load()));
  });
  requests += 1;
  requests += 41;
  const std::string text = registry.PrometheusText();
  EXPECT_TRUE(HasLine(text, "# HELP test_requests_total Requests seen."));
  EXPECT_TRUE(HasLine(text, "# TYPE test_requests_total counter"));
  EXPECT_TRUE(HasLine(text, "test_requests_total 42"));
}

TEST(MetricsRegistryTest, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.AddCollector([](MetricsRegistry::Emitter* out) {
    out->Counter("tenant_total", "by tenant", 1.0,
                 {{"tenant", "acme \"prod\"\\eu\nwest"}});
  });
  const std::string text = registry.PrometheusText();
  EXPECT_TRUE(HasLine(
      text, "tenant_total{tenant=\"acme \\\"prod\\\"\\\\eu\\nwest\"} 1"))
      << text;
}

TEST(MetricsRegistryTest, EscapePrometheusLabelRules) {
  EXPECT_EQ(EscapePrometheusLabel("plain"), "plain");
  EXPECT_EQ(EscapePrometheusLabel("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapePrometheusLabel("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapePrometheusLabel("a\nb"), "a\\nb");
}

TEST(MetricsRegistryTest, HistogramRendersCumulativeBucketsEndingAtInf) {
  MetricsRegistry registry;
  LatencyHistogram h;
  registry.AddCollector([&](MetricsRegistry::Emitter* out) {
    out->Histogram("lat_seconds", "latency", FromLatencyHistogram(h));
  });
  h.Record(0.001);
  h.Record(0.010);
  h.Record(0.100);
  const std::string text = registry.PrometheusText();
  EXPECT_TRUE(HasLine(text, "# TYPE lat_seconds histogram"));
  EXPECT_TRUE(HasLine(text, "lat_seconds_bucket{le=\"+Inf\"} 3"));
  EXPECT_TRUE(HasLine(text, "lat_seconds_count 3"));
  // One series per native bucket plus +Inf; counts never decrease as le
  // grows.
  std::vector<double> buckets;
  for (const std::string& line : Lines(text)) {
    const std::string prefix = "lat_seconds_bucket{le=";
    if (line.compare(0, prefix.size(), prefix) == 0) {
      buckets.push_back(std::stod(line.substr(line.rfind(' ') + 1)));
    }
  }
  ASSERT_EQ(buckets.size(), LatencyHistogram::kNumBuckets + 1);
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_GE(buckets[i], buckets[i - 1]);
  }
}

TEST(MetricsRegistryTest, CollectorFamiliesMergeWithFirstClassOnes) {
  // Two collectors emit the same family name: the samples merge into one
  // family that keeps the first emission's help text and kind.
  MetricsRegistry registry;
  registry.AddCollector([](MetricsRegistry::Emitter* out) {
    out->Counter("shared_total", "first", 1.0, {{"src", "a"}});
  });
  registry.AddCollector([](MetricsRegistry::Emitter* out) {
    out->Counter("shared_total", "second", 2.0, {{"src", "b"}});
    out->Gauge("pulled_gauge", "pulled", 5.0);
  });
  const std::string text = registry.PrometheusText();
  EXPECT_TRUE(HasLine(text, "shared_total{src=\"a\"} 1"));
  EXPECT_TRUE(HasLine(text, "shared_total{src=\"b\"} 2"));
  EXPECT_TRUE(HasLine(text, "pulled_gauge 5"));
  // One HELP/TYPE pair for the merged family, with the first help text.
  size_t type_lines = 0;
  for (const std::string& line : Lines(text)) {
    if (line.rfind("# TYPE shared_total", 0) == 0) ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);
  EXPECT_TRUE(HasLine(text, "# HELP shared_total first"));
}

TEST(MetricsRegistryTest, EveryFamilyHasHelpAndTypeBeforeSamples) {
  MetricsRegistry registry;
  LatencyHistogram h;
  h.Record(0.01);
  registry.AddCollector([&](MetricsRegistry::Emitter* out) {
    out->Counter("a_total", "a", 1.0);
    out->Gauge("b_gauge", "b", 1.5);
    out->Histogram("c_seconds", "c", FromLatencyHistogram(h));
  });
  registry.AddCollector([](MetricsRegistry::Emitter* out) {
    out->Counter("d_total", "d", 4.0);
  });
  std::string last_comment;
  for (const std::string& line : Lines(registry.PrometheusText())) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      EXPECT_TRUE(line.compare(0, 7, "# HELP ") == 0 ||
                  line.compare(0, 7, "# TYPE ") == 0)
          << line;
      if (line.compare(0, 7, "# TYPE ") == 0) {
        EXPECT_EQ(last_comment.compare(0, 7, "# HELP "), 0)
            << "# TYPE without preceding # HELP: " << line;
      }
      last_comment = line;
      continue;
    }
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NO_THROW(std::stod(line.substr(space + 1))) << line;
  }
}

TEST(MetricsRegistryTest, NonFiniteGaugeRendersAsZero) {
  MetricsRegistry registry;
  registry.AddCollector([](MetricsRegistry::Emitter* out) {
    out->Gauge("rate", "a rate", std::nan(""));
  });
  const std::string text = registry.PrometheusText();
  EXPECT_TRUE(HasLine(text, "rate 0"));
  EXPECT_EQ(text.find("nan"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonSnapshotFlattensScalarsAndLabels) {
  MetricsRegistry registry;
  LatencyHistogram h;
  h.Record(0.010);
  registry.AddCollector([&](MetricsRegistry::Emitter* out) {
    out->Counter("plain_total", "plain", 9.0);
    out->Counter("by_shard_total", "labelled", 4.0, {{"shard", "0"}});
    out->Counter("by_shard_total", "labelled", 6.0, {{"shard", "1"}});
    out->Histogram("lat_seconds", "latency", FromLatencyHistogram(h));
  });
  const Json snap = registry.JsonSnapshot();
  ASSERT_TRUE(snap.is_object());
  const Json* plain = snap.Find("plain_total");
  ASSERT_NE(plain, nullptr);
  EXPECT_DOUBLE_EQ(plain->AsNum(), 9.0);
  const Json* labelled = snap.Find("by_shard_total");
  ASSERT_NE(labelled, nullptr);
  ASSERT_TRUE(labelled->is_array());
  ASSERT_EQ(labelled->AsArr().size(), 2u);
  EXPECT_EQ(*labelled->AsArr()[1].GetStr("shard"), "1");
  EXPECT_DOUBLE_EQ(*labelled->AsArr()[1].GetNum("value"), 6.0);
  const Json* hist = snap.Find("lat_seconds");
  ASSERT_NE(hist, nullptr);
  ASSERT_TRUE(hist->is_object());
  EXPECT_DOUBLE_EQ(hist->Find("count")->AsNum(), 1.0);
}

TEST(MetricsRegistryTest, JsonQuantilesWithinOneNativeBucket) {
  // Seeded log-uniform durations over 1 µs .. 10 s, recorded into a
  // LatencyHistogram and exported through a collector: every reported
  // quantile must be the upper edge of the native ×1.25 bucket holding the
  // exact order statistic, so it lies in [exact, 1.25 × exact].
  std::mt19937_64 rng(20061);
  std::uniform_real_distribution<double> exponent(std::log(1e-6),
                                                  std::log(10.0));
  LatencyHistogram h;
  std::vector<double> sample;
  for (int i = 0; i < 20000; ++i) {
    const double seconds = std::exp(exponent(rng));
    h.Record(seconds);
    sample.push_back(seconds);
  }
  std::sort(sample.begin(), sample.end());
  MetricsRegistry registry;
  registry.AddCollector([&](MetricsRegistry::Emitter* out) {
    out->Histogram("lat_seconds", "latency", FromLatencyHistogram(h));
  });
  const Json snap = registry.JsonSnapshot();
  const Json* hist = snap.Find("lat_seconds");
  ASSERT_NE(hist, nullptr);
  for (const auto& [key, q] :
       {std::pair<const char*, double>{"p50", 0.50}, {"p95", 0.95},
        {"p99", 0.99}}) {
    // The order statistic the histogram ranks by: the ceil(q·n)-th value.
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(sample.size())));
    const double exact = sample[rank - 1];
    auto reported = hist->GetNum(key);
    ASSERT_TRUE(reported.ok()) << key;
    EXPECT_GE(*reported, exact) << key;
    EXPECT_LE(*reported, 1.25 * exact) << key;
  }
}

TEST(MetricsRegistryTest, SnapshotUnderConcurrentIncrementNeverTears) {
  MetricsRegistry registry;
  std::atomic<uint64_t> busy{0};
  LatencyHistogram h;
  registry.AddCollector([&](MetricsRegistry::Emitter* out) {
    out->Counter("busy_total", "hot", static_cast<double>(busy.load()));
    out->Histogram("busy_seconds", "hot", FromLatencyHistogram(h));
  });
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        busy.fetch_add(1, std::memory_order_relaxed);
        h.Record(0.001);
      }
    });
  }
  // Snapshots race the writers: every collected value must be a plausible
  // point-in-time reading — counters monotone across scrapes, histogram
  // sums finite — never corrupt. (Individual histogram cells may tear
  // against each other by a few in-flight Records; that is the documented
  // contract.)
  uint64_t last_count = 0;
  uint64_t last_hist_count = 0;
  for (int i = 0; i < 200; ++i) {
    const std::vector<FamilySnapshot> families = registry.Collect();
    ASSERT_EQ(families.size(), 2u);
    const uint64_t counter_now =
        static_cast<uint64_t>(families[0].samples[0].value);
    EXPECT_GE(counter_now, last_count);
    last_count = counter_now;
    const HistogramData& data = families[1].samples[0].histogram;
    EXPECT_GE(data.count, last_hist_count);
    last_hist_count = data.count;
    EXPECT_TRUE(data.sum >= 0.0);
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
  const std::vector<FamilySnapshot> final_families = registry.Collect();
  EXPECT_EQ(static_cast<uint64_t>(final_families[0].samples[0].value),
            busy.load());
}

TEST(HistogramDataTest, PercentileEdgeCases) {
  HistogramData empty;
  EXPECT_EQ(empty.Percentile(0.5), 0.0);

  HistogramData single;
  single.bounds = {1.0, 2.0, 4.0};
  single.counts = {0, 1, 0};
  single.count = 1;
  single.sum = 1.5;
  EXPECT_DOUBLE_EQ(single.Percentile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(single.Percentile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(single.Percentile(1.0), 2.0);

  // Every observation beyond the last finite bound: percentiles can only
  // report the largest bound (the +Inf bucket has no upper edge).
  HistogramData overflow;
  overflow.bounds = {1.0, 2.0};
  overflow.counts = {0, 0};
  overflow.count = 10;
  overflow.sum = 100.0;
  EXPECT_DOUBLE_EQ(overflow.Percentile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(overflow.Percentile(0.99), 2.0);
}

}  // namespace
}  // namespace obs
}  // namespace aimq
