#include "common/metrics.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/json.hpp"
#include "common/time.hpp"

namespace copbft::metrics {

#if COP_METRICS_ENABLED

namespace detail {

std::size_t this_thread_slot() {
  static std::atomic<std::size_t> next{0};
  thread_local std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace detail

Histogram HistogramMetric::snapshot() const {
  // Relaxed loads: the snapshot is a monitoring view, not a linearization
  // point; counts recorded concurrently may or may not be included.
  std::uint64_t buckets[Histogram::kNumBuckets];
  for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i)
    buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  return Histogram::from_parts(count_.load(std::memory_order_relaxed),
                               sum_.load(std::memory_order_relaxed),
                               min_.load(std::memory_order_relaxed),
                               max_.load(std::memory_order_relaxed), buckets);
}

ScopedTimer::ScopedTimer(HistogramMetric& h) : hist_(h), start_us_(now_us()) {}

ScopedTimer::~ScopedTimer() { hist_.record(now_us() - start_us_); }

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  // Any process that registers a metric honors COPBFT_METRICS_DUMP without
  // per-host wiring. Runs after the registry's own initialization completed,
  // so the dumper thread can safely call global() at its first interval.
  static bool dumper = (MetricsDumper::maybe_start_from_env(), true);
  (void)dumper;
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

HistogramMetric& MetricsRegistry::histogram(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<HistogramMetric>();
  return *slot;
}

std::string MetricsRegistry::snapshot_json() const {
  MutexLock lock(mutex_);
  std::string out = "{\"counters\":{";
  for (const auto& [name, c] : counters_) json::field(out, name, c->value());
  out += "},\"gauges\":{";
  for (const auto& [name, g] : gauges_) {
    json::append(out, name);
    out += ":{";
    json::field(out, "value", g->value());
    json::field(out, "max", g->max());
    out += '}';
  }
  out += "},\"histograms\":{";
  for (const auto& [name, hm] : histograms_) {
    const Histogram h = hm->snapshot();
    json::append(out, name);
    out += ":{";
    json::field(out, "count", h.count());
    json::field(out, "mean", h.mean());
    json::field(out, "min", h.min());
    json::field(out, "max", h.max());
    json::field(out, "p50", h.percentile(0.5));
    json::field(out, "p90", h.percentile(0.9));
    json::field(out, "p99", h.percentile(0.99));
    json::field(out, "p999", h.percentile(0.999));
    out += '}';
  }
  out += "}}";
  return out;
}

#else  // !COP_METRICS_ENABLED

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  static bool dumper = (MetricsDumper::maybe_start_from_env(), true);
  (void)dumper;
  return *registry;
}

#endif  // COP_METRICS_ENABLED

// ---------------------------------------------------------------------------
// MetricsDumper (built in both modes; with metrics compiled out it writes
// the empty document, making the build difference observable, not silent).

MetricsDumper::MetricsDumper(std::string path, std::uint64_t interval_ms)
    : path_(std::move(path)), interval_ms_(interval_ms) {
  thread_ = named_thread("metrics-dump", [this] { run(); });
}

MetricsDumper::~MetricsDumper() { stop(); }

void MetricsDumper::stop() {
  {
    MutexLock lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void MetricsDumper::run() {
  const auto interval = std::chrono::milliseconds(interval_ms_);
  bool done = false;
  while (!done) {
    {
      CvLock lock(mutex_);
      if (!stopping_) cv_.wait_for(lock, interval);
      done = stopping_;
    }
    // Written even on the stop turn: short-lived processes get one
    // complete final snapshot.
    std::string json = MetricsRegistry::global().snapshot_json();
    if (std::FILE* f = std::fopen(path_.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
    }
  }
}

void MetricsDumper::maybe_start_from_env() {
  static MetricsDumper* dumper = []() -> MetricsDumper* {
    const char* path = std::getenv("COPBFT_METRICS_DUMP");
    if (!path || !*path) return nullptr;
    std::uint64_t ms = 1000;
    if (const char* env = std::getenv("COPBFT_METRICS_DUMP_MS"))
      ms = static_cast<std::uint64_t>(std::atoll(env));
    if (ms == 0) ms = 1000;
    return new MetricsDumper(path, ms);  // leaked: lives for the process
  }();
  (void)dumper;
}

}  // namespace copbft::metrics
