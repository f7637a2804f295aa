// Observability subsystem: metrics registry (counters/gauges/histogram
// timers), queue instrumentation, JSON snapshots and the request-lifecycle
// trace — including an end-to-end check that a threaded COP cluster
// produces non-zero pillar/execution/transport series and a trace from
// which one request's full path is reconstructible.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/queue.hpp"
#include "common/trace.hpp"
#include "support/cluster_fixture.hpp"
#include "support/json_check.hpp"

namespace copbft::test {
namespace {

// The JSON mini-validator used throughout this file is the shared one from
// bench/support/json_check.hpp — the same definition of "well-formed" the
// validate_bench_json CLI enforces on BENCH_*.json artifacts in CI.
using copbft::bench::JsonCheck;

TEST(JsonCheckSelfTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonCheck(R"({"a":[1,2.5,-3e4],"b":{"c":"x\"y"},"d":null})").valid());
  EXPECT_TRUE(JsonCheck("[]").valid());
  EXPECT_FALSE(JsonCheck(R"({"a":1,})").valid());
  EXPECT_FALSE(JsonCheck(R"({"a":inf})").valid());
  EXPECT_FALSE(JsonCheck(R"({"a":1)").valid());
  EXPECT_FALSE(JsonCheck(R"(["unterminated)").valid());
}

#if COP_METRICS_ENABLED

// ---- counters / gauges / histograms -----------------------------------

TEST(Metrics, CounterAggregatesAcrossThreads) {
  metrics::Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Metrics, GaugeTracksValueAndWatermark) {
  metrics::Gauge g;
  g.set(5);
  g.set(42);
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  EXPECT_EQ(g.max(), 42);
  g.add(-3);
  EXPECT_EQ(g.value(), 4);
  EXPECT_EQ(g.max(), 42);
}

TEST(Metrics, HistogramMetricMatchesPlainHistogram) {
  metrics::HistogramMetric m;
  Histogram plain;
  Rng rng(11);
  for (int i = 0; i < 10'000; ++i) {
    std::uint64_t v = rng.below(500'000);
    m.record(v);
    plain.record(v);
  }
  Histogram snap = m.snapshot();
  EXPECT_EQ(snap.count(), plain.count());
  EXPECT_EQ(snap.min(), plain.min());
  EXPECT_EQ(snap.max(), plain.max());
  EXPECT_DOUBLE_EQ(snap.mean(), plain.mean());
  for (double q : {0.5, 0.9, 0.99})
    EXPECT_EQ(snap.percentile(q), plain.percentile(q)) << "q=" << q;
}

TEST(Metrics, RegistryReturnsStableHandles) {
  auto& reg = metrics::MetricsRegistry::global();
  EXPECT_EQ(&reg.counter("test.stable.c"), &reg.counter("test.stable.c"));
  EXPECT_EQ(&reg.gauge("test.stable.g"), &reg.gauge("test.stable.g"));
  EXPECT_EQ(&reg.histogram("test.stable.h"), &reg.histogram("test.stable.h"));
}

// Scrapes must be able to run concurrently with recording threads (this is
// the TSan-facing test: sanitizer presets run the whole suite).
TEST(Metrics, SnapshotDuringUpdateIsSafe) {
  auto& reg = metrics::MetricsRegistry::global();
  auto& c = reg.counter("test.race.counter");
  auto& h = reg.histogram("test.race.hist");
  auto& g = reg.gauge("test.race.gauge");
  const std::uint64_t before = c.value();

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerThread = 20'000;
  for (int t = 0; t < kWriters; ++t)
    writers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.add();
        g.set(static_cast<std::int64_t>(i));
        h.record(i);
      }
    });

  std::uint64_t scrapes = 0;
  std::uint64_t last = before;
  while (scrapes < 50) {
    std::string json = reg.snapshot_json();
    ASSERT_TRUE(JsonCheck(json).valid()) << json.substr(0, 200);
    std::uint64_t now = c.value();
    EXPECT_GE(now, last) << "counter went backwards";
    last = now;
    ++scrapes;
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_EQ(c.value(), before + kWriters * kPerThread);
  EXPECT_EQ(h.snapshot().max(), kPerThread - 1);
}

TEST(Metrics, SnapshotJsonValidWithSortedStableKeys) {
  auto& reg = metrics::MetricsRegistry::global();
  // Register out of order; the snapshot must sort them.
  reg.counter("test.order.zz").add();
  reg.counter("test.order.aa").add();
  reg.counter("test.order.mm").add();
  std::string json = reg.snapshot_json();
  ASSERT_TRUE(JsonCheck(json).valid()) << json.substr(0, 200);
  auto a = json.find("\"test.order.aa\"");
  auto m = json.find("\"test.order.mm\"");
  auto z = json.find("\"test.order.zz\"");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(m, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, m);
  EXPECT_LT(m, z);
  // Two consecutive snapshots emit identical key sets in identical order.
  std::string again = reg.snapshot_json();
  EXPECT_EQ(json, again);
}

// ---- queue instrumentation --------------------------------------------

TEST(MetricsQueue, DepthGaugeAndBlockedPushCounter) {
  BoundedQueue<int> q(2);
  metrics::Gauge depth;
  metrics::Counter blocked;
  q.instrument(depth, blocked);

  q.push(1);
  EXPECT_EQ(depth.value(), 1);
  q.push(2);
  EXPECT_EQ(depth.value(), 2);

  std::thread blocked_pusher([&q] { q.push(3); });
  while (blocked.value() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(q.pop(), 1);
  blocked_pusher.join();
  EXPECT_EQ(blocked.value(), 1u);
  EXPECT_EQ(depth.value(), 2);
  EXPECT_EQ(depth.max(), 2);

  q.pop();
  q.pop();
  EXPECT_EQ(depth.value(), 0);
  EXPECT_EQ(depth.max(), 2) << "watermark survives the drain";
}

TEST(MetricsQueue, TryPushCountsBlockedLikePush) {
  BoundedQueue<int> q(1);
  metrics::Gauge depth;
  metrics::Counter blocked;
  q.instrument(depth, blocked);

  ASSERT_TRUE(q.try_push(1));
  EXPECT_EQ(blocked.value(), 0u) << "successful pushes are not backpressure";

  // A full queue rejects — and must count, exactly like push counts its
  // full-queue waits, or dashboards undercount backpressure wherever the
  // caller uses the non-blocking path (e.g. a client Inbox's try_deliver).
  EXPECT_FALSE(q.try_push(2));
  EXPECT_EQ(blocked.value(), 1u);

  int kept = 3;
  EXPECT_FALSE(q.try_push_ref(kept));
  EXPECT_EQ(kept, 3) << "try_push_ref leaves the value intact on failure";
  EXPECT_EQ(blocked.value(), 2u);

  // Closed-queue rejection is shutdown, not backpressure: no count.
  q.close();
  EXPECT_FALSE(q.try_push(4));
  EXPECT_FALSE(q.try_push_ref(kept));
  EXPECT_EQ(blocked.value(), 2u);
}

#endif  // COP_METRICS_ENABLED

// ---- request-lifecycle trace ------------------------------------------

TEST(Trace, DisabledCostsNothingAndRecordsNothing) {
  auto& log = trace::TraceLog::instance();
  log.disable();
  trace::point(trace::Point::kExecute, 1, 2, 3, 4, 5, 6);
  EXPECT_TRUE(log.snapshot().empty() || !log.enabled());
}

TEST(Trace, RingKeepsNewestOldestFirst) {
  auto& log = trace::TraceLog::instance();
  log.enable(/*capacity=*/8);
  for (std::uint64_t i = 1; i <= 20; ++i)
    trace::point(trace::Point::kExecute, 0, 0, i, 0, 0, i);
  auto events = log.snapshot();
  log.disable();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].seq, 13 + i) << "oldest-first, newest kept";
}

TEST(Trace, SnapshotJsonIsValid) {
  auto& log = trace::TraceLog::instance();
  log.enable(16);
  trace::point(trace::Point::kClientSend, 1, 0, 0, 0, 1001, 1);
  trace::point(trace::Point::kCommit, 0, 1, 42, 0, 0, 0);
  std::string json = log.snapshot_json();
  log.disable();
  EXPECT_TRUE(JsonCheck(json).valid()) << json;
  EXPECT_NE(json.find("\"point\":\"client_send\""), std::string::npos);
  EXPECT_NE(json.find("\"point\":\"commit\""), std::string::npos);
  EXPECT_NE(json.find("\"seq\":42"), std::string::npos);
}

// ---- end to end: threaded COP cluster ---------------------------------

#if COP_METRICS_ENABLED

TEST(MetricsCluster, ClusterRunProducesSeriesAndReconstructibleTrace) {
  auto& reg = metrics::MetricsRegistry::global();
  auto& pillar_frames = reg.counter("replica0.pillar0.frames_in");
  auto& pillar_reqs = reg.counter("replica0.pillar0.requests_in");
  auto& exec_reqs = reg.counter("replica0.exec.requests_executed");
  auto& replies = reg.counter("replica0.exec.replies_sent");
  auto& transport_frames = reg.counter("inproc.lane0.frames");
  auto& client_sent = reg.counter("client.requests_sent");
  const std::uint64_t p0 = pillar_frames.value();
  const std::uint64_t r0 = pillar_reqs.value();
  const std::uint64_t e0 = exec_reqs.value();
  const std::uint64_t y0 = replies.value();
  const std::uint64_t t0 = transport_frames.value();
  const std::uint64_t c0 = client_sent.value();

  trace::TraceLog::instance().enable();
  std::uint64_t cid = 0;
  {
    ClusterOptions options;
    options.arch = Arch::kCop;
    options.num_pillars = 2;
    Cluster cluster(options);
    cluster.start();
    auto& client = cluster.add_client_on_pillar(0);
    cid = client.id();
    for (int i = 0; i < 20; ++i)
      ASSERT_TRUE(client.invoke(to_bytes("m" + std::to_string(i))))
          << "request " << i;
  }
  trace::TraceLog::instance().disable();

  EXPECT_GT(pillar_frames.value(), p0) << "pillar saw protocol frames";
  EXPECT_GE(pillar_reqs.value(), r0 + 20) << "pillar ingested the requests";
  EXPECT_GE(exec_reqs.value(), e0 + 20) << "execution stage ran them";
  EXPECT_GE(replies.value(), y0 + 20) << "replies went out";
  EXPECT_GT(transport_frames.value(), t0) << "transport moved frames";
  EXPECT_GE(client_sent.value(), c0 + 20);

  std::string json = reg.snapshot_json();
  ASSERT_TRUE(JsonCheck(json).valid());
  for (const char* key :
       {"\"replica0.pillar0.frames_in\"", "\"replica0.exec.execute_us\"",
        "\"replica0.pillar0.queue_depth\"", "\"client.latency_us\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;

  // Reconstruct one request's path from the trace: the stable result names
  // (client, request); the execute event links them to a sequence number;
  // the commit event confirms that instance finished consensus.
  auto events = trace::TraceLog::instance().snapshot();
  const trace::Event* stable = nullptr;
  for (const auto& e : events)
    if (e.point == trace::Point::kStableResult && e.client == cid) stable = &e;
  ASSERT_NE(stable, nullptr) << "no stable result traced for client " << cid;

  const trace::Event* execute = nullptr;
  bool sent = false, ingress = false;
  for (const auto& e : events) {
    if (e.client != cid || e.request != stable->request) continue;
    if (e.point == trace::Point::kClientSend) sent = true;
    if (e.point == trace::Point::kPillarIngress) ingress = true;
    if (e.point == trace::Point::kExecute) execute = &e;
  }
  EXPECT_TRUE(sent) << "client send missing from trace";
  EXPECT_TRUE(ingress) << "pillar ingress missing from trace";
  ASSERT_NE(execute, nullptr) << "execute event missing from trace";

  bool committed = false;
  for (const auto& e : events)
    if (e.point == trace::Point::kCommit && e.seq == execute->seq &&
        e.pillar == execute->pillar)
      committed = true;
  EXPECT_TRUE(committed) << "no commit for seq " << execute->seq;

  // The egress event carries the (pillar, seq) join key of the instance
  // the request executed in; pillar=0, seq=0 would break trace joins.
  bool egress = false;
  for (const auto& e : events) {
    if (e.point != trace::Point::kReplyEgress || e.client != cid ||
        e.request != stable->request)
      continue;
    EXPECT_NE(e.seq, 0u) << "reply egress lost its sequence number";
    EXPECT_EQ(e.pillar, e.seq % 2) << "egress pillar must be seq % NP";
    egress = true;
  }
  EXPECT_TRUE(egress) << "no reply egress traced for the stable request";
}

#endif  // COP_METRICS_ENABLED

}  // namespace
}  // namespace copbft::test
