// Allocation budget of the agreement path. This binary replaces the global
// operator new with a counting one, drives an in-process COP cluster (real
// SHA-256/HMAC, NullService, unbatched) through a fixed number of ops
// after warm-up, and bounds the operator new calls per op, summed over
// the four replicas and the clients.
//
// The bound is the measured count plus about a quarter (docs/performance.md
// "Change 14"): deep-copied batches, a tree node per vote, a map node per
// instance or digest inputs built by growing a vector each exceed it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "support/cluster_fixture.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define COP_ALLOC_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define COP_ALLOC_SANITIZED 1
#endif
#endif

namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

// Sanitizer runtimes bring their own operator new; under them the binary
// keeps it and the count reads zero.
#ifndef COP_ALLOC_SANITIZED
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace copbft::test {
namespace {

/// Runs `ops` requests through each of the two clients and waits for all
/// of them.
void run_ops(client::Client& a, client::Client& b, int ops) {
  std::atomic<int> done{0};
  const auto count = [&done](Bytes, std::uint64_t) { ++done; };
  for (int i = 0; i < ops; ++i) {
    ASSERT_TRUE(a.invoke_async(to_bytes("op-a"), 0, count));
    ASSERT_TRUE(b.invoke_async(to_bytes("op-b"), 0, count));
  }
  a.drain();
  b.drain();
  ASSERT_EQ(done.load(), 2 * ops);
}

TEST(AllocationBudget, CopAgreementStaysWithinItsBudget) {
  // Measured 110-134 per op, alone and with up to eight copies running
  // at once; 218-226 with per-vote tree nodes, a map node per instance,
  // deep-copied batches and growing digest buffers.
  constexpr double kBudgetPerOp = 155;
  constexpr int kWarmupOps = 600;
  constexpr int kMeasuredOps = 2000;

  ClusterOptions options;
  options.num_pillars = 2;
  options.runtime.protocol.max_batch = 1;
  Cluster cluster(std::move(options));
  cluster.start();
  auto& a = cluster.add_client_on_pillar(0, /*window=*/16);
  auto& b = cluster.add_client_on_pillar(1, /*window=*/16);

  // Warm-up grows every reused buffer to its working size and runs the
  // instance log through several checkpoint intervals.
  run_ops(a, b, kWarmupOps);
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  run_ops(a, b, kMeasuredOps);
  const std::uint64_t news =
      g_news.load(std::memory_order_relaxed) - before;

#ifdef COP_ALLOC_SANITIZED
  GTEST_SKIP() << "the sanitizer's allocator replaces the counting "
                  "operator new; the cluster ran, the budget is not checked";
#endif
  const double per_op = static_cast<double>(news) / (2 * kMeasuredOps);
  RecordProperty("allocations_per_op", std::to_string(per_op));
  std::printf("operator new calls per op: %.1f\n", per_op);
  EXPECT_LE(per_op, kBudgetPerOp);
}

}  // namespace
}  // namespace copbft::test
