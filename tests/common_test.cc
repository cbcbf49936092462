#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ios>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/antichain.h"
#include "common/clock.h"
#include "common/hash.h"
#include "common/object_pool.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace hyppo {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status status = Status::NotFound("missing artifact");
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.ToString(), "NotFound: missing artifact");
}

TEST(StatusTest, AllConstructorsSetMatchingPredicates) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_TRUE(Status::IoError("x").IsIoError());
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
}

TEST(ReturnNotOkTest, PropagatesError) {
  auto fails = []() -> Status { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    HYPPO_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsInternal());
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(7);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 7);
  EXPECT_EQ(result.ValueOr(3), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::NotFound("nope"));
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
  EXPECT_EQ(result.ValueOr(3), 3);
}

TEST(ResultTest, AssignOrReturnExtractsValue) {
  auto producer = []() -> Result<int> { return 5; };
  auto consumer = [&]() -> Result<int> {
    HYPPO_ASSIGN_OR_RETURN(int value, producer());
    return value + 1;
  };
  EXPECT_EQ(*consumer(), 6);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  auto producer = []() -> Result<int> {
    return Status::OutOfRange("bad");
  };
  auto consumer = [&]() -> Result<int> {
    HYPPO_ASSIGN_OR_RETURN(int value, producer());
    return value + 1;
  };
  EXPECT_TRUE(consumer().status().IsOutOfRange());
}

TEST(HashTest, Fnv1aIsStable) {
  // Known FNV-1a vectors.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(HashTest, DistinctInputsDistinctHashes) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(Fnv1a64("key" + std::to_string(i)));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(HashTest, HashCombineOrderSensitive) {
  EXPECT_NE(HashCombine(HashCombine(0, 1), 2),
            HashCombine(HashCombine(0, 2), 1));
}

TEST(HashTest, HexIsSixteenLowercaseChars) {
  const std::string hex = HashToHex(0x0123456789abcdefULL);
  EXPECT_EQ(hex, "0123456789abcdef");
  EXPECT_EQ(HashToHex(0).size(), 16u);
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 10; ++i) {
    differing += (a.Next() != b.Next()) ? 1 : 0;
  }
  EXPECT_GT(differing, 5);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double draw = rng.NextDouble();
    EXPECT_GE(draw, 0.0);
    EXPECT_LT(draw, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(3);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 4000; ++i) {
    ++counts[rng.Categorical(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0]);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(StringUtilTest, SplitAndJoin) {
  EXPECT_EQ(StrSplit("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrJoin({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(StrJoin({}, "-"), "");
}

TEST(StringUtilTest, Strip) {
  EXPECT_EQ(StripWhitespace("  x y\t\n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("hyppo_core", "hyppo"));
  EXPECT_FALSE(StartsWith("hy", "hyppo"));
  EXPECT_TRUE(EndsWith("plan.cc", ".cc"));
  EXPECT_FALSE(EndsWith("plan.cc", ".h"));
}

TEST(StringUtilTest, Formatting) {
  EXPECT_EQ(FormatDouble(1.25, 4), "1.25");
  EXPECT_EQ(FormatDouble(3.0, 2), "3");
  EXPECT_EQ(FormatBytes(1536.0), "1.5 KiB");
  EXPECT_EQ(FormatSeconds(0.0123), "12.3 ms");
  EXPECT_EQ(FormatSeconds(2.5), "2.5 s");
}

TEST(StringUtilTest, JsonEscapeBasics) {
  EXPECT_EQ(JsonEscape("plain ascii 123"), "plain ascii 123");
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(JsonEscape("a\nb\tc\rd\be\ff"), "a\\nb\\tc\\rd\\be\\ff");
  EXPECT_EQ(JsonEscape(""), "");
  // Bytes >= 0x20 pass through, including UTF-8 multibyte sequences.
  EXPECT_EQ(JsonEscape("naïve — ünïcode"), "naïve — ünïcode");
}

// Every control character below 0x20 must be escaped — a raw one inside
// a JSON string literal makes the whole document unparseable. The named
// shorthands are used where JSON defines them, \u00XX elsewhere.
TEST(StringUtilTest, JsonEscapeFullControlRange) {
  for (int c = 0; c < 0x20; ++c) {
    const std::string in(1, static_cast<char>(c));
    const std::string out = JsonEscape(in);
    // No raw control byte survives.
    for (const char ch : out) {
      EXPECT_GE(static_cast<unsigned char>(ch), 0x20u)
          << "raw control byte in escape of 0x" << std::hex << c;
    }
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0], '\\') << "control 0x" << std::hex << c;
    switch (c) {
      case '\b':
        EXPECT_EQ(out, "\\b");
        break;
      case '\f':
        EXPECT_EQ(out, "\\f");
        break;
      case '\n':
        EXPECT_EQ(out, "\\n");
        break;
      case '\r':
        EXPECT_EQ(out, "\\r");
        break;
      case '\t':
        EXPECT_EQ(out, "\\t");
        break;
      default: {
        char expected[8];
        std::snprintf(expected, sizeof(expected), "\\u%04x", c);
        EXPECT_EQ(out, expected) << "control 0x" << std::hex << c;
      }
    }
  }
  // DEL (0x7f) and high bytes are not control characters JSON requires
  // escaping; they pass through.
  EXPECT_EQ(JsonEscape("\x7f"), "\x7f");
}

TEST(ClockTest, VirtualClockAdvances) {
  VirtualClock clock;
  EXPECT_EQ(clock.Now(), 0.0);
  clock.Advance(1.5);
  EXPECT_EQ(clock.Now(), 1.5);
  Stopwatch watch(clock);
  clock.Advance(0.25);
  EXPECT_DOUBLE_EQ(watch.Elapsed(), 0.25);
}

TEST(ClockTest, WallClockMonotone) {
  WallClock clock;
  const double t0 = clock.Now();
  const double t1 = clock.Now();
  EXPECT_GE(t1, t0);
}

TEST(ObjectPoolTest, RecyclesReleasedObjects) {
  ObjectPool<std::vector<int>> pool;
  EXPECT_EQ(pool.available(), 0u);
  std::vector<int> v = pool.Acquire();
  v.assign(100, 7);
  const int* data = v.data();
  pool.Release(std::move(v));
  EXPECT_EQ(pool.available(), 1u);
  std::vector<int> reused = pool.Acquire();
  EXPECT_EQ(pool.available(), 0u);
  // The released object's buffer comes back (capacity is retained).
  EXPECT_EQ(reused.data(), data);
  EXPECT_GE(reused.capacity(), 100u);
}

TEST(ObjectPoolTest, AcquireOnEmptyDefaultConstructs) {
  ObjectPool<std::string> pool;
  EXPECT_TRUE(pool.Acquire().empty());
}

TEST(BitsetContainsTest, SubsetSemantics) {
  EXPECT_TRUE(BitsetContains({0b1110, 0b1}, {0b0110, 0b1}));
  EXPECT_TRUE(BitsetContains({0b1110, 0b1}, {0b1110, 0b1}));  // equality
  EXPECT_FALSE(BitsetContains({0b0110, 0b1}, {0b1110, 0b1}));
  EXPECT_FALSE(BitsetContains({0b1110, 0b0}, {0b0010, 0b1}));
  EXPECT_TRUE(BitsetContains({}, {}));  // empty contains empty
}

TEST(AntichainTableTest, SupersetAtLowerCostDominates) {
  AntichainTable<int> table;
  // visited {0,1} at cost 2 dominates visited {0} at cost >= 2.
  EXPECT_TRUE(table.Improve(7, {0b011}, 2.0));
  EXPECT_FALSE(table.Improve(7, {0b001}, 2.0));  // subset, equal cost
  EXPECT_FALSE(table.Improve(7, {0b011}, 3.0));  // equal set, worse cost
  EXPECT_TRUE(table.Improve(7, {0b001}, 1.0));   // subset but cheaper
  EXPECT_EQ(table.size(), 2);
  EXPECT_EQ(table.num_keys(), 1);
}

TEST(AntichainTableTest, InsertErasesEntriesItDominates) {
  AntichainTable<int> table;
  EXPECT_TRUE(table.Improve(0, {0b001}, 5.0));
  EXPECT_TRUE(table.Improve(0, {0b010}, 5.0));  // incomparable: coexists
  EXPECT_EQ(table.size(), 2);
  // A superset at lower cost swallows both.
  EXPECT_TRUE(table.Improve(0, {0b011}, 4.0));
  EXPECT_EQ(table.size(), 1);
  EXPECT_DOUBLE_EQ(table.BestDominating(0, {0b001}, 1e18), 4.0);
}

TEST(AntichainTableTest, BestDominatingFindsSupersetsOnly) {
  AntichainTable<int> table;
  EXPECT_TRUE(table.Improve(3, {0b110}, 2.0));
  // {0b010} is a subset of the stored {0b110}: dominated at cost 2.
  EXPECT_DOUBLE_EQ(table.BestDominating(3, {0b010}, 99.0), 2.0);
  // {0b001} is not contained in {0b110}: fallback.
  EXPECT_DOUBLE_EQ(table.BestDominating(3, {0b001}, 99.0), 99.0);
  // Unknown key: fallback.
  EXPECT_DOUBLE_EQ(table.BestDominating(4, {0b010}, 99.0), 99.0);
}

TEST(AntichainTableTest, KeysPartitionTheSpace) {
  // Same bitset and cost under different keys never interact (the
  // optimizer keys by frontier: dominance only holds frontier-to-equal-
  // frontier).
  AntichainTable<std::string> table;
  EXPECT_TRUE(table.Improve("f1", {0b111}, 1.0));
  EXPECT_TRUE(table.Improve("f2", {0b001}, 5.0));
  EXPECT_DOUBLE_EQ(table.BestDominating("f2", {0b001}, 1e18), 5.0);
  EXPECT_EQ(table.num_keys(), 2);
}

// Every key hashes to the same bucket: two distinct keys MUST still keep
// distinct antichains. This is the dominance-soundness regression for
// the optimizer, which once keyed its dominance map on a bare 64-bit
// state signature — a hash collision between two different
// (visited, frontier) states could prune a cheaper optimal plan. The
// table stores full keys, so colliding frontiers stay distinct.
// (Ported from the retired ShardedMinTable, which this structure
// replaced in the optimizer.)
TEST(AntichainTableTest, HashCollisionsDoNotMergeKeys) {
  struct ConstantHash {
    size_t operator()(const std::string&) const { return 42; }
  };
  AntichainTable<std::string, ConstantHash> table;
  EXPECT_TRUE(table.Improve("cheap-frontier", {0b1}, 1.0));
  // Same hash, different key: must not be dominated by "cheap-frontier".
  EXPECT_TRUE(table.Improve("expensive-frontier", {0b1}, 9.0));
  EXPECT_DOUBLE_EQ(table.BestDominating("cheap-frontier", {0b1}, 1e18), 1.0);
  EXPECT_DOUBLE_EQ(table.BestDominating("expensive-frontier", {0b1}, 1e18),
                   9.0);
  EXPECT_EQ(table.size(), 2);
  EXPECT_EQ(table.num_keys(), 2);
}

// Waits until `count` reaches `expected` or 10 s pass; false on timeout.
// Items that must run at the same time meet here, so a schedule that
// serializes them fails the test instead of hanging it.
bool Rendezvous(std::atomic<int>& count, int expected) {
  count.fetch_add(1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (count.load() < expected) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

// Two external threads share one pool: each caller's ParallelFor returns
// once its own items are done, while the other caller's items are still
// blocked, so neither waits on the other's work.
TEST(ThreadPoolReentrancyTest, ConcurrentCallersFinishIndependently) {
  ThreadPool pool(2);
  std::atomic<bool> release_slow{false};
  std::atomic<int> slow_started{0};
  std::atomic<int> fast_done{0};
  std::thread slow_caller([&]() {
    pool.ParallelFor(2, [&](int64_t) {
      slow_started.fetch_add(1);
      while (!release_slow.load()) {
        std::this_thread::yield();
      }
    });
  });
  while (slow_started.load() == 0) {
    std::this_thread::yield();
  }
  pool.ParallelFor(16, [&](int64_t) { fast_done.fetch_add(1); });
  EXPECT_EQ(fast_done.load(), 16);
  release_slow.store(true);
  slow_caller.join();
  EXPECT_EQ(slow_started.load(), 2);
}

// A ParallelFor nested in an item that runs on a worker completes: the
// worker runs the nested items itself when nobody else is free (here the
// pool's only worker and the caller are both inside the outer items).
TEST(ThreadPoolNestingTest, WaitFromWorkerReturns) {
  ThreadPool pool(1);
  std::atomic<int> outer_started{0};
  std::atomic<int> nested_runs{0};
  std::atomic<bool> met{true};
  pool.ParallelFor(2, [&](int64_t) {
    // Both outer items run at once, so one of them is on the worker.
    met = Rendezvous(outer_started, 2) && met;
    pool.ParallelFor(8, [&](int64_t) { nested_runs.fetch_add(1); });
  });
  EXPECT_TRUE(met.load());
  EXPECT_EQ(nested_runs.load(), 16);
}

// A ParallelFor nested in a worker's item gets help from idle workers:
// its two items must run at the same time, which takes a second thread.
TEST(ThreadPoolNestingTest, NestedParallelForGetsHelp) {
  ThreadPool pool(3);
  std::atomic<int> outer_started{0};
  std::atomic<int> nested_started{0};
  std::atomic<bool> met{true};
  std::mutex ids_mutex;
  std::set<std::thread::id> nested_threads;
  const std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(2, [&](int64_t) {
    met = Rendezvous(outer_started, 2) && met;
    if (std::this_thread::get_id() == caller) {
      return;  // nest from the worker only
    }
    pool.ParallelFor(2, [&](int64_t) {
      met = Rendezvous(nested_started, 2) && met;
      std::lock_guard<std::mutex> lock(ids_mutex);
      nested_threads.insert(std::this_thread::get_id());
    });
  });
  EXPECT_TRUE(met.load());
  EXPECT_EQ(nested_threads.size(), 2u);
}

}  // namespace
}  // namespace hyppo
