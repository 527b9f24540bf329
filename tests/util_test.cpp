// Unit and property tests for the nees::util foundation layer.
#include <algorithm>
#include <latch>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "util/bytes.h"
#include "util/clock.h"
#include "util/frame_pool.h"
#include "util/logging.h"
#include "util/open_hash.h"
#include "util/periodic.h"
#include "util/queue.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/sha256.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/uuid.h"

namespace nees::util {
namespace {

// --- Status / Result --------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kOk);
  EXPECT_EQ(status.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = TimeoutError("link down");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kTimeout);
  EXPECT_EQ(status.message(), "link down");
  EXPECT_EQ(status.ToString(), "Timeout: link down");
}

TEST(StatusTest, TransientClassification) {
  EXPECT_TRUE(TimeoutError("x").transient());
  EXPECT_TRUE(Unavailable("x").transient());
  EXPECT_FALSE(PermissionDenied("x").transient());
  EXPECT_FALSE(PolicyViolation("x").transient());
  EXPECT_FALSE(OkStatus().transient());
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int code = 0; code <= static_cast<int>(ErrorCode::kSafetyInterlock);
       ++code) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(code)), "Unknown");
  }
}

// GCC 12 at -O3 warns that ~Result<int> may destroy an uninitialized Status
// alternative; the variant index check makes that path unreachable (GCC
// bug 105593 family), so the warning is suppressed for this test only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

TEST(ResultTest, HoldsError) {
  Result<int> result(NotFound("missing"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> result(std::make_unique<int>(7));
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> taken = std::move(result).value();
  EXPECT_EQ(*taken, 7);
}

Status FailingHelper() { return Internal("boom"); }
Status ChainHelper() {
  NEES_RETURN_IF_ERROR(FailingHelper());
  return OkStatus();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(ChainHelper().code(), ErrorCode::kInternal);
}

Result<int> ProduceValue() { return 5; }
Status ConsumeValue(int* out) {
  NEES_ASSIGN_OR_RETURN(*out, ProduceValue());
  return OkStatus();
}

TEST(ResultTest, AssignOrReturnExtracts) {
  int value = 0;
  ASSERT_TRUE(ConsumeValue(&value).ok());
  EXPECT_EQ(value, 5);
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double value = rng.UniformDouble();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(RngTest, UniformIntCoversFullRange) {
  Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliApproximatesProbability) {
  Rng rng(99);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(2024);
  SampleStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(5);
  SampleStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Exponential(2.5));
  EXPECT_NEAR(stats.mean(), 2.5, 0.1);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(11);
  Rng child = parent.Split();
  EXPECT_NE(parent.NextU64(), child.NextU64());
}

// --- SHA-256 (FIPS 180-4 known-answer tests) ---------------------------------

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::HexHash(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::HexHash("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(Sha256::HexHash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string text = "The MOST experiment ran 1500 steps over 5 hours.";
  Sha256 hasher;
  for (char c : text) hasher.Update(&c, 1);
  EXPECT_EQ(ToHex(hasher.Finish()), Sha256::HexHash(text));
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.Update(chunk);
  EXPECT_EQ(ToHex(hasher.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, HmacRfc4231Case1) {
  // RFC 4231 test case 2: key "Jefe", data "what do ya want for nothing?".
  const auto mac = HmacSha256("Jefe", "what do ya want for nothing?");
  EXPECT_EQ(ToHex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Sha256Test, HmacLongKeyIsHashed) {
  const std::string long_key(131, 0xaa);
  const auto mac = HmacSha256(
      long_key, "Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(ToHex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- Bytes -------------------------------------------------------------------

TEST(BytesTest, RoundTripScalars) {
  ByteWriter writer;
  writer.WriteU8(7);
  writer.WriteU16(65535);
  writer.WriteU32(123456789);
  writer.WriteU64(0xDEADBEEFCAFEBABEULL);
  writer.WriteI64(-42);
  writer.WriteDouble(3.14159);
  writer.WriteBool(true);
  writer.WriteString("hello");

  ByteReader reader(writer.data());
  EXPECT_EQ(reader.ReadU8().value(), 7);
  EXPECT_EQ(reader.ReadU16().value(), 65535);
  EXPECT_EQ(reader.ReadU32().value(), 123456789u);
  EXPECT_EQ(reader.ReadU64().value(), 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(reader.ReadI64().value(), -42);
  EXPECT_DOUBLE_EQ(reader.ReadDouble().value(), 3.14159);
  EXPECT_TRUE(reader.ReadBool().value());
  EXPECT_EQ(reader.ReadString().value(), "hello");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BytesTest, RoundTripDoubleVector) {
  ByteWriter writer;
  writer.WriteDoubleVector({1.5, -2.5, 0.0, 1e300});
  ByteReader reader(writer.data());
  const auto values = reader.ReadDoubleVector();
  ASSERT_TRUE(values.ok());
  EXPECT_EQ(*values, (std::vector<double>{1.5, -2.5, 0.0, 1e300}));
}

TEST(BytesTest, UnderrunReturnsDataLoss) {
  ByteWriter writer;
  writer.WriteU8(1);
  ByteReader reader(writer.data());
  EXPECT_TRUE(reader.ReadU8().ok());
  EXPECT_EQ(reader.ReadU32().status().code(), ErrorCode::kDataLoss);
}

TEST(BytesTest, CorruptStringLengthRejected) {
  ByteWriter writer;
  writer.WriteU32(1000);  // claims 1000 bytes, provides none
  ByteReader reader(writer.data());
  EXPECT_EQ(reader.ReadString().status().code(), ErrorCode::kDataLoss);
}

TEST(BytesTest, EmptyBuffer) {
  std::vector<std::uint8_t> empty;
  ByteReader reader(empty);
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_FALSE(reader.ReadU8().ok());
}

// Property: arbitrary byte sequences never crash the reader.
class BytesFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(BytesFuzzTest, RandomBytesNeverCrash) {
  Rng rng(GetParam());
  std::vector<std::uint8_t> junk(rng.UniformInt(0, 200));
  for (auto& byte : junk) byte = static_cast<std::uint8_t>(rng.NextU64());
  ByteReader reader(junk);
  // Repeatedly read mixed types; every call must return a valid Result.
  while (!reader.AtEnd()) {
    if (!reader.ReadString().ok()) break;
  }
  ByteReader reader2(junk);
  while (!reader2.AtEnd()) {
    if (!reader2.ReadDoubleVector().ok()) break;
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytesFuzzTest, ::testing::Range(0, 20));

// --- Queue -------------------------------------------------------------------

TEST(QueueTest, FifoOrder) {
  BlockingQueue<int> queue;
  queue.Push(1);
  queue.Push(2);
  queue.Push(3);
  EXPECT_EQ(queue.Pop().value(), 1);
  EXPECT_EQ(queue.Pop().value(), 2);
  EXPECT_EQ(queue.Pop().value(), 3);
}

TEST(QueueTest, TryPopEmptyReturnsNullopt) {
  BlockingQueue<int> queue;
  EXPECT_FALSE(queue.TryPop().has_value());
}

TEST(QueueTest, BoundedTryPushRespectsCapacity) {
  BlockingQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));
  queue.TryPop();
  EXPECT_TRUE(queue.TryPush(3));
}

TEST(QueueTest, CloseDrainsThenReturnsNullopt) {
  BlockingQueue<int> queue;
  queue.Push(1);
  queue.Close();
  EXPECT_FALSE(queue.Push(2));
  EXPECT_EQ(queue.Pop().value(), 1);
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST(QueueTest, PopForTimesOut) {
  BlockingQueue<int> queue;
  EXPECT_FALSE(queue.PopFor(std::chrono::milliseconds(5)).has_value());
}

TEST(QueueTest, ProducerConsumerAcrossThreads) {
  BlockingQueue<int> queue(16);
  const int kCount = 1000;
  std::thread producer([&queue] {
    for (int i = 0; i < kCount; ++i) queue.Push(i);
    queue.Close();
  });
  long long sum = 0;
  int received = 0;
  while (auto item = queue.Pop()) {
    sum += *item;
    ++received;
  }
  producer.join();
  EXPECT_EQ(received, kCount);
  EXPECT_EQ(sum, static_cast<long long>(kCount) * (kCount - 1) / 2);
}

// --- Clock -------------------------------------------------------------------

TEST(ClockTest, SystemClockMonotonic) {
  auto& clock = SystemClock::Instance();
  const auto t0 = clock.NowMicros();
  const auto t1 = clock.NowMicros();
  EXPECT_GE(t1, t0);
}

TEST(ClockTest, SimClockAdvancesManually) {
  SimClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.NowMicros(), 150);
  clock.SleepMicros(25);  // virtual sleep advances instantly
  EXPECT_EQ(clock.NowMicros(), 175);
  clock.SetMicros(9);
  EXPECT_EQ(clock.NowMicros(), 9);
}

TEST(ClockTest, StopwatchMeasuresNonNegative) {
  Stopwatch watch;
  EXPECT_GE(watch.ElapsedMicros(), 0);
  EXPECT_GE(watch.ElapsedSeconds(), 0.0);
}

// --- Strings -----------------------------------------------------------------

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("ntcp.propose", "ntcp."));
  EXPECT_FALSE(StartsWith("nt", "ntcp."));
  EXPECT_TRUE(EndsWith("data.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", "data.csv"));
}

TEST(StringsTest, Format) {
  EXPECT_EQ(Format("step %d of %d", 1493, 1500), "step 1493 of 1500");
}

TEST(StringsTest, ParseDouble) {
  double value = 0;
  EXPECT_TRUE(ParseDouble(" 3.5 ", &value));
  EXPECT_DOUBLE_EQ(value, 3.5);
  EXPECT_FALSE(ParseDouble("3.5x", &value));
  EXPECT_FALSE(ParseDouble("", &value));
}

TEST(StringsTest, ParseInt) {
  long long value = 0;
  EXPECT_TRUE(ParseInt("-17", &value));
  EXPECT_EQ(value, -17);
  EXPECT_FALSE(ParseInt("17.5", &value));
}

// --- UUID --------------------------------------------------------------------

TEST(UuidTest, UniqueAndWellFormed) {
  std::set<std::string> ids;
  for (int i = 0; i < 1000; ++i) {
    const std::string id = NewUuid();
    EXPECT_EQ(id.size(), 32u);
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 1000u);
}

TEST(UuidTest, DeterministicFromRng) {
  Rng a(5), b(5);
  EXPECT_EQ(NewUuidFrom(a), NewUuidFrom(b));
}

// --- Stats -------------------------------------------------------------------

TEST(StatsTest, BasicMoments) {
  SampleStats stats;
  for (double v : {1.0, 2.0, 3.0, 4.0}) stats.Add(v);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_NEAR(stats.stddev(), 1.2909944, 1e-6);
}

TEST(StatsTest, Percentiles) {
  SampleStats stats;
  for (int i = 1; i <= 100; ++i) stats.Add(i);
  EXPECT_NEAR(stats.Percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(stats.Percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(stats.Percentile(100), 100.0, 1e-9);
}

TEST(StatsTest, EmptyIsSafe) {
  SampleStats stats;
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.Percentile(50), 0.0);
  EXPECT_EQ(stats.stddev(), 0.0);
}

TEST(StatsTest, TextTableAligns) {
  TextTable table({"site", "steps"});
  table.AddRow({"UIUC", "1500"});
  table.AddRow({"CU", "1493"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| site |"), std::string::npos);
  EXPECT_NE(out.find("| CU   |"), std::string::npos);
}

// --- PeriodicTask -------------------------------------------------------------

TEST(PeriodicTaskTest, RunsRepeatedlyUntilStopped) {
  std::atomic<int> count{0};
  {
    PeriodicTask task(std::chrono::milliseconds(2), [&count] { ++count; });
    while (task.runs() < 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    task.Stop();
    const int at_stop = count;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(count, at_stop);  // no runs after Stop
  }
  EXPECT_GE(count, 3);
}

TEST(PeriodicTaskTest, TriggerNowRunsInline) {
  std::atomic<int> count{0};
  PeriodicTask task(std::chrono::hours(1), [&count] { ++count; });
  task.TriggerNow();
  task.TriggerNow();
  EXPECT_EQ(count, 2);
  task.Stop();
}

TEST(PeriodicTaskTest, StopIsIdempotentAndDestructionIsSafe) {
  PeriodicTask task(std::chrono::milliseconds(1), [] {});
  task.Stop();
  task.Stop();
}

// --- OpenHashMap -------------------------------------------------------------

TEST(OpenHashMapTest, InsertFindErase) {
  OpenHashMap<std::uint64_t, int> map;
  EXPECT_TRUE(map.empty());
  map[7] = 70;
  map[8] = 80;
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(7), 70);
  EXPECT_EQ(map.Find(9), nullptr);
  EXPECT_TRUE(map.Erase(7));
  EXPECT_FALSE(map.Erase(7));
  EXPECT_EQ(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(8), 80);
  EXPECT_EQ(map.size(), 1u);
}

TEST(OpenHashMapTest, FindNeverInsertsAndZeroKeyIsRejected) {
  OpenHashMap<std::uint32_t, int> map;
  EXPECT_EQ(map.Find(1), nullptr);  // empty table: no slots yet
  EXPECT_EQ(map.size(), 0u);
  map[1] = 10;
  EXPECT_EQ(map.Find(0), nullptr);  // 0 is the empty-slot sentinel
  EXPECT_FALSE(map.Erase(0));
}

TEST(OpenHashMapTest, GrowKeepsAllEntries) {
  OpenHashMap<std::uint64_t, std::uint64_t> map;
  constexpr std::uint64_t kCount = 5000;  // forces several rehashes
  for (std::uint64_t key = 1; key <= kCount; ++key) map[key] = key * 3;
  EXPECT_EQ(map.size(), kCount);
  for (std::uint64_t key = 1; key <= kCount; ++key) {
    ASSERT_NE(map.Find(key), nullptr) << key;
    EXPECT_EQ(*map.Find(key), key * 3);
  }
}

TEST(OpenHashMapTest, EraseBackwardShiftPreservesProbeChains) {
  // Sequential correlation-id style keys land in collision chains after
  // mixing; erasing from the middle of the table must never orphan a key
  // behind the erased slot (the classic tombstone-free deletion bug).
  OpenHashMap<std::uint64_t, int> map;
  constexpr std::uint64_t kCount = 512;
  for (std::uint64_t key = 1; key <= kCount; ++key) map[key] = 1;
  for (std::uint64_t key = 2; key <= kCount; key += 2) {
    ASSERT_TRUE(map.Erase(key));
  }
  for (std::uint64_t key = 1; key <= kCount; ++key) {
    if (key % 2 == 1) {
      ASSERT_NE(map.Find(key), nullptr) << "lost odd key " << key;
    } else {
      ASSERT_EQ(map.Find(key), nullptr) << "ghost even key " << key;
    }
  }
  EXPECT_EQ(map.size(), kCount / 2);
}

TEST(OpenHashMapTest, ForEachVisitsEveryEntryOnce) {
  OpenHashMap<std::uint32_t, int> map;
  for (std::uint32_t key = 1; key <= 100; ++key) map[key] = 1;
  int visited = 0;
  std::set<std::uint32_t> seen;
  map.ForEach([&](std::uint32_t key, int&) {
    ++visited;
    seen.insert(key);
  });
  EXPECT_EQ(visited, 100);
  EXPECT_EQ(seen.size(), 100u);
}

// --- FramePool ---------------------------------------------------------------

TEST(FramePoolTest, ReleaseThenAcquireReusesBuffer) {
  FramePool& pool = FramePool::Instance();
  // A capacity this specific cannot be satisfied from frames other tests
  // released, so the first acquire mints and the second must reuse.
  constexpr std::size_t kBytes = 1'234'567;
  const FramePool::Stats before = pool.stats();
  std::vector<std::uint8_t> frame = pool.Acquire(kBytes);
  frame.assign(16, 0xAB);
  pool.Release(std::move(frame));
  std::vector<std::uint8_t> again = pool.Acquire(kBytes);
  const FramePool::Stats after = pool.stats();
  EXPECT_TRUE(again.empty());  // contents discarded
  EXPECT_GE(again.capacity(), kBytes);  // capacity kept
  EXPECT_GE(after.reused, before.reused + 1);
  EXPECT_GE(after.returned, before.returned + 1);
  pool.Release(std::move(again));
}

TEST(FramePoolTest, LargeRequestDoesNotRegrowSmallFrames) {
  // Size classes: a large acquire must mint fresh rather than repeatedly
  // realloc a recycled small buffer (which would defeat the pool).
  FramePool& pool = FramePool::Instance();
  constexpr std::size_t kLarge = 4096;  // comfortably in the large class
  // Drain every recyclable large frame so the gated acquire cannot hit one
  // (the pool is process-wide; earlier tests may have stocked it).
  std::vector<std::vector<std::uint8_t>> drained;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t minted_before = pool.stats().minted;
    std::vector<std::uint8_t> frame = pool.Acquire(kLarge);
    const bool fresh = pool.stats().minted > minted_before;
    drained.push_back(std::move(frame));
    if (fresh) break;  // freelist exhausted: large list is now empty
  }
  pool.Release(std::vector<std::uint8_t>(64, 0));  // a small frame waits
  const FramePool::Stats before = pool.stats();
  std::vector<std::uint8_t> frame = pool.Acquire(kLarge);
  const FramePool::Stats after = pool.stats();
  EXPECT_EQ(after.minted, before.minted + 1);
  EXPECT_GE(frame.capacity(), kLarge);
  pool.Release(std::move(frame));
  for (auto& d : drained) pool.Release(std::move(d));
}

// Empties the depot: a fresh thread takes small requests (which fall back
// to large frames) until one mints, at which point both depot classes are
// empty, then frees what it took instead of handing it back. Frames cached
// by other live threads stay where they are.
void DrainDepot() {
  std::thread([] {
    FramePool& pool = FramePool::Instance();
    std::vector<std::vector<std::uint8_t>> taken;
    while (true) {
      const std::uint64_t minted = pool.stats().minted;
      taken.push_back(pool.Acquire());
      if (pool.stats().minted > minted) break;
    }
  }).join();
}

TEST(FramePoolTest, CrossThreadHandoffRecyclesThroughDepot) {
  // One thread acquires, another releases: frames must flow back to the
  // producer through the depot instead of piling up in the consumer's
  // cache, so minting stops once the pipeline is full.
  FramePool& pool = FramePool::Instance();
  DrainDepot();
  constexpr int kRounds = 10'000;
  constexpr std::size_t kQueueDepth = 8;
  const FramePool::Stats before = pool.stats();
  BlockingQueue<std::vector<std::uint8_t>> queue(kQueueDepth);
  std::thread consumer([&] {
    while (auto frame = queue.Pop()) pool.Release(std::move(*frame));
  });
  std::thread producer([&] {
    for (int i = 0; i < kRounds; ++i) {
      std::vector<std::uint8_t> frame = pool.Acquire(64);
      frame.assign(64, static_cast<std::uint8_t>(i));
      queue.Push(std::move(frame));
    }
    queue.Close();
  });
  producer.join();
  consumer.join();
  const FramePool::Stats after = pool.stats();
  const std::uint64_t minted = after.minted - before.minted;
  // In flight at any mint: the consumer's cache, the queue, one frame in
  // each thread's hands, and less than one batch on its way to the depot.
  EXPECT_LE(minted, FramePool::kThreadCacheFrames + FramePool::kBatchFrames +
                        kQueueDepth);
  EXPECT_EQ(after.reused - before.reused, kRounds - minted);
  EXPECT_EQ(after.returned - before.returned,
            static_cast<std::uint64_t>(kRounds));
}

TEST(FramePoolTest, StatsCountExactlyAcrossLiveAndExitedThreads) {
  FramePool& pool = FramePool::Instance();
  constexpr int kThreads = 4;
  constexpr std::uint64_t kOps = 3 * FramePool::kThreadCacheFrames;
  const FramePool::Stats before = pool.stats();
  std::latch worked(kThreads);
  std::latch exit(1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<std::vector<std::uint8_t>> frames;
      for (std::uint64_t i = 0; i < kOps; ++i) {
        frames.push_back(pool.Acquire(i % 2 == 0 ? 16 : 2048));
      }
      for (auto& frame : frames) pool.Release(std::move(frame));
      worked.count_down();
      exit.wait();
    });
  }
  worked.wait();
  const FramePool::Stats live = pool.stats();
  EXPECT_EQ(live.minted + live.reused - before.minted - before.reused,
            kThreads * kOps);
  EXPECT_EQ(live.returned - before.returned, kThreads * kOps);
  exit.count_down();
  for (std::thread& thread : threads) thread.join();
  const FramePool::Stats exited = pool.stats();
  EXPECT_EQ(exited.minted, live.minted);
  EXPECT_EQ(exited.reused, live.reused);
  EXPECT_EQ(exited.returned, live.returned);
}

TEST(FramePoolTest, ExitingThreadHandsCacheBackToNextThread) {
  FramePool& pool = FramePool::Instance();
  DrainDepot();
  constexpr std::uint64_t kFrames = 20;  // fits one thread's cache
  std::thread([&] {
    std::vector<std::vector<std::uint8_t>> frames;
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      frames.push_back(pool.Acquire(100));
    }
    for (auto& frame : frames) pool.Release(std::move(frame));
  }).join();
  const FramePool::Stats before = pool.stats();
  std::thread([&] {
    std::vector<std::vector<std::uint8_t>> frames;
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      frames.push_back(pool.Acquire(100));
      EXPECT_GE(frames.back().capacity(), 100u);
    }
  }).join();
  const FramePool::Stats after = pool.stats();
  EXPECT_EQ(after.minted, before.minted);
  EXPECT_EQ(after.reused, before.reused + kFrames);
}

TEST(FramePoolTest, ThreadCacheNeverExceedsItsCap) {
  // A thread releases far more frames than its cache holds and stays
  // alive; everything beyond the cap must have reached the depot, where a
  // second thread can take it without minting.
  FramePool& pool = FramePool::Instance();
  DrainDepot();
  constexpr std::uint64_t kReleased = 5 * FramePool::kThreadCacheFrames;
  std::latch released(1);
  std::latch exit(1);
  std::thread holder([&] {
    for (std::uint64_t i = 0; i < kReleased; ++i) {
      std::vector<std::uint8_t> frame;
      frame.reserve(100);
      pool.Release(std::move(frame));
    }
    released.count_down();
    exit.wait();
  });
  released.wait();
  std::uint64_t from_depot = 0;
  std::thread([&] {
    std::vector<std::vector<std::uint8_t>> taken;
    while (true) {
      const std::uint64_t minted = pool.stats().minted;
      taken.push_back(pool.Acquire(100));
      if (pool.stats().minted > minted) break;
      ++from_depot;
    }
  }).join();
  exit.count_down();
  holder.join();
  EXPECT_GE(from_depot, kReleased - FramePool::kThreadCacheFrames);
  EXPECT_LE(from_depot, kReleased);
}

TEST(FramePoolTest, FullDepotFreesOverflowAndReturnedCountsOnlyKeptFrames) {
  // returned - reused is the number of frames the pool holds: frames the
  // full depot refuses (from a flushing cache or an exiting thread) are
  // freed and not counted.
  FramePool& pool = FramePool::Instance();
  DrainDepot();
  constexpr std::uint64_t kReleased = FramePool::kMaxPooled + 100;
  auto release_fresh_small_frames = [&] {
    std::thread([&] {
      for (std::uint64_t i = 0; i < kReleased; ++i) {
        std::vector<std::uint8_t> frame;
        frame.reserve(100);
        pool.Release(std::move(frame));
      }
    }).join();
  };
  auto held = [](const FramePool::Stats& s) { return s.returned - s.reused; };
  const FramePool::Stats before = pool.stats();
  release_fresh_small_frames();  // fills the empty small-class depot
  const FramePool::Stats filled = pool.stats();
  EXPECT_EQ(held(filled) - held(before), FramePool::kMaxPooled);
  release_fresh_small_frames();  // every frame is refused
  EXPECT_EQ(held(pool.stats()), held(filled));
  DrainDepot();
}

// --- ByteWriter frame reuse --------------------------------------------------

TEST(BytesTest, WriterAdoptsRecycledBufferWithoutAllocating) {
  std::vector<std::uint8_t> recycled;
  recycled.reserve(256);
  recycled.assign(10, 0xFF);  // stale contents must be discarded
  const std::uint8_t* storage = recycled.data();
  ByteWriter writer(std::move(recycled));
  EXPECT_EQ(writer.size(), 0u);
  writer.WriteU32(0xDEADBEEF);
  writer.WriteString("abc");
  std::vector<std::uint8_t> out = writer.Take();
  EXPECT_EQ(out.data(), storage);  // same backing storage, no new buffer
  ByteReader reader(out);
  EXPECT_EQ(*reader.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*reader.ReadString(), "abc");
}

TEST(BytesTest, WriteBytesOverloadsAgree) {
  const std::vector<std::uint8_t> body = {1, 2, 3, 4, 5};
  ByteWriter by_vector;
  by_vector.WriteBytes(body);
  ByteWriter by_pointer;
  by_pointer.WriteBytes(body.data(), body.size());
  ByteWriter by_span;
  by_span.WriteBytes(std::span<const std::uint8_t>(body));
  EXPECT_EQ(by_vector.data(), by_pointer.data());
  EXPECT_EQ(by_vector.data(), by_span.data());
  ByteReader reader(by_span.data());
  auto view = reader.ReadBytesView();
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(std::equal(view->begin(), view->end(), body.begin()));
}

// --- Logging -----------------------------------------------------------------

TEST(LoggingTest, CaptureSeesRecords) {
  LogCapture capture;
  NEES_LOG_INFO("test.component") << "transaction " << 42 << " retried";
  const auto records = capture.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].component, "test.component");
  EXPECT_EQ(records[0].message, "transaction 42 retried");
  EXPECT_EQ(capture.CountContaining("retried"), 1);
}

TEST(LoggingTest, MinLevelFilters) {
  Logger::Instance().SetMinLevel(LogLevel::kWarn);
  LogCapture capture;
  NEES_LOG_DEBUG("t") << "hidden";
  NEES_LOG_ERROR("t") << "visible";
  Logger::Instance().SetMinLevel(LogLevel::kInfo);
  EXPECT_EQ(capture.CountContaining("hidden"), 0);
  EXPECT_EQ(capture.CountContaining("visible"), 1);
}

}  // namespace
}  // namespace nees::util
