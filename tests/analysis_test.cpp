// Tests for the lockdep runtime behind util::Mutex (src/util/mutex.h):
// deterministic lock-order inversion detection, the wait-while-holding and
// blocking-call rules, allowlist exemptions, and a no-false-positive run
// over the real async step engine. All tests skip when NEES_LOCKDEP is
// compiled out (Release builds).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "most/fuzz.h"
#include "net/link.h"
#include "psd/coordinator.h"
#include "util/mutex.h"

namespace nees {
namespace {

using util::CondVar;
using util::Mutex;
using util::MutexLock;
namespace lockdep = util::lockdep;

class LockdepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!lockdep::kEnabled) {
      GTEST_SKIP() << "NEES_LOCKDEP compiled out of this build";
    }
    lockdep::ClearAllowlist();
    lockdep::Reset();
  }

  void TearDown() override {
    if (lockdep::kEnabled) {
      lockdep::ClearAllowlist();
      lockdep::Reset();
    }
  }
};

// The injected A->B / B->A inversion must be flagged on the first inverted
// acquisition — no interleaving or real deadlock required.
TEST_F(LockdepTest, DetectsOrderInversion) {
  Mutex a("test.A");
  Mutex b("test.B");
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  ASSERT_EQ(lockdep::ViolationCount(), 0u);
  {
    MutexLock lb(b);
    MutexLock la(a);  // closes the cycle: reported here
  }
  const auto violations = lockdep::Violations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, lockdep::Violation::Kind::kOrder);
  EXPECT_NE(violations[0].description.find("test.A"), std::string::npos);
  EXPECT_NE(violations[0].description.find("test.B"), std::string::npos);
}

// Same inputs, same report: detection is a function of the acquisition
// sequence, not timing.
TEST_F(LockdepTest, DetectionIsDeterministic) {
  std::vector<std::string> reports;
  for (int round = 0; round < 3; ++round) {
    lockdep::Reset();
    Mutex a("test.A");
    Mutex b("test.B");
    {
      MutexLock la(a);
      MutexLock lb(b);
    }
    {
      MutexLock lb(b);
      MutexLock la(a);
    }
    const auto violations = lockdep::Violations();
    ASSERT_EQ(violations.size(), 1u);
    reports.push_back(violations[0].description);
  }
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[1], reports[2]);
}

// Violations are deduplicated: repeating the same inversion reports once.
TEST_F(LockdepTest, DuplicateInversionReportedOnce) {
  Mutex a("test.A");
  Mutex b("test.B");
  for (int i = 0; i < 5; ++i) {
    {
      MutexLock la(a);
      MutexLock lb(b);
    }
    {
      MutexLock lb(b);
      MutexLock la(a);
    }
  }
  EXPECT_EQ(lockdep::ViolationCount(), 1u);
}

// Two instances of one class nested is self-deadlock-shaped and reported
// unless the class opts in with "order X X".
TEST_F(LockdepTest, SameClassNestingReported) {
  Mutex first("test.node");
  Mutex second("test.node");
  {
    MutexLock outer(first);
    MutexLock inner(second);
  }
  ASSERT_EQ(lockdep::ViolationCount(), 1u);
  EXPECT_EQ(lockdep::Violations()[0].kind, lockdep::Violation::Kind::kOrder);

  lockdep::Reset();
  ASSERT_TRUE(lockdep::AllowRule("order test.node test.node"));
  {
    MutexLock outer(first);
    MutexLock inner(second);
  }
  EXPECT_EQ(lockdep::ViolationCount(), 0u);
}

// An "order" allowlist entry keeps a known-benign edge out of cycle
// detection (the edge still appears in the dump).
TEST_F(LockdepTest, AllowlistedOrderEdgeSuppressesCycle) {
  ASSERT_TRUE(lockdep::AllowRule("order test.B test.A"));
  Mutex a("test.A");
  Mutex b("test.B");
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  {
    MutexLock lb(b);
    MutexLock la(a);  // inverted, but the B->A edge is allowlisted
  }
  EXPECT_EQ(lockdep::ViolationCount(), 0u);
}

// Waiting on a condvar while holding a second lock stalls every other
// user of that lock for the full wait: reported.
TEST_F(LockdepTest, WaitWhileHoldingReported) {
  Mutex outer("test.outer");
  Mutex inner("test.inner");
  CondVar cv;
  {
    MutexLock lo(outer);
    MutexLock li(inner);
    cv.WaitFor(inner, 1000);
  }
  const auto violations = lockdep::Violations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind,
            lockdep::Violation::Kind::kWaitWhileHolding);
  EXPECT_NE(violations[0].description.find("test.outer"), std::string::npos);
}

// Waiting while holding only the waited-on mutex is the normal pattern.
TEST_F(LockdepTest, WaitHoldingOnlyWaitedMutexIsClean) {
  Mutex mu("test.lone");
  CondVar cv;
  {
    MutexLock lock(mu);
    cv.WaitFor(mu, 1000);
  }
  EXPECT_EQ(lockdep::ViolationCount(), 0u);
}

// The "wait <class>" allowlist entry exempts a vetted holder class.
TEST_F(LockdepTest, AllowlistedWaitNotReported) {
  ASSERT_TRUE(lockdep::AllowRule("wait test.outer"));
  Mutex outer("test.outer");
  Mutex inner("test.inner");
  CondVar cv;
  {
    MutexLock lo(outer);
    MutexLock li(inner);
    cv.WaitFor(inner, 1000);
  }
  EXPECT_EQ(lockdep::ViolationCount(), 0u);
}

// Blocking RPC entry points call CheckBlockingCall; holding any lock there
// is reported unless the class carries an "rpc" exemption.
TEST_F(LockdepTest, BlockingCallUnderLockReported) {
  Mutex mu("test.holder");
  {
    MutexLock lock(mu);
    lockdep::CheckBlockingCall("test.FakeRpcWait");
  }
  const auto violations = lockdep::Violations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind,
            lockdep::Violation::Kind::kBlockingCallWhileHolding);
  EXPECT_NE(violations[0].description.find("test.FakeRpcWait"),
            std::string::npos);

  lockdep::Reset();
  ASSERT_TRUE(lockdep::AllowRule("rpc test.holder"));
  {
    MutexLock lock(mu);
    lockdep::CheckBlockingCall("test.FakeRpcWait");
  }
  EXPECT_EQ(lockdep::ViolationCount(), 0u);
}

TEST_F(LockdepTest, BlockingCallWithNoLocksHeldIsClean) {
  lockdep::CheckBlockingCall("test.FakeRpcWait");
  EXPECT_EQ(lockdep::ViolationCount(), 0u);
}

// MutexLock's Unlock()/Lock() juggling keeps the held stack truthful: the
// lock vanishes from HeldLockNames while released.
TEST_F(LockdepTest, RelockableMutexLockTracksHeldStack) {
  Mutex mu("test.juggle");
  MutexLock lock(mu);
  ASSERT_EQ(lockdep::HeldLockNames(),
            std::vector<std::string>{"test.juggle"});
  lock.Unlock();
  EXPECT_TRUE(lockdep::HeldLockNames().empty());
  lock.Lock();
  EXPECT_EQ(lockdep::HeldLockNames(),
            std::vector<std::string>{"test.juggle"});
}

// Contention is counted per class: an acquisition that finds the lock held
// by another thread adds one contended acquisition and its wait; a class
// only ever taken by one thread stays at zero.
TEST_F(LockdepTest, ContentionCountedPerClass) {
  Mutex contended("test.contended");
  Mutex quiet("test.uncontended");
  for (int i = 0; i < 100; ++i) MutexLock lock(quiet);
  std::uint64_t contended_count = 0, contended_wait = 0;
  bool quiet_seen = false;
  // The waiter must reach Lock() while the main thread still holds the
  // mutex; a waiter descheduled past the sleep gets another try.
  for (int attempt = 0; attempt < 20 && contended_count == 0; ++attempt) {
    std::atomic<bool> entering{false};
    std::thread waiter;
    {
      MutexLock hold(contended);
      waiter = std::thread([&] {
        entering.store(true);
        MutexLock lock(contended);  // blocks until the main thread lets go
      });
      while (!entering.load()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    waiter.join();
    for (const lockdep::ClassContention& row : lockdep::Contention()) {
      if (row.name == "test.contended") {
        contended_count = row.contended;
        contended_wait = row.wait_ns;
      } else if (row.name == "test.uncontended") {
        quiet_seen = true;
        EXPECT_EQ(row.contended, 0u);
        EXPECT_EQ(row.wait_ns, 0u);
      }
    }
  }
  EXPECT_TRUE(quiet_seen);
  EXPECT_GE(contended_count, 1u);
  EXPECT_GT(contended_wait, 0u);
  std::ostringstream table;
  lockdep::DumpContention(table);
  EXPECT_NE(table.str().find("test.contended"), std::string::npos);
  EXPECT_EQ(table.str().find("test.uncontended"), std::string::npos);
}

// Malformed allowlist lines are rejected, comments and blanks accepted.
TEST_F(LockdepTest, AllowRuleParsing) {
  EXPECT_TRUE(lockdep::AllowRule("# a comment"));
  EXPECT_TRUE(lockdep::AllowRule(""));
  EXPECT_TRUE(lockdep::AllowRule("wait some.class"));
  EXPECT_TRUE(lockdep::AllowRule("rpc some.class"));
  EXPECT_TRUE(lockdep::AllowRule("order a.class b.class"));
  EXPECT_FALSE(lockdep::AllowRule("bogus rule kind"));
  EXPECT_FALSE(lockdep::AllowRule("wait"));
  EXPECT_FALSE(lockdep::AllowRule("order only.one"));
}

// The real workload must be violation-free: an async-engine experiment
// fanned out over 8 sites (every subsystem lock participates — network,
// RPC, NTCP servers, plugins, backends, tracer, metrics, WAL).
TEST_F(LockdepTest, NoFalsePositivesAsyncEngineAtEightSites) {
  most::FuzzScenario scenario;
  scenario.seed = 8;
  scenario.sites = 8;
  scenario.steps = 6;
  scenario.engine = psd::StepEngine::kAsync;
  for (std::size_t i = 0; i < scenario.sites; ++i) {
    net::LinkModel link;
    link.latency_micros = 2000;
    scenario.site_links.push_back(link);
  }
  const most::FuzzOutcome outcome = most::RunFuzzCase(scenario);
  EXPECT_TRUE(outcome.ok()) << (outcome.failures.empty()
                                    ? std::string("no failure detail")
                                    : outcome.failures.front());
  EXPECT_EQ(lockdep::ViolationCount(), 0u);
  // The run populated a real graph: several classes and ordered edges.
  EXPECT_GT(lockdep::ClassCount(), 5u);
  EXPECT_GT(lockdep::EdgeCount(), 3u);
}

}  // namespace
}  // namespace nees
