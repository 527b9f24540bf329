// Tests for the NTCP core: the Fig. 1 state machine, proposal negotiation,
// at-most-once semantics under duplicated/lost messages, timeouts, SDE
// publication, OGSI inspection of transactions, and client retry recovery.
#include <future>
#include <thread>

#include <gtest/gtest.h>

#include "grid/container.h"
#include "net/network.h"
#include "ntcp/client.h"
#include "ntcp/server.h"
#include "ntcp/types.h"
#include "plugins/simulation_plugin.h"
#include "structural/substructure.h"
#include "util/clock.h"
#include "util/periodic.h"

namespace nees::ntcp {
namespace {

using util::ErrorCode;

Proposal MakeProposal(const std::string& id, double displacement,
                      std::int64_t timeout_micros = 60'000'000) {
  Proposal proposal;
  proposal.transaction_id = id;
  ControlPointRequest action;
  action.control_point = "cp";
  action.target_displacement = {displacement};
  proposal.actions.push_back(std::move(action));
  proposal.timeout_micros = timeout_micros;
  return proposal;
}

std::unique_ptr<plugins::SimulationPlugin> MakeElasticPlugin(
    double stiffness = 1000.0) {
  auto plugin = std::make_unique<plugins::SimulationPlugin>();
  structural::Matrix k(1, 1);
  k(0, 0) = stiffness;
  plugin->AddControlPoint(
      "cp", std::make_unique<structural::ElasticSubstructure>(k));
  return plugin;
}

// --- state machine (pure) -----------------------------------------------------

TEST(StateMachineTest, LegalTransitionsMatchFigure1) {
  using S = TransactionState;
  EXPECT_TRUE(IsLegalTransition(S::kProposed, S::kAccepted));
  EXPECT_TRUE(IsLegalTransition(S::kProposed, S::kRejected));
  EXPECT_TRUE(IsLegalTransition(S::kProposed, S::kCancelled));
  EXPECT_TRUE(IsLegalTransition(S::kAccepted, S::kExecuting));
  EXPECT_TRUE(IsLegalTransition(S::kAccepted, S::kCancelled));
  EXPECT_TRUE(IsLegalTransition(S::kAccepted, S::kExpired));
  EXPECT_TRUE(IsLegalTransition(S::kExecuting, S::kCompleted));
  EXPECT_TRUE(IsLegalTransition(S::kExecuting, S::kFailed));
}

TEST(StateMachineTest, IllegalTransitionsRejected) {
  using S = TransactionState;
  EXPECT_FALSE(IsLegalTransition(S::kProposed, S::kExecuting));  // must accept
  EXPECT_FALSE(IsLegalTransition(S::kProposed, S::kCompleted));
  EXPECT_FALSE(IsLegalTransition(S::kExecuting, S::kCancelled));  // no undo
  EXPECT_FALSE(IsLegalTransition(S::kCompleted, S::kExecuting));
  EXPECT_FALSE(IsLegalTransition(S::kRejected, S::kAccepted));
  EXPECT_FALSE(IsLegalTransition(S::kCancelled, S::kExecuting));
}

TEST(StateMachineTest, TerminalStates) {
  using S = TransactionState;
  for (S state : {S::kRejected, S::kCompleted, S::kCancelled, S::kFailed,
                  S::kExpired}) {
    EXPECT_TRUE(IsTerminal(state));
    // Exhaustive: no transition leaves a terminal state.
    for (int to = 0; to <= static_cast<int>(S::kExpired); ++to) {
      EXPECT_FALSE(IsLegalTransition(state, static_cast<S>(to)));
    }
  }
  EXPECT_FALSE(IsTerminal(S::kProposed));
  EXPECT_FALSE(IsTerminal(S::kAccepted));
  EXPECT_FALSE(IsTerminal(S::kExecuting));
}

TEST(StateMachineTest, AllStatesHaveNames) {
  for (int s = 0; s <= static_cast<int>(TransactionState::kExpired); ++s) {
    EXPECT_NE(TransactionStateName(static_cast<TransactionState>(s)),
              "unknown");
  }
}

// --- state-timestamp flat map ------------------------------------------------

TEST(StateTimestampsTest, InsertsStaySortedAndUpdatesOverwrite) {
  StateTimestamps stamps;
  EXPECT_TRUE(stamps.empty());
  // Reverse-alphabetical insertion exercises front-of-vector emplacement
  // (each insert shifts, and the first insert also reserves).
  stamps["proposed"] = 1;
  stamps["executing"] = 3;
  stamps["completed"] = 4;
  stamps["accepted"] = 2;
  EXPECT_EQ(stamps.size(), 4u);
  std::vector<std::string> order;
  for (const auto& [state, micros] : stamps) order.push_back(state);
  EXPECT_EQ(order, (std::vector<std::string>{"accepted", "completed",
                                             "executing", "proposed"}));
  EXPECT_EQ(stamps.find("executing")->second, 3);
  stamps["executing"] = 30;  // update, not duplicate
  EXPECT_EQ(stamps.size(), 4u);
  EXPECT_EQ(stamps.find("executing")->second, 30);
}

TEST(StateTimestampsTest, FindAndContainsMissBetweenKeys) {
  StateTimestamps stamps;
  stamps["accepted"] = 2;
  stamps["proposed"] = 1;
  EXPECT_TRUE(stamps.contains("accepted"));
  EXPECT_FALSE(stamps.contains("cancelled"));  // sorts between the two
  EXPECT_EQ(stamps.find("cancelled"), stamps.end());
  EXPECT_EQ(stamps.find(""), stamps.end());
}

TEST(StateTimestampsTest, EqualityIsOrderInsensitiveByConstruction) {
  StateTimestamps a;
  a["proposed"] = 1;
  a["accepted"] = 2;
  StateTimestamps b;
  b["accepted"] = 2;
  b["proposed"] = 1;
  EXPECT_EQ(a, b);  // both store sorted, so insertion order cannot leak
  b["accepted"] = 99;
  EXPECT_FALSE(a == b);
}

// --- wire encodings -------------------------------------------------------------

TEST(WireTest, ProposalRoundTrip) {
  Proposal original = MakeProposal("txn-7", 0.0123, 5'000'000);
  original.step_index = 42;
  original.actions[0].target_force = {100.0, -50.0};
  util::ByteWriter writer;
  EncodeProposal(original, writer);
  util::ByteReader reader(writer.data());
  auto decoded = DecodeProposal(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, original);
}

TEST(WireTest, TransactionRecordRoundTrip) {
  TransactionRecord record;
  record.proposal = MakeProposal("t", 0.01);
  record.state = TransactionState::kCompleted;
  record.detail = "ok";
  ControlPointResult cp;
  cp.control_point = "cp";
  cp.measured_displacement = {0.0099};
  cp.measured_force = {9.9};
  record.result.results.push_back(cp);
  record.state_timestamps["proposed"] = 100;
  record.state_timestamps["completed"] = 500;

  util::ByteWriter writer;
  EncodeTransactionRecord(record, writer);
  util::ByteReader reader(writer.data());
  auto decoded = DecodeTransactionRecord(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->proposal, record.proposal);
  EXPECT_EQ(decoded->state, record.state);
  EXPECT_EQ(decoded->result, record.result);
  EXPECT_EQ(decoded->state_timestamps, record.state_timestamps);
}

TEST(WireTest, CorruptRecordRejected) {
  util::ByteWriter writer;
  EncodeProposal(MakeProposal("t", 0.01), writer);
  writer.WriteU8(99);  // invalid state byte
  writer.WriteString("");
  writer.WriteU32(0);
  writer.WriteU32(0);
  util::ByteReader reader(writer.data());
  EXPECT_FALSE(DecodeTransactionRecord(reader).ok());
}

// --- server core -----------------------------------------------------------------

class NtcpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_.SetClock(&clock_);
    server_ = std::make_unique<NtcpServer>(&network_, "ntcp.test",
                                           MakeElasticPlugin(), &clock_);
    ASSERT_TRUE(server_->Start().ok());
  }

  util::SimClock clock_{1'000'000};
  net::Network network_;
  std::unique_ptr<NtcpServer> server_;
};

TEST_F(NtcpServerTest, ProposeExecuteLifecycle) {
  const auto outcome = server_->Propose(MakeProposal("t1", 0.02));
  EXPECT_TRUE(outcome.accepted);

  auto record = server_->GetTransaction("t1");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->state, TransactionState::kAccepted);
  EXPECT_TRUE(record->state_timestamps.contains("proposed"));
  EXPECT_TRUE(record->state_timestamps.contains("accepted"));

  auto result = server_->Execute("t1");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->results.size(), 1u);
  EXPECT_NEAR(result->results[0].measured_force[0], 20.0, 1e-9);  // k=1000

  record = server_->GetTransaction("t1");
  EXPECT_EQ(record->state, TransactionState::kCompleted);
  EXPECT_TRUE(record->state_timestamps.contains("executing"));
  EXPECT_TRUE(record->state_timestamps.contains("completed"));
}

TEST_F(NtcpServerTest, InvalidProposalRejected) {
  Proposal bad = MakeProposal("t2", 0.02);
  bad.actions[0].control_point = "nonexistent";
  const auto outcome = server_->Propose(bad);
  EXPECT_FALSE(outcome.accepted);
  EXPECT_NE(outcome.reason.find("unknown control point"), std::string::npos);
  EXPECT_EQ(server_->GetTransaction("t2")->state, TransactionState::kRejected);
  // Executing a rejected transaction fails.
  EXPECT_EQ(server_->Execute("t2").status().code(),
            ErrorCode::kFailedPrecondition);
}

TEST_F(NtcpServerTest, EmptyTransactionIdRejected) {
  EXPECT_FALSE(server_->Propose(MakeProposal("", 0.02)).accepted);
}

TEST_F(NtcpServerTest, DuplicateProposalIdempotent) {
  const Proposal proposal = MakeProposal("t3", 0.02);
  EXPECT_TRUE(server_->Propose(proposal).accepted);
  EXPECT_TRUE(server_->Propose(proposal).accepted);  // re-send: same answer
  EXPECT_EQ(server_->stats().duplicate_proposals, 1u);
  EXPECT_EQ(server_->stats().accepted, 1u);
}

TEST_F(NtcpServerTest, ConflictingProposalUnderSameIdRejected) {
  EXPECT_TRUE(server_->Propose(MakeProposal("t4", 0.02)).accepted);
  const auto outcome = server_->Propose(MakeProposal("t4", 0.05));
  EXPECT_FALSE(outcome.accepted);
  EXPECT_NE(outcome.reason.find("already in use"), std::string::npos);
}

TEST_F(NtcpServerTest, DuplicateExecuteReturnsCachedResultWithoutRerun) {
  // At-most-once: the second execute must not move the specimen again.
  auto plugin = MakeElasticPlugin();
  auto* plugin_raw = plugin.get();
  NtcpServer server(&network_, "ntcp.amo", std::move(plugin), &clock_);
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(server.Propose(MakeProposal("t5", 0.02)).accepted);
  auto first = server.Execute("t5");
  auto second = server.Execute("t5");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(plugin_raw->executions(), 1u);
  EXPECT_EQ(server.stats().executions, 1u);
  EXPECT_EQ(server.stats().duplicate_executes, 1u);
}

TEST_F(NtcpServerTest, ExecuteUnknownTransaction) {
  EXPECT_EQ(server_->Execute("ghost").status().code(), ErrorCode::kNotFound);
}

TEST_F(NtcpServerTest, CancelAcceptedTransaction) {
  ASSERT_TRUE(server_->Propose(MakeProposal("t6", 0.02)).accepted);
  EXPECT_TRUE(server_->Cancel("t6").ok());
  EXPECT_EQ(server_->GetTransaction("t6")->state,
            TransactionState::kCancelled);
  EXPECT_EQ(server_->Execute("t6").status().code(),
            ErrorCode::kFailedPrecondition);
  // Cancel is idempotent.
  EXPECT_TRUE(server_->Cancel("t6").ok());
}

TEST_F(NtcpServerTest, CannotCancelCompletedTransaction) {
  ASSERT_TRUE(server_->Propose(MakeProposal("t7", 0.02)).accepted);
  ASSERT_TRUE(server_->Execute("t7").ok());
  EXPECT_EQ(server_->Cancel("t7").code(), ErrorCode::kFailedPrecondition);
}

TEST_F(NtcpServerTest, ProposalTimeoutExpiresBeforeExecute) {
  ASSERT_TRUE(server_->Propose(MakeProposal("t8", 0.02, 1'000'000)).accepted);
  clock_.Advance(2'000'000);
  EXPECT_EQ(server_->Execute("t8").status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(server_->GetTransaction("t8")->state, TransactionState::kExpired);
}

TEST_F(NtcpServerTest, ExpireStaleSweepsOldProposals) {
  ASSERT_TRUE(server_->Propose(MakeProposal("a", 0.01, 1'000'000)).accepted);
  ASSERT_TRUE(server_->Propose(MakeProposal("b", 0.01, 10'000'000)).accepted);
  clock_.Advance(5'000'000);
  EXPECT_EQ(server_->ExpireStale(), 1);
  EXPECT_EQ(server_->GetTransaction("a")->state, TransactionState::kExpired);
  EXPECT_EQ(server_->GetTransaction("b")->state, TransactionState::kAccepted);
}

TEST_F(NtcpServerTest, FailedExecutionIsCachedNotRetriedIntoPlugin) {
  class FailingPlugin : public ControlPlugin {
   public:
    util::Status Validate(const Proposal&) override { return util::OkStatus(); }
    util::Result<TransactionResult> Execute(const Proposal&) override {
      ++attempts;
      return util::Unavailable("backend hiccup");
    }
    std::string_view kind() const override { return "failing"; }
    int attempts = 0;
  };
  auto plugin = std::make_unique<FailingPlugin>();
  auto* plugin_raw = plugin.get();
  NtcpServer server(&network_, "ntcp.fail", std::move(plugin), &clock_);
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(server.Propose(MakeProposal("t9", 0.02)).accepted);
  EXPECT_EQ(server.Execute("t9").status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(server.GetTransaction("t9")->state, TransactionState::kFailed);
  // A re-sent execute gets the cached failure; the rig is NOT driven again.
  EXPECT_EQ(server.Execute("t9").status().code(), ErrorCode::kAborted);
  EXPECT_EQ(plugin_raw->attempts, 1);
}

TEST_F(NtcpServerTest, GarbageCollectDropsOldTerminalTransactions) {
  ASSERT_TRUE(server_->Propose(MakeProposal("old", 0.01)).accepted);
  ASSERT_TRUE(server_->Execute("old").ok());
  // Accepted long ago and never executed (no proposal timeout): old, but
  // live, so neither rule may drop it.
  ASSERT_TRUE(server_->Propose(MakeProposal("live", 0.01, 0)).accepted);
  clock_.Advance(100'000'000);
  ASSERT_TRUE(server_->Propose(MakeProposal("new", 0.01)).accepted);
  ASSERT_TRUE(server_->Execute("new").ok());
  // An OGSI read publishes every txn.* SDE, so there is one to remove.
  ASSERT_TRUE(server_->service_data().GetServiceData("txn.old").has_value());

  EXPECT_EQ(server_->GarbageCollect(50'000'000), 1);
  EXPECT_EQ(server_->GetTransaction("old").status().code(),
            ErrorCode::kNotFound);
  EXPECT_TRUE(server_->GetTransaction("new").ok());

  // The run-boundary rule drops every terminal transaction, however recent;
  // the accepted one stays. No OGSI read comes in between, so each rule
  // must remove the SDEs of what it dropped itself.
  EXPECT_EQ(server_->RetireTerminal(), 1);
  EXPECT_EQ(server_->ListTransactions(), std::vector<std::string>{"live"});
  EXPECT_EQ(server_->GetTransaction("live")->state,
            TransactionState::kAccepted);
  EXPECT_FALSE(server_->service_data().GetServiceData("txn.old").has_value());
  EXPECT_FALSE(server_->service_data().GetServiceData("txn.new").has_value());
  EXPECT_TRUE(server_->service_data().GetServiceData("txn.live").has_value());
  EXPECT_EQ(server_->service_data().GetServiceData("serverStats")->Get(
                "open_transactions"),
            "1");
  EXPECT_EQ(server_->RetireTerminal(), 0);
  EXPECT_EQ(server_->GarbageCollect(0), 0);

  // Every terminal state goes: rejected, cancelled, failed and expired too.
  Proposal unknown_point = MakeProposal("rejected", 0.01);
  unknown_point.actions[0].control_point = "no-such-point";
  ASSERT_FALSE(server_->Propose(unknown_point).accepted);
  ASSERT_TRUE(server_->Propose(MakeProposal("cancelled", 0.01)).accepted);
  ASSERT_TRUE(server_->Cancel("cancelled").ok());
  ASSERT_TRUE(server_->Propose(MakeProposal("expired", 0.01, 1'000)).accepted);
  clock_.Advance(2'000);
  ASSERT_EQ(server_->ExpireStale(), 1);
  EXPECT_EQ(server_->RetireTerminal(), 3);
  EXPECT_EQ(server_->ListTransactions(), std::vector<std::string>{"live"});
}

TEST_F(NtcpServerTest, RetirementNeverDropsAnExecutingTransaction) {
  // The plugin holds the execution open until the test releases it.
  class GatedPlugin : public ControlPlugin {
   public:
    util::Status Validate(const Proposal&) override { return util::OkStatus(); }
    util::Result<TransactionResult> Execute(const Proposal&) override {
      entered.set_value();
      release.wait();
      return TransactionResult{};
    }
    std::string_view kind() const override { return "gated"; }
    std::promise<void> entered;
    std::shared_future<void> release;
  };
  std::promise<void> release;
  auto plugin = std::make_unique<GatedPlugin>();
  plugin->release = release.get_future().share();
  std::future<void> entered = plugin->entered.get_future();
  NtcpServer server(&network_, "ntcp.gated", std::move(plugin), &clock_);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.Propose(MakeProposal("t", 0.01)).accepted);

  std::thread executor([&server] { EXPECT_TRUE(server.Execute("t").ok()); });
  entered.wait();
  EXPECT_EQ(server.GetTransaction("t")->state, TransactionState::kExecuting);
  clock_.Advance(100'000'000);
  EXPECT_EQ(server.RetireTerminal(), 0);
  EXPECT_EQ(server.GarbageCollect(0), 0);
  release.set_value();
  executor.join();

  EXPECT_EQ(server.GetTransaction("t")->state, TransactionState::kCompleted);
  EXPECT_EQ(server.RetireTerminal(), 1);
}

TEST_F(NtcpServerTest, SdePublishedPerTransactionAndLastChanged) {
  ASSERT_TRUE(server_->Propose(MakeProposal("t10", 0.02)).accepted);
  auto sde = server_->service_data().GetServiceData("txn.t10");
  ASSERT_TRUE(sde.has_value());
  EXPECT_EQ(sde->Get("state"), "accepted");
  EXPECT_FALSE(sde->Get("t_proposed").empty());
  EXPECT_FALSE(sde->Get("t_accepted").empty());

  ASSERT_TRUE(server_->Execute("t10").ok());
  sde = server_->service_data().GetServiceData("txn.t10");
  EXPECT_EQ(sde->Get("state"), "completed");
  EXPECT_EQ(sde->Get("results"), "1");

  auto last = server_->service_data().GetServiceData("lastChanged");
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->Get("transaction"), "t10");
  EXPECT_EQ(last->Get("state"), "completed");

  // Server-wide statistics are published alongside.
  auto stats = server_->service_data().GetServiceData("serverStats");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->Get("proposals"), "1");
  EXPECT_EQ(stats->Get("executions"), "1");
  EXPECT_EQ(stats->Get("open_transactions"), "1");
}

TEST_F(NtcpServerTest, HousekeepingSweepViaPeriodicTask) {
  // The deployment pattern: one housekeeping task expires stale proposals
  // and garbage-collects old terminal transactions.
  ASSERT_TRUE(server_->Propose(MakeProposal("stale", 0.01, 1000)).accepted);
  ASSERT_TRUE(server_->Propose(MakeProposal("done", 0.01)).accepted);
  ASSERT_TRUE(server_->Execute("done").ok());
  clock_.Advance(10'000'000);

  util::PeriodicTask housekeeping(std::chrono::hours(1), [this] {
    server_->ExpireStale();
    server_->GarbageCollect(5'000'000);
  });
  housekeeping.TriggerNow();
  housekeeping.Stop();

  EXPECT_EQ(server_->GetTransaction("stale")->state,
            TransactionState::kExpired);
  EXPECT_EQ(server_->GetTransaction("done").status().code(),
            util::ErrorCode::kNotFound);
}

TEST_F(NtcpServerTest, ListTransactions) {
  ASSERT_TRUE(server_->Propose(MakeProposal("x", 0.01)).accepted);
  ASSERT_TRUE(server_->Propose(MakeProposal("y", 0.01)).accepted);
  EXPECT_EQ(server_->ListTransactions().size(), 2u);
}

// --- client over the network -------------------------------------------------------

class NtcpClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_.SetClock(&clock_);
    server_ = std::make_unique<NtcpServer>(&network_, "ntcp.site",
                                           MakeElasticPlugin(), &clock_);
    ASSERT_TRUE(server_->Start().ok());
    rpc_ = std::make_unique<net::RpcClient>(&network_, "coordinator");
    client_ = std::make_unique<NtcpClient>(rpc_.get(), "ntcp.site",
                                           RetryPolicy(), &clock_);
  }

  util::SimClock clock_{1'000'000};
  net::Network network_;
  std::unique_ptr<NtcpServer> server_;
  std::unique_ptr<net::RpcClient> rpc_;
  std::unique_ptr<NtcpClient> client_;
};

TEST_F(NtcpClientTest, FullRemoteLifecycle) {
  ASSERT_TRUE(client_->Propose(MakeProposal("r1", 0.03)).ok());
  auto result = client_->Execute("r1");
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->results[0].measured_force[0], 30.0, 1e-9);

  auto record = client_->GetTransaction("r1");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->state, TransactionState::kCompleted);

  auto ids = client_->ListTransactions();
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(*ids, std::vector<std::string>{"r1"});
}

TEST_F(NtcpClientTest, RejectionSurfacesAsPolicyViolation) {
  Proposal bad = MakeProposal("r2", 0.03);
  bad.actions[0].control_point = "nope";
  const util::Status status = client_->Propose(bad);
  EXPECT_EQ(status.code(), ErrorCode::kPolicyViolation);
}

TEST_F(NtcpClientTest, LostProposeRequestRecoveredByRetry) {
  network_.DropNext("coordinator", "ntcp.site", 1);
  EXPECT_TRUE(client_->Propose(MakeProposal("r3", 0.03)).ok());
  EXPECT_EQ(client_->stats().retries, 1u);
  EXPECT_EQ(client_->stats().recovered, 1u);
}

TEST_F(NtcpClientTest, LostExecuteReplyDoesNotDoubleExecute) {
  // The execute reaches the server but the *reply* is lost. The client
  // retries; the server must serve the cached result (at-most-once).
  ASSERT_TRUE(client_->Propose(MakeProposal("r4", 0.03)).ok());
  network_.DropNext("ntcp.site", "coordinator", 1);
  auto result = client_->Execute("r4");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(server_->stats().executions, 1u);
  EXPECT_EQ(server_->stats().duplicate_executes, 1u);
}

TEST_F(NtcpClientTest, RepeatedLossExhaustsRetries) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  NtcpClient client(rpc_.get(), "ntcp.site", policy, &clock_);
  network_.SetLinkUp("coordinator", "ntcp.site", false);
  const util::Status status = client.Propose(MakeProposal("r5", 0.03));
  EXPECT_EQ(status.code(), ErrorCode::kTimeout);
  EXPECT_EQ(client.stats().gave_up, 1u);
  // Backoff slept on the (virtual) clock between attempts.
  EXPECT_GT(clock_.NowMicros(), 1'000'000 + 200'000);
}

TEST_F(NtcpClientTest, DefinitiveErrorsAreNotRetried) {
  Proposal bad = MakeProposal("r6", 0.03);
  bad.actions[0].control_point = "nope";
  ASSERT_FALSE(client_->Propose(bad).ok());
  EXPECT_EQ(client_->stats().retries, 0u);
}

TEST_F(NtcpClientTest, TransientOutageMidExperimentRecovered) {
  // A short bidirectional outage; the retry loop rides it out (the several
  // transient failures MOST recovered from, §3.4).
  for (int step = 0; step < 10; ++step) {
    if (step == 5) {
      network_.DropNext("coordinator", "ntcp.site", 2);
      network_.DropNext("ntcp.site", "coordinator", 1);
    }
    const std::string id = "step-" + std::to_string(step);
    ASSERT_TRUE(client_->Propose(MakeProposal(id, 0.001 * step)).ok())
        << "step " << step;
    ASSERT_TRUE(client_->Execute(id).ok()) << "step " << step;
  }
  EXPECT_GE(client_->stats().retries, 1u);
  EXPECT_EQ(server_->stats().executions, 10u);
}

// --- asynchronous client operations ----------------------------------------------

TEST_F(NtcpClientTest, AsyncLifecycleMatchesSynchronous) {
  NtcpClient::AsyncOp propose = client_->ProposeAsync(MakeProposal("a1", 0.03));
  ASSERT_TRUE(NtcpClient::FinishPropose(propose).ok());
  NtcpClient::AsyncOp execute = client_->ExecuteAsync("a1");
  auto result = NtcpClient::FinishExecute(execute);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->results[0].measured_force[0], 30.0, 1e-9);
}

TEST_F(NtcpClientTest, ConcurrentInFlightOpsToSameSite) {
  // Several operations against one site, all in flight before any is
  // awaited — the shape a multi-control-point coordinator produces.
  std::vector<NtcpClient::AsyncOp> ops;
  for (int i = 0; i < 4; ++i) {
    ops.push_back(
        client_->ProposeAsync(MakeProposal("c" + std::to_string(i), 0.01)));
  }
  NtcpClient::AwaitAll(ops);
  for (NtcpClient::AsyncOp& op : ops) {
    EXPECT_TRUE(NtcpClient::FinishPropose(op).ok());
  }
  std::vector<NtcpClient::AsyncOp> executes;
  for (int i = 0; i < 4; ++i) {
    executes.push_back(client_->ExecuteAsync("c" + std::to_string(i)));
  }
  NtcpClient::AwaitAll(executes);
  for (NtcpClient::AsyncOp& op : executes) {
    EXPECT_TRUE(NtcpClient::FinishExecute(op).ok());
  }
  EXPECT_EQ(server_->stats().executions, 4u);
}

TEST_F(NtcpClientTest, AsyncRetryRecoversDroppedRequest) {
  network_.DropNext("coordinator", "ntcp.site", 1);
  NtcpClient::AsyncOp op = client_->ProposeAsync(MakeProposal("a2", 0.03));
  ASSERT_TRUE(NtcpClient::FinishPropose(op).ok());
  EXPECT_EQ(client_->stats().retries, 1u);
  EXPECT_EQ(client_->stats().recovered, 1u);
}

TEST_F(NtcpClientTest, AsyncExecuteDroppedReplyStaysAtMostOnce) {
  NtcpClient::AsyncOp propose = client_->ProposeAsync(MakeProposal("a3", 0.03));
  ASSERT_TRUE(NtcpClient::FinishPropose(propose).ok());
  network_.DropNext("ntcp.site", "coordinator", 1);
  NtcpClient::AsyncOp execute = client_->ExecuteAsync("a3");
  ASSERT_TRUE(NtcpClient::FinishExecute(execute).ok());
  // The retry hit the server's result cache, not the plugin.
  EXPECT_EQ(server_->stats().executions, 1u);
  EXPECT_EQ(server_->stats().duplicate_executes, 1u);
}

TEST_F(NtcpClientTest, AsyncOutageExhaustsRetries) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  NtcpClient client(rpc_.get(), "ntcp.site", policy, &clock_);
  network_.SetLinkUp("coordinator", "ntcp.site", false);
  NtcpClient::AsyncOp op = client.ProposeAsync(MakeProposal("a4", 0.03));
  EXPECT_EQ(NtcpClient::FinishPropose(op).code(), ErrorCode::kTimeout);
  EXPECT_EQ(client.stats().gave_up, 1u);
}

TEST_F(NtcpClientTest, BogusCorrelationResponseIsIgnored) {
  // A response whose correlation id matches nothing in flight (a duplicate
  // of an already-resolved call, or a stray) must not disturb later calls.
  net::Message bogus;
  bogus.from = "ntcp.site";
  bogus.to = "coordinator";
  bogus.kind = net::MessageKind::kResponse;
  bogus.correlation_id = 0xdeadbeef;
  bogus.payload = net::EncodeResponseEnvelope(util::OkStatus(), {});
  (void)network_.Send(std::move(bogus));
  NtcpClient::AsyncOp op = client_->ProposeAsync(MakeProposal("a5", 0.03));
  EXPECT_TRUE(NtcpClient::FinishPropose(op).ok());
  EXPECT_EQ(client_->stats().retries, 0u);
}

TEST(NtcpAsyncScheduledTest, OverlappedOpsAndRetriesOverRealLatency) {
  // Scheduled delivery: ops to two sites overlap their round trips, and a
  // dropped request recovers by retry driven from AwaitAll's multiplexed
  // wait (no dedicated thread per operation).
  net::Network network(net::DeliveryMode::kScheduled);
  net::LinkModel wan;
  wan.latency_micros = 2'000;
  network.SetDefaultLink(wan);
  NtcpServer site_a(&network, "site.a", MakeElasticPlugin());
  NtcpServer site_b(&network, "site.b", MakeElasticPlugin());
  ASSERT_TRUE(site_a.Start().ok());
  ASSERT_TRUE(site_b.Start().ok());
  net::RpcClient rpc(&network, "coordinator");
  RetryPolicy policy;
  policy.initial_backoff_micros = 1'000;
  // 250 round trips of headroom: only the deliberately dropped request may
  // time out, even when a loaded host stalls a delivery thread for tens of
  // milliseconds. The drop costs one timeout (~1 s) of test time.
  policy.rpc_timeout_micros = 1'000'000;
  NtcpClient client_a(&rpc, "site.a", policy);
  NtcpClient client_b(&rpc, "site.b", policy);

  network.DropNext("coordinator", "site.b", 1);  // forces one async retry
  for (int step = 0; step < 3; ++step) {
    const std::string id = "sched-" + std::to_string(step);
    std::vector<NtcpClient::AsyncOp> proposes;
    proposes.push_back(client_a.ProposeAsync(MakeProposal(id + "-a", 0.01)));
    proposes.push_back(client_b.ProposeAsync(MakeProposal(id + "-b", 0.01)));
    NtcpClient::AwaitAll(proposes);
    for (NtcpClient::AsyncOp& op : proposes) {
      ASSERT_TRUE(NtcpClient::FinishPropose(op).ok()) << "step " << step;
    }
    std::vector<NtcpClient::AsyncOp> executes;
    executes.push_back(client_a.ExecuteAsync(id + "-a"));
    executes.push_back(client_b.ExecuteAsync(id + "-b"));
    NtcpClient::AwaitAll(executes);
    for (NtcpClient::AsyncOp& op : executes) {
      ASSERT_TRUE(NtcpClient::FinishExecute(op).ok()) << "step " << step;
    }
  }
  EXPECT_EQ(client_b.stats().retries, 1u);
  EXPECT_EQ(site_a.stats().executions, 3u);
  EXPECT_EQ(site_b.stats().executions, 3u);
}

// --- OGSI inspection of a live NTCP server -------------------------------------------

TEST(NtcpInspectionTest, RemoteFindServiceDataSeesTransactions) {
  util::SimClock clock(1'000'000);
  net::Network network;
  network.SetClock(&clock);

  grid::ServiceContainer container(&network, "container.uiuc", &clock);
  ASSERT_TRUE(container.Start().ok());

  NtcpServer server(&network, "ntcp.uiuc", MakeElasticPlugin(), &clock);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.PublishTo(container).ok());

  ASSERT_TRUE(server.Propose(MakeProposal("insp-1", 0.02)).accepted);
  ASSERT_TRUE(server.Execute("insp-1").ok());

  grid::ContainerClient observer(&network, "observer");
  auto services = observer.ListServices("container.uiuc");
  ASSERT_TRUE(services.ok());
  EXPECT_EQ(*services, std::vector<std::string>{"ntcp.uiuc"});

  auto sdes = observer.FindServiceData("container.uiuc", "ntcp.uiuc", "txn.");
  ASSERT_TRUE(sdes.ok());
  ASSERT_EQ(sdes->size(), 1u);
  EXPECT_EQ((*sdes)[0].first, "txn.insp-1");
  EXPECT_EQ((*sdes)[0].second.Get("state"), "completed");

  // Remote subscription to transaction changes.
  std::vector<std::string> events;
  ASSERT_TRUE(observer
                  .Subscribe("container.uiuc", "ntcp.uiuc", "txn.",
                             [&](const std::string&, const std::string& key,
                                 const grid::SdeValue& value) {
                               events.push_back(key + ":" +
                                                value.Get("state"));
                             })
                  .ok());
  ASSERT_TRUE(server.Propose(MakeProposal("insp-2", 0.01)).accepted);
  ASSERT_TRUE(server.Execute("insp-2").ok());
  // proposed->accepted, executing, completed all publish.
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events.back(), "txn.insp-2:completed");
}

// --- write-ahead log recovery (docs/RECOVERY.md) --------------------------------------

/// Byte offset where the last complete WAL frame starts, so tests can chop
/// the log exactly at a record boundary (frame: [u32 len][u32 crc][body]).
std::size_t LastFrameOffset(const std::vector<std::uint8_t>& bytes) {
  std::size_t offset = 0;
  std::size_t last = 0;
  while (offset + 8 <= bytes.size()) {
    const std::uint32_t length = static_cast<std::uint32_t>(bytes[offset]) |
                                 static_cast<std::uint32_t>(bytes[offset + 1])
                                     << 8 |
                                 static_cast<std::uint32_t>(bytes[offset + 2])
                                     << 16 |
                                 static_cast<std::uint32_t>(bytes[offset + 3])
                                     << 24;
    if (offset + 8 + length > bytes.size()) break;
    last = offset;
    offset += 8 + length;
  }
  return last;
}

class NtcpWalRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { network_.SetClock(&clock_); }

  /// Builds a fresh server incarnation over `storage_` and replays the log.
  std::unique_ptr<NtcpServer> Restart(WalRecovery* recovery,
                                      plugins::SimulationPlugin** plugin_out =
                                          nullptr) {
    auto plugin = MakeElasticPlugin();
    if (plugin_out != nullptr) *plugin_out = plugin.get();
    auto server = std::make_unique<NtcpServer>(&network_, "ntcp.wal",
                                               std::move(plugin), &clock_);
    EXPECT_TRUE(server->Start().ok());
    logs_.push_back(std::make_unique<wal::Log>(&storage_));
    auto recovered = server->AttachWal(logs_.back().get());
    EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
    if (recovery != nullptr && recovered.ok()) *recovery = *recovered;
    return server;
  }

  util::SimClock clock_{1'000'000};
  net::Network network_;
  wal::MemoryStorage storage_;
  std::vector<std::unique_ptr<wal::Log>> logs_;
};

TEST_F(NtcpWalRecoveryTest, RestartRebuildsTransactionTable) {
  WalRecovery recovery;
  auto first = Restart(&recovery);
  EXPECT_EQ(recovery.records_replayed, 0u);  // empty log: fresh state
  ASSERT_TRUE(first->Propose(MakeProposal("t1", 0.02)).accepted);
  ASSERT_TRUE(first->Execute("t1").ok());
  ASSERT_TRUE(first->Propose(MakeProposal("t2", 0.03)).accepted);
  first.reset();  // process exits; only the WAL survives

  plugins::SimulationPlugin* plugin = nullptr;
  auto second = Restart(&recovery, &plugin);
  EXPECT_EQ(recovery.transactions_recovered, 2u);
  EXPECT_EQ(recovery.inflight_failed, 0u);
  EXPECT_EQ(second->GetTransaction("t1")->state, TransactionState::kCompleted);
  EXPECT_EQ(second->GetTransaction("t2")->state, TransactionState::kAccepted);

  // At-most-once across the restart: a retried execute is served from the
  // recovered result cache, never re-run into the plugin.
  auto replayed = second->Execute("t1");
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->results.size(), 1u);
  EXPECT_NEAR(replayed->results[0].measured_force[0], 20.0, 1e-9);
  EXPECT_EQ(plugin->executions(), 0u);
  EXPECT_EQ(second->stats().duplicate_executes, 1u);

  // A retried propose for a recovered transaction deduplicates too.
  EXPECT_TRUE(second->Propose(MakeProposal("t2", 0.03)).accepted);
  EXPECT_EQ(second->stats().duplicate_proposals, 1u);

  // The still-accepted transaction remains executable on the new incarnation.
  EXPECT_TRUE(second->Execute("t2").ok());
  EXPECT_EQ(plugin->executions(), 1u);
}

TEST_F(NtcpWalRecoveryTest, InflightExecutionIsCrashMarkedFailed) {
  auto first = Restart(nullptr);
  ASSERT_TRUE(first->Propose(MakeProposal("t1", 0.02)).accepted);
  ASSERT_TRUE(first->Execute("t1").ok());
  first.reset();

  // Drop the final (kCompleted) record: the process died after the durable
  // "executing" intent but before the completion reached the log.
  auto bytes = storage_.Load();
  ASSERT_TRUE(bytes.ok());
  storage_.ForceTruncate(LastFrameOffset(*bytes));

  WalRecovery recovery;
  auto second = Restart(&recovery);
  EXPECT_EQ(recovery.transactions_recovered, 1u);
  EXPECT_EQ(recovery.inflight_failed, 1u);
  auto record = second->GetTransaction("t1");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->state, TransactionState::kFailed);
  EXPECT_NE(record->detail.find("crash"), std::string::npos);

  // The coordinator's retry observes the failure instead of re-executing: the
  // specimen may or may not have moved, and only a fresh transaction may act.
  auto retried = second->Execute("t1");
  ASSERT_FALSE(retried.ok());
  EXPECT_EQ(retried.status().code(), ErrorCode::kAborted);
  EXPECT_EQ(second->stats().duplicate_executes, 1u);
}

TEST_F(NtcpWalRecoveryTest, TornTailIsDiscardedOnRestart) {
  auto first = Restart(nullptr);
  ASSERT_TRUE(first->Propose(MakeProposal("t1", 0.02)).accepted);
  ASSERT_TRUE(first->Execute("t1").ok());
  first.reset();

  // Tear the final record mid-frame (crash between append and sync).
  auto bytes = storage_.Load();
  ASSERT_TRUE(bytes.ok());
  storage_.ForceTruncate(LastFrameOffset(*bytes) + 3);

  WalRecovery recovery;
  auto second = Restart(&recovery);
  EXPECT_GT(recovery.torn_bytes_truncated, 0u);
  // The torn completion is gone, so the transaction crash-marks kFailed.
  EXPECT_EQ(recovery.inflight_failed, 1u);
  EXPECT_EQ(second->GetTransaction("t1")->state, TransactionState::kFailed);
}

TEST_F(NtcpWalRecoveryTest, DoubleRecoveryIsIdempotent) {
  auto first = Restart(nullptr);
  ASSERT_TRUE(first->Propose(MakeProposal("t1", 0.02)).accepted);
  ASSERT_TRUE(first->Propose(MakeProposal("t2", 0.03)).accepted);
  ASSERT_TRUE(first->Execute("t1").ok());  // t1's completion is the last frame
  first.reset();
  auto bytes = storage_.Load();
  ASSERT_TRUE(bytes.ok());
  storage_.ForceTruncate(LastFrameOffset(*bytes));  // t1 left kExecuting

  WalRecovery recovery;
  auto second = Restart(&recovery);
  EXPECT_EQ(recovery.inflight_failed, 1u);
  second.reset();

  // The crash-mark itself was logged, so a second recovery replays it as a
  // plain transition: same table, nothing new to crash-mark.
  auto third = Restart(&recovery);
  EXPECT_EQ(recovery.transactions_recovered, 2u);
  EXPECT_EQ(recovery.inflight_failed, 0u);
  EXPECT_EQ(third->GetTransaction("t1")->state, TransactionState::kFailed);
  EXPECT_EQ(third->GetTransaction("t2")->state, TransactionState::kAccepted);
}

TEST_F(NtcpWalRecoveryTest, RetirementKeepsProposedAndIsNotLogged) {
  auto first = Restart(nullptr);
  ASSERT_TRUE(first->Propose(MakeProposal("t1", 0.02)).accepted);
  ASSERT_TRUE(first->Execute("t1").ok());
  ASSERT_TRUE(first->Propose(MakeProposal("t2", 0.03)).accepted);
  first.reset();
  // Drop t2's accept: the restarted site holds it in kProposed.
  auto bytes = storage_.Load();
  ASSERT_TRUE(bytes.ok());
  storage_.ForceTruncate(LastFrameOffset(*bytes));

  auto second = Restart(nullptr);
  ASSERT_EQ(second->GetTransaction("t2")->state, TransactionState::kProposed);
  EXPECT_EQ(second->RetireTerminal(), 1);
  EXPECT_EQ(second->ListTransactions(), std::vector<std::string>{"t2"});
  second.reset();

  // Retirement is not logged, so replaying the log brings t1 back, with its
  // cached result (docs/RECOVERY.md).
  WalRecovery recovery;
  auto third = Restart(&recovery);
  EXPECT_EQ(recovery.transactions_recovered, 2u);
  EXPECT_EQ(third->GetTransaction("t1")->state, TransactionState::kCompleted);
  EXPECT_EQ(third->GetTransaction("t2")->state, TransactionState::kProposed);
}

TEST_F(NtcpWalRecoveryTest, CorruptLogRefusesToRecover) {
  auto first = Restart(nullptr);
  ASSERT_TRUE(first->Propose(MakeProposal("t1", 0.02)).accepted);
  first.reset();
  storage_.CorruptByte(9);  // inside the first frame's body

  auto plugin = MakeElasticPlugin();
  auto server = std::make_unique<NtcpServer>(&network_, "ntcp.wal",
                                             std::move(plugin), &clock_);
  ASSERT_TRUE(server->Start().ok());
  wal::Log log(&storage_);
  auto recovered = server->AttachWal(&log);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), ErrorCode::kDataLoss);
}

}  // namespace
}  // namespace nees::ntcp
