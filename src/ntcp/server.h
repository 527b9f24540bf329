// NTCP server: the generic half of Fig. 2. Owns the transaction table and
// its state machine, guarantees at-most-once execution under client
// retries, enforces proposal timeouts, and publishes every transaction as
// an OGSI service data element (plus the "most recently changed" SDE the
// paper calls out for whole-server monitoring).
//
// RPC surface (on its own network endpoint):
//   ntcp.propose        Proposal -> {accepted, reason}
//   ntcp.execute        txn_id   -> TransactionResult   (idempotent)
//   ntcp.cancel         txn_id   -> {}
//   ntcp.getTransaction txn_id   -> TransactionRecord
//   ntcp.listTransactions {}     -> [txn_id...]
#pragma once

#include <map>
#include <memory>
#include <string>

#include "util/mutex.h"

#include "grid/container.h"
#include "grid/service.h"
#include "net/rpc.h"
#include "ntcp/plugin.h"
#include "ntcp/types.h"
#include "util/clock.h"
#include "wal/wal.h"

namespace nees::ntcp {

struct NtcpServerStats {
  std::uint64_t proposals = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t executions = 0;        // actual plugin Execute() calls
  std::uint64_t duplicate_executes = 0;  // retries served from cache
  std::uint64_t duplicate_proposals = 0;
  std::uint64_t cancels = 0;
  std::uint64_t expired = 0;
  std::uint64_t failures = 0;
  std::uint64_t wal_records = 0;       // transitions logged this incarnation
  std::uint64_t wal_sync_failures = 0;
};

/// What AttachWal reconstructed from the log (docs/RECOVERY.md, step R2).
struct WalRecovery {
  std::size_t records_replayed = 0;
  std::size_t transactions_recovered = 0;
  /// Transactions found in kExecuting — the crash interrupted the plugin
  /// and the specimen's state is unknown, so they are crash-marked kFailed
  /// (never silently re-executed; at-most-once survives the restart).
  std::size_t inflight_failed = 0;
  std::size_t torn_bytes_truncated = 0;
};

class NtcpServer {
 public:
  /// `endpoint` is the server's network name (e.g. "ntcp.uiuc").
  NtcpServer(net::Network* network, std::string endpoint,
             std::unique_ptr<ControlPlugin> plugin,
             util::Clock* clock = &util::SystemClock::Instance());
  ~NtcpServer();

  util::Status Start();
  void Stop();

  /// Hosts this server's state as a GridService in `container` so OGSI
  /// inspection (ogsi.findServiceData on "txn." keys) sees transactions.
  util::Status PublishTo(grid::ServiceContainer& container);

  /// Exposes the RPC server (to attach an AuthService, §4).
  net::RpcServer& rpc() { return rpc_server_; }
  const std::string& endpoint() const { return rpc_server_.endpoint(); }

  // Local (in-process) protocol operations; RPC methods call these.
  struct ProposeOutcome {
    bool accepted = false;
    std::string reason;
  };
  /// By value: the RPC handler moves the freshly decoded proposal straight
  /// into the transaction table; in-process callers pass lvalues (copied).
  ProposeOutcome Propose(Proposal proposal);
  util::Result<TransactionResult> Execute(const std::string& transaction_id);
  util::Status Cancel(const std::string& transaction_id);
  util::Result<TransactionRecord> GetTransaction(
      const std::string& transaction_id) const;
  std::vector<std::string> ListTransactions() const;

  /// Moves proposed/accepted transactions past their timeout to kExpired;
  /// returns how many expired. Call periodically (or before reusing ids).
  int ExpireStale();

  /// kVirtual only: arms a self-rescheduling timer on `network`'s event
  /// loop that runs ExpireStale() every `period_micros` of virtual time, so
  /// proposal expiry joins the same totally ordered, seed-reproducible
  /// schedule as delivery, retries, and heartbeats. Disarmed by Stop() (an
  /// already-queued firing becomes a no-op and does not re-arm).
  void ArmExpiryTimer(net::Network* network, std::int64_t period_micros);

  /// Drops terminal transactions older than `retention_micros`, bounding
  /// the table; returns how many were dropped.
  int GarbageCollect(std::int64_t retention_micros);

  /// The run-boundary rule (DESIGN.md decision 18): drops every terminal
  /// transaction, whatever its age, with its txn.* SDE; proposed, accepted
  /// and executing ones stay. MostExperiment::Run and MiniMostExperiment::Run
  /// call it on each site before their coordinator proposes anything, so a
  /// finished run stays inspectable until the next run begins. Not logged
  /// to an attached WAL (docs/RECOVERY.md). Returns how many were dropped.
  int RetireTerminal();

  /// Attaches a write-ahead log (docs/RECOVERY.md). Opens `log`, replays
  /// every record into the transaction table (restoring proposals, states,
  /// timestamps, and cached results), crash-marks transactions caught in
  /// kExecuting as kFailed, and from then on logs every transition durably
  /// before the reply that discloses it. Call once, before the server
  /// takes traffic; `log` must outlive the server. Replay is silent (no
  /// re-emitted trace events) except for one "ntcp.recover" summary event
  /// and the crash-mark transitions, which are traced with
  /// cause=crash-recovery so nees-lint can audit the restart.
  util::Result<WalRecovery> AttachWal(wal::Log* log);

  NtcpServerStats stats() const;

  /// Attaches a tracer to the server AND its plugin: protocol-phase spans
  /// here, compute/settle/queue spans in the backend.
  void set_tracer(obs::Tracer* tracer);

  /// The grid service holding the SDEs (for direct inspection in-process).
  grid::GridService& service_data() { return *service_; }

 private:
  void TransitionLocked(const std::string& id, TransactionRecord& record,
                        TransactionState to, const std::string& detail,
                        const std::string& cause = "") NEES_REQUIRES(mu_);
  /// Emits one "ntcp.txn" protocol event per state change (from "none" for
  /// creation) into the trace stream; nees-lint replays these. A non-empty
  /// `cause` is added as a tag (crash-mark transitions carry
  /// cause=crash-recovery).
  void RecordTxnEventLocked(const TransactionRecord& record,
                            std::string_view from, std::string_view to,
                            std::int64_t at_micros,
                            const std::string& cause = "")
      NEES_REQUIRES(mu_);
  /// WAL append helpers; no-ops when no log is attached. Sync failures are
  /// counted and logged but do not fail the operation for MemoryStorage-
  /// style stores (which cannot fail); FileStorage callers watch stats.
  void WalLogCreateLocked(const TransactionRecord& record)
      NEES_REQUIRES(mu_);
  void WalLogTransitionLocked(const std::string& id,
                              const TransactionRecord& record,
                              std::int64_t at_micros) NEES_REQUIRES(mu_);
  void WalSyncLocked() NEES_REQUIRES(mu_);
  /// Emits an "ntcp.dup" event when a retry is served from the
  /// at-most-once cache (kind: propose / propose-mismatch / execute).
  void RecordDupEventLocked(const TransactionRecord& record,
                            std::string_view kind) NEES_REQUIRES(mu_);
  /// Eagerly materialises the three SDE documents (txn.<id>, lastChanged,
  /// serverStats) for one transaction. Only runs on the hot path when the
  /// grid service has subscribers; otherwise transitions just mark the
  /// table dirty and FlushSde() rebuilds the documents on the next OGSI
  /// read (publish-on-read via GridService::SetRefreshHook).
  void PublishSdeLocked(const std::string& id,
                        const TransactionRecord& record) NEES_REQUIRES(mu_);
  void PublishTxnSdeLocked(const std::string& id,
                           const TransactionRecord& record)
      NEES_REQUIRES(mu_);
  void PublishServerStatsLocked() NEES_REQUIRES(mu_);
  /// Records that SDE documents are stale and captures the most recent
  /// change for the lastChanged SDE without allocating.
  void MarkSdeDirtyLocked(const std::string& id, TransactionState state,
                          std::int64_t at_micros) NEES_REQUIRES(mu_);
  /// Refresh-hook target: republishes every transaction plus lastChanged
  /// and serverStats iff something changed since the last flush.
  void FlushSde();
  void FlushSdeLocked() NEES_REQUIRES(mu_);
  /// GarbageCollect and RetireTerminal: drops the terminal transactions
  /// whose last change is before `cutoff_micros` and frees them after mu_
  /// is released.
  int DropTerminalBefore(std::int64_t cutoff_micros);
  void BindRpcMethods();

  net::RpcServer rpc_server_;
  std::unique_ptr<ControlPlugin> plugin_;
  util::Clock* clock_;
  obs::Tracer* tracer_ = nullptr;
  std::shared_ptr<grid::GridService> service_;

  mutable util::Mutex mu_{"ntcp.Server"};
  std::map<std::string, TransactionRecord> transactions_
      NEES_GUARDED_BY(mu_);
  NtcpServerStats stats_ NEES_GUARDED_BY(mu_);
  wal::Log* wal_ NEES_GUARDED_BY(mu_) = nullptr;

  // Lazy-SDE state: set by MarkSdeDirtyLocked, consumed by FlushSdeLocked.
  // last_changed_id_ reuses its capacity across steps, so marking a
  // transition dirty performs no heap allocation in steady state.
  bool sde_dirty_ NEES_GUARDED_BY(mu_) = false;
  // Set when a txn.* SDE is published; while it is clear, dropping a
  // transaction has no SDE to remove and builds no "txn.<id>" key.
  bool txn_sdes_published_ NEES_GUARDED_BY(mu_) = false;
  std::string last_changed_id_ NEES_GUARDED_BY(mu_);
  TransactionState last_changed_state_ NEES_GUARDED_BY(mu_) =
      TransactionState::kProposed;
  std::int64_t last_changed_at_ NEES_GUARDED_BY(mu_) = 0;

  // Liveness flag captured by armed expiry timers; cleared on Stop() so a
  // queued firing after shutdown is a safe no-op.
  std::shared_ptr<bool> expiry_armed_;
};

}  // namespace nees::ntcp
