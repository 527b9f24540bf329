// Layer microbenchmarks of the traced run: each times calls into one
// module's public API in a closed loop and returns the median per call.
// Spans of every timed batch go to the run's SpanLog.
#pragma once

#include <vector>

#include "harness.h"

namespace perfbench {

/// net: Message EncodeTo + Decode of a wide-32 NTCP propose request and
/// execute response frame, ns per frame.
double CodecNsPerFrame(SpanLog& spans);
/// net: RpcClient::Call to an empty handler over kImmediate, us.
double RpcRoundTripUs(SpanLog& spans);
/// ntcp: NtcpClient Propose + Execute against one NtcpServer with an
/// elastic SimulationPlugin, us per transaction.
double NtcpTransactionUs(SpanLog& spans);
/// wal: Log::Append + Sync of one 64-byte record (the size of an NTCP
/// transition record) on MemoryStorage, us.
double WalAppendSyncUs(SpanLog& spans);
/// structural: NewmarkBeta::Integrate of an SDOF over `accel`, us per step.
double IntegrateUsPerStep(double mass, double damping, double stiffness,
                          double dt, const std::vector<double>& accel,
                          SpanLog& spans);

}  // namespace perfbench
