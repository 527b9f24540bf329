#include "layers.h"

#include <memory>
#include <string>

#include "net/message.h"
#include "net/network.h"
#include "net/rpc.h"
#include "ntcp/client.h"
#include "ntcp/server.h"
#include "plugins/simulation_plugin.h"
#include "structural/integrator.h"
#include "structural/substructure.h"
#include "wal/wal.h"

namespace perfbench {
namespace {

using namespace nees;

/// Times `batches` batches of `per_batch` calls of `body`, one span per
/// batch; returns the median per call in microseconds.
template <typename Body>
double TimeBatches(SpanLog& spans, const std::string& name, int batches,
                   int per_batch, Body&& body) {
  std::vector<double> per_call;
  per_call.reserve(batches);
  for (int b = 0; b < batches; ++b) {
    const double t0 = NowMicros();
    for (int i = 0; i < per_batch; ++i) body();
    const double t1 = NowMicros();
    spans.Record(name, t0, t1);
    per_call.push_back((t1 - t0) / per_batch);
  }
  return Median(per_call);
}

std::unique_ptr<plugins::SimulationPlugin> ElasticPlugin(double k) {
  auto plugin = std::make_unique<plugins::SimulationPlugin>();
  structural::Matrix stiffness(1, 1);
  stiffness(0, 0) = k;
  plugin->AddControlPoint(
      "cp", std::make_unique<structural::ElasticSubstructure>(stiffness));
  return plugin;
}

}  // namespace

double CodecNsPerFrame(SpanLog& spans) {
  ntcp::Proposal proposal;
  proposal.transaction_id = "wide32-r12-s742-a1-S17";
  proposal.step_index = 742;
  proposal.actions.push_back({"cp", {0.0123456789}, {}});
  util::ByteWriter request_body;
  ntcp::EncodeProposal(proposal, request_body);

  ntcp::TransactionResult result;
  result.results.push_back({"cp", {0.0123456789}, {12345.6789}});
  util::ByteWriter response_body;
  ntcp::EncodeTransactionResult(result, response_body);

  net::Message request;
  request.from = net::EndpointId("wide32.coordinator");
  request.to = net::EndpointId("wide32.site17");
  request.kind = net::MessageKind::kRequest;
  request.correlation_id = 742 * 32 + 17;
  request.method = net::MethodId("ntcp.propose");
  request.payload = net::EncodeRequestEnvelope("", request_body.data());
  net::Message response = request;
  std::swap(response.from, response.to);
  response.kind = net::MessageKind::kResponse;
  response.payload =
      net::EncodeResponseEnvelope(util::OkStatus(), response_body.data());

  std::uint64_t sink = 0;
  util::ByteWriter writer;
  auto round_trip = [&](const net::Message& message) {
    writer = util::ByteWriter();
    message.EncodeTo(writer);
    util::ByteReader reader(writer.data());
    auto decoded = net::Message::Decode(reader);
    sink += decoded.ok() ? decoded->payload.size() : 1;
  };
  const double us = TimeBatches(spans, "layer.net.codec", 50, 1000, [&] {
    round_trip(request);
    round_trip(response);
  });
  if (sink == 0) return 0.0;
  return us * 1e3 / 2.0;  // two frames per iteration
}

double RpcRoundTripUs(SpanLog& spans) {
  net::Network network(net::DeliveryMode::kImmediate);
  net::RpcServer server(&network, "layer.rpc.server");
  server.RegisterMethod("layer.empty",
                        [](const net::CallContext&, const net::Bytes&)
                            -> util::Result<net::Bytes> {
                          return net::Bytes();
                        });
  if (!server.Start().ok()) return 0.0;
  net::RpcClient client(&network, "layer.rpc.client");
  const net::EndpointId target("layer.rpc.server");
  const net::MethodId method("layer.empty");
  const net::Bytes body;
  bool ok = true;
  const double us = TimeBatches(spans, "layer.net.rpc", 50, 400, [&] {
    ok = client.Call(target, method, body).ok() && ok;
  });
  server.Stop();
  return ok ? us : 0.0;
}

double NtcpTransactionUs(SpanLog& spans) {
  net::Network network(net::DeliveryMode::kImmediate);
  ntcp::NtcpServer server(&network, "layer.ntcp.site", ElasticPlugin(1e6));
  if (!server.Start().ok()) return 0.0;
  net::RpcClient rpc(&network, "layer.ntcp.coordinator");
  ntcp::NtcpClient client(&rpc, "layer.ntcp.site");
  ntcp::Proposal proposal;
  proposal.actions.push_back({"cp", {0.01}, {}});
  std::int64_t step = 0;
  bool ok = true;
  const double us = TimeBatches(spans, "layer.ntcp.txn", 40, 100, [&] {
    proposal.step_index = step;
    proposal.transaction_id = "layer-s" + std::to_string(step++) + "-a1-S0";
    ok = client.Propose(proposal).ok() && ok;
    ok = client.Execute(proposal.transaction_id).ok() && ok;
  });
  server.Stop();
  return ok ? us : 0.0;
}

double WalAppendSyncUs(SpanLog& spans) {
  wal::MemoryStorage storage;
  wal::Log log(&storage);
  if (!log.Open().ok()) return 0.0;
  const std::vector<std::uint8_t> record(64, 0x5a);
  bool ok = true;
  const double us = TimeBatches(spans, "layer.wal.append_sync", 40, 500, [&] {
    ok = log.Append(1, record).ok() && ok;
    ok = log.Sync().ok() && ok;
  });
  return ok ? us : 0.0;
}

double IntegrateUsPerStep(double mass, double damping, double stiffness,
                          double dt, const std::vector<double>& accel,
                          SpanLog& spans) {
  const structural::NewmarkBeta newmark(
      structural::Matrix::Identity(1) * mass,
      structural::Matrix::Identity(1) * damping,
      structural::Matrix::Identity(1) * stiffness, {1.0});
  structural::GroundMotion motion;
  motion.dt_seconds = dt;
  motion.accel = accel;
  bool ok = true;
  const double us = TimeBatches(spans, "layer.structural.integrate", 15, 2,
                                [&] { ok = newmark.Integrate(motion).ok() && ok; });
  return ok && !accel.empty() ? us / static_cast<double>(accel.size()) : 0.0;
}

}  // namespace perfbench
