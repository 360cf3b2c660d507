#include "timed_transport.hpp"

#include <chrono>
#include <string>

#include "common/assert.hpp"

namespace mayflower::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Who issues `method`: the role whose code runs in its response callback.
Role caller_of(fs::Method method) {
  switch (method) {
    case fs::Method::kAppendRelay:
    case fs::Method::kReportSize:
    case fs::Method::kInstallReplica:
      return Role::kDataserver;
    case fs::Method::kScanFiles:
    case fs::Method::kCreateReplica:
    case fs::Method::kDropReplica:
    case fs::Method::kPing:
    case fs::Method::kReplicateTo:
    case fs::Method::kUpdateReplicas:
      return Role::kNameserver;
    default:
      return Role::kClient;
  }
}

bool is_plan(fs::Method method) {
  return method == fs::Method::kSelectReplicas ||
         method == fs::Method::kPlanWrite;
}

std::size_t method_index(fs::Method method) {
  const auto i = static_cast<std::size_t>(method);
  MAYFLOWER_ASSERT_MSG(i < 32, "RPC method outside the span table");
  return i;
}

}  // namespace

const char* role_prefix(Role role) {
  switch (role) {
    case Role::kClient: return "fs.client";
    case Role::kNameserver: return "fs.ns";
    case Role::kDataserver: return "fs.ds";
    case Role::kFlowserver: return "flowserver.rpc";
  }
  return "?";
}

TimedTransport::TimedTransport(sim::EventQueue& events,
                               sim::SimTime one_way_latency, SpanRecorder& rec)
    : inner_(events, one_way_latency), rec_(&rec) {
  for (std::size_t r = 0; r < kRoles; ++r) {
    const std::string prefix = role_prefix(static_cast<Role>(r));
    for (std::size_t m = 0; m < kMethods; ++m) {
      const std::string method = fs::to_string(static_cast<fs::Method>(m));
      handler_spans_[r][m] = rec.intern(prefix + "." + method);
      callback_spans_[r][m] = rec.intern(prefix + ".cb." + method);
    }
  }
}

Role TimedTransport::role_of(net::NodeId node) const {
  const auto it = roles_.find(node);
  return it == roles_.end() ? Role::kDataserver : it->second;
}

std::uint32_t TimedTransport::span_name(Role role, fs::Method method,
                                        bool callback) const {
  const auto r = static_cast<std::size_t>(role);
  return callback ? callback_spans_[r][method_index(method)]
                  : handler_spans_[r][method_index(method)];
}

void TimedTransport::bind(net::NodeId node, fs::HandlerFn handler) {
  const Role role = role_of(node);
  inner_.bind(node, [this, role, handler = std::move(handler)](
                        net::NodeId from, fs::Method method,
                        const fs::Bytes& request, fs::ResponseFn reply) {
    ScopedSpan span(*rec_, span_name(role, method, false));
    if (rec_->enabled()) {
      // Count the response payload on its way back.
      reply = [this, reply = std::move(reply)](fs::Status status,
                                               fs::Bytes payload) {
        bytes_ += payload.size();
        reply(status, std::move(payload));
      };
    }
    if (role != Role::kFlowserver || !is_plan(method)) {
      handler(from, method, request, std::move(reply));
      return;
    }
    const Clock::time_point start = Clock::now();
    if (before_plan_) before_plan_();
    handler(from, method, request, std::move(reply));
    decide_us_.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count());
  });
}

void TimedTransport::call(net::NodeId from, net::NodeId to, fs::Method method,
                          fs::Bytes request, fs::ResponseFn on_response) {
  if (!rec_->enabled()) {
    inner_.call(from, to, method, std::move(request), std::move(on_response));
    return;
  }
  ++calls_;
  if (role_of(to) == Role::kFlowserver) ++flowserver_calls_;
  bytes_ += request.size();
  if (on_response) {
    on_response = [this, name = span_name(caller_of(method), method, true),
                   on_response = std::move(on_response)](fs::Status status,
                                                         fs::Bytes payload) {
      ScopedSpan span(*rec_, name);
      on_response(status, std::move(payload));
    };
  }
  inner_.call(from, to, method, std::move(request), std::move(on_response));
}

}  // namespace mayflower::perfbench
