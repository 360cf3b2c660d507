// A timing decorator over the public fs::Transport interface, delivering
// through an fs::SimTransport.
//
// Every RPC handler runs inside a span named "<server role>.<Method>", and
// every response callback inside "<caller role>.cb.<Method>", so a traced
// run attributes the fs servers', clients' and Flowserver service's
// wall-clock to their layer. Whether traced or not, the Flowserver
// service's read-plan and write-chain-plan handlers are timed: that is the
// decide_us sample on write_mix.
#pragma once

#include <array>
#include <functional>
#include <unordered_map>
#include <vector>

#include "fs/rpc/transport.hpp"
#include "spans.hpp"

namespace mayflower::perfbench {

enum class Role : std::uint8_t { kClient, kNameserver, kDataserver, kFlowserver };
inline constexpr std::size_t kRoles = 4;

class TimedTransport final : public fs::Transport {
 public:
  TimedTransport(sim::EventQueue& events, sim::SimTime one_way_latency,
                 SpanRecorder& rec);

  // The role `node` serves in (handlers bound at unregistered nodes are
  // dataservers).
  void set_role(net::NodeId node, Role role) { roles_[node] = role; }
  // Runs just before each plan handler of the Flowserver service, inside
  // its timing.
  void set_before_plan(std::function<void()> fn) {
    before_plan_ = std::move(fn);
  }

  void bind(net::NodeId node, fs::HandlerFn handler) override;
  void unbind(net::NodeId node) override { inner_.unbind(node); }
  void call(net::NodeId from, net::NodeId to, fs::Method method,
            fs::Bytes request, fs::ResponseFn on_response) override;

  const std::vector<double>& decide_us() const { return decide_us_; }
  std::uint64_t calls() const { return calls_; }
  std::uint64_t flowserver_calls() const { return flowserver_calls_; }
  // Request plus response payload bytes (responses counted when traced).
  std::uint64_t bytes() const { return bytes_; }

 private:
  static constexpr std::size_t kMethods = 32;

  Role role_of(net::NodeId node) const;
  std::uint32_t span_name(Role role, fs::Method method, bool callback) const;

  fs::SimTransport inner_;
  SpanRecorder* rec_;
  std::unordered_map<net::NodeId, Role> roles_;
  std::function<void()> before_plan_;
  // Interned span names: [role][method] for handlers and for callbacks.
  std::array<std::array<std::uint32_t, kMethods>, kRoles> handler_spans_{};
  std::array<std::array<std::uint32_t, kMethods>, kRoles> callback_spans_{};
  std::vector<double> decide_us_;
  std::uint64_t calls_ = 0;
  std::uint64_t flowserver_calls_ = 0;
  std::uint64_t bytes_ = 0;
};

// Layer prefix of a role's spans ("fs.client", "fs.ns", "fs.ds",
// "flowserver.rpc").
const char* role_prefix(Role role);

}  // namespace mayflower::perfbench
