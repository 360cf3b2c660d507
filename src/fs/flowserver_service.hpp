// RPC front-end for the Flowserver (§5): "The Flowserver implementation is
// not tied to Mayflower, and can be integrated with any distributed
// application through its RPC framework." This binds the select/drop
// methods to a controller node on the cluster transport; plans travel in
// the Flowserver's own assignment type.
#pragma once

#include "flowserver/flowserver.hpp"
#include "fs/rpc/transport.hpp"

namespace mayflower::fs {

class FlowserverService {
 public:
  FlowserverService(Transport& transport, net::NodeId node,
                    flowserver::Flowserver& server);
  ~FlowserverService();

  FlowserverService(const FlowserverService&) = delete;
  FlowserverService& operator=(const FlowserverService&) = delete;

  net::NodeId node() const { return node_; }
  std::uint64_t requests_served() const { return requests_; }

 private:
  void handle(net::NodeId from, Method method, const Bytes& request,
              ResponseFn reply);

  Transport* transport_;
  net::NodeId node_;
  flowserver::Flowserver* server_;
  std::uint64_t requests_ = 0;
};

}  // namespace mayflower::fs
