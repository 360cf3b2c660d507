// The unit of every Flowserver plan (§5): one flow of `bytes` from `replica`
// along `path`, whose switch entries are installed under `cookie`. A read
// plan holds one per subflow (path replica -> client); a write-chain plan
// holds one per hop (replica = the hop's source host, path source -> next
// chain host). Data only, so the filesystem's RPC codec and dataservers
// carry it without reaching the Flowserver itself.
#pragma once

#include <tuple>

#include "net/paths.hpp"
#include "sdn/switch.hpp"

namespace mayflower::flowserver {

struct ReadAssignment {
  sdn::Cookie cookie = 0;
  net::NodeId replica = net::kInvalidNode;
  net::Path path;
  double bytes = 0.0;
  double est_bw_bps = 0.0;

  // Wire field order (fs/rpc/serializer.hpp); the path travels inline.
  static auto fields(auto& m) {
    return std::tie(m.cookie, m.replica, m.path.nodes, m.path.links, m.bytes,
                    m.est_bw_bps);
  }
};

}  // namespace mayflower::flowserver
