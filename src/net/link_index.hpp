// Per-link reverse flow index: LinkId -> ordered set of flow keys.
//
// The substrate behind the decision side's "who crosses this link?" query:
// net::NetworkView (keyed by sdn::Cookie) maintains one on believed-flow
// add/drop, turning per-link lookups from O(total flows) scans into
// O(flows on the link). The fluid simulator keeps its own per-link slot
// lists instead (net::FlowSim), so its loops read flow records without a
// key lookup.
//
// Keys on a link are kept sorted ascending, so iteration order is the id /
// cookie order every consumer already relies on for determinism. Keys are
// usually allocated monotonically, which makes the sorted insert an amortized
// push_back.
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.hpp"

namespace mayflower::net {

class LinkIndex {
 public:
  // FlowId and sdn::Cookie are both 64-bit; one key type serves every layer.
  using Key = std::uint64_t;

  LinkIndex() = default;
  explicit LinkIndex(std::size_t link_count) { ensure_size(link_count); }

  // Registers `key` on every link of `links` (a path's link list; entries are
  // distinct within one path). Grows the index if a link id is new.
  void add(Key key, const std::vector<LinkId>& links);

  // Removes `key` from every link of `links`. The key must be present on
  // each (add/remove calls must pair up with the same link list).
  void remove(Key key, const std::vector<LinkId>& links);

  // Keys crossing `link`, ascending. Links the index never saw are empty.
  const std::vector<Key>& on_link(LinkId link) const {
    return link < per_link_.size() ? per_link_[link] : empty_;
  }

  std::size_t count_on(LinkId link) const { return on_link(link).size(); }

  // Union of keys over `links`, deduplicated, ascending, written into `out`
  // (cleared first). Callers keep `out` across queries, so a steady stream
  // of unions allocates nothing once it has grown.
  void on_links(const std::vector<LinkId>& links, std::vector<Key>& out) const;

  void clear();

 private:
  void ensure_size(std::size_t n) {
    if (per_link_.size() < n) per_link_.resize(n);
  }

  std::vector<std::vector<Key>> per_link_;
  static const std::vector<Key> empty_;
};

}  // namespace mayflower::net
