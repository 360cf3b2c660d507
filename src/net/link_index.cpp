#include "net/link_index.hpp"

#include <algorithm>

namespace mayflower::net {

const std::vector<LinkIndex::Key> LinkIndex::empty_{};

void LinkIndex::add(Key key, const std::vector<LinkId>& links) {
  for (const LinkId l : links) {
    ensure_size(static_cast<std::size_t>(l) + 1);
    std::vector<Key>& keys = per_link_[l];
    if (keys.empty() || keys.back() < key) {
      keys.push_back(key);  // monotone key allocation: the common case
      continue;
    }
    const auto it = std::lower_bound(keys.begin(), keys.end(), key);
    MAYFLOWER_ASSERT_MSG(it == keys.end() || *it != key,
                         "key already indexed on this link");
    keys.insert(it, key);
  }
}

void LinkIndex::remove(Key key, const std::vector<LinkId>& links) {
  for (const LinkId l : links) {
    MAYFLOWER_ASSERT(l < per_link_.size());
    std::vector<Key>& keys = per_link_[l];
    const auto it = std::lower_bound(keys.begin(), keys.end(), key);
    MAYFLOWER_ASSERT_MSG(it != keys.end() && *it == key,
                         "removing a key the index does not hold");
    keys.erase(it);
  }
}

void LinkIndex::clear() {
  for (std::vector<Key>& keys : per_link_) keys.clear();
}

}  // namespace mayflower::net
