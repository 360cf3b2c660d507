// Negative-space fixture: everything in here must pass every check.
// Mentioning flow_sim or port_bytes in a comment is fine — the scanner
// strips comments before matching, which is exactly what the old grep gate
// could not do. Neither is the string below a violation.
#include <map>
#include <unordered_map>

namespace fixture {

inline const char* banner() { return "poll_port_stats is only a string"; }

struct Table {
  std::unordered_map<int, int> cells_;
  std::map<int, int> ordered_;

  int sum() const {
    int total = 0;
    // Hash order is irrelevant here: addition commutes. lint:allow(nondet)
    for (const auto& kv : cells_) total += kv.second;
    for (const auto& kv : ordered_) total += kv.second;  // ordered: fine
    return total;
  }
};

}  // namespace fixture
