// Write placement policies (§3.3 extension, Sinbad for writes).
//
// Where a read policy picks which EXISTING replica to fetch from, a write
// placement ranks which hosts should RECEIVE a new replica. Both are
// stateless over a NetworkView: the same snapshot that routes flows scores
// placements, so one decision batch sees one consistent network.
//
//  * model    — the believed-share ranking the Flowserver has always used
//               for collaborative placement: each candidate scores the
//               max-min share a new write flow from the writer would get
//               over its best path (writer-local candidates score the
//               zero-hop rate). It is flowserver::rank_write_targets_by_model,
//               the Flowserver's default when no ranker is installed.
//  * measured — Sinbad-faithful (MeasuredWritePlacement below): candidates
//               score the MEASURED headroom (capacity minus LinkRateMonitor
//               tx rate, bottlenecked over the best writer->candidate path)
//               instead of the model's believed shares. Immune to belief
//               drift between polls; blind to flows the monitor has not
//               sampled yet.
//  * static   — no advisor at all: the nameserver keeps the paper's random
//               fault-domain-constrained placement. Represented by kStatic
//               in the selector enum; there is no placement object.
//
// A ranking returns the tied-best band, never a single winner: ties are
// common on an idle fabric and the CALLER must break them with its own
// seeded Rng, or every file's replicas stack onto the same few hosts.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "flowserver/writechain.hpp"
#include "net/network_view.hpp"
#include "net/paths.hpp"

namespace mayflower::policy {

enum class WritePlacementKind { kStatic, kModel, kMeasured };

const char* to_string(WritePlacementKind kind);
// Parses "static" | "model" | "measured"; nullopt on anything else.
std::optional<WritePlacementKind> parse_write_placement(const std::string& s);

class MeasuredWritePlacement {
 public:
  explicit MeasuredWritePlacement(net::PathCache& paths) : paths_(&paths) {}

  // Ranks `candidates` (non-empty) as homes for a new replica written by
  // `writer` and returns the tied-best band (original order preserved,
  // never empty).
  std::vector<net::NodeId> rank(net::NodeId writer,
                                const std::vector<net::NodeId>& candidates,
                                const net::NetworkView& view) const;

  // Measured bytes/s still available on the best writer->candidate path:
  // max over paths of (min over links of capacity - tx rate). Writer-local
  // candidates return kLocalHeadroom (no fabric crossing). Exposed for
  // tests.
  units::Bps headroom(net::NodeId writer, net::NodeId candidate,
                      const net::NetworkView& view) const;

  // Above any link rate a monitor can report, below the tie tolerance's
  // overflow range: writer-local placement always wins when offered.
  static constexpr units::Bps kLocalHeadroom{1e30};

 private:
  net::PathCache* paths_;
};

}  // namespace mayflower::policy
