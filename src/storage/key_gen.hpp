// Replica key generation (paper section 2.1).
//
// The service endpoint determines which nodes should store replicas "by
// applying a globally known function that deterministically generates a set
// of keys from a single PID"; the prototype's function "returns a set of
// keys that are evenly distributed in key space", one per replica. The same
// function locates the peer set for a GUID's version history.
#pragma once

#include <cstdint>
#include <vector>

#include "p2p/node_id.hpp"

namespace asa_repro::storage {

/// The r ring offsets i * 2^160 / r for i in [0, r). Each thread keeps the
/// offsets of the last r it asked for, so the long divisions run once per
/// r rather than once per key. The reference is valid until this thread
/// next asks for a different r.
[[nodiscard]] inline const std::vector<p2p::NodeId>& replica_offsets(
    std::uint32_t replication_factor) {
  thread_local std::uint32_t cached_r = 0;
  thread_local std::vector<p2p::NodeId> offsets;
  if (cached_r != replication_factor) {
    offsets.clear();
    for (std::uint32_t i = 0; i < replication_factor; ++i) {
      offsets.push_back(p2p::NodeId::fraction_of_ring(i, replication_factor));
    }
    cached_r = replication_factor;
  }
  return offsets;
}

/// The r replica keys for `base`: base + i * 2^160 / r for i in [0, r).
/// Deterministic, evenly spaced, and key 0 is `base` itself.
[[nodiscard]] inline std::vector<p2p::NodeId> replica_keys(
    const p2p::NodeId& base, std::uint32_t replication_factor) {
  std::vector<p2p::NodeId> keys;
  keys.reserve(replication_factor);
  for (const p2p::NodeId& offset : replica_offsets(replication_factor)) {
    keys.push_back(base.plus(offset));
  }
  return keys;
}

}  // namespace asa_repro::storage
