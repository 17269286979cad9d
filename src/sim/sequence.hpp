// Sequence-diagram rendering of recorded runs.
//
// The recorder's trace view holds every message delivery (net.deliver,
// with "from=<node> to=<node>" in its detail) and every commit-instance
// outcome; this renderer turns it into a Mermaid sequenceDiagram — a
// publishable artefact showing an actual protocol run, complementing the
// static state diagrams. Recorded commits and aborts become notes over the
// acting node's lifeline.
#pragma once

#include <string>

#include "obs/flight_recorder.hpp"

namespace asa_repro::sim {

struct SequenceOptions {
  /// Render at most this many events (0 = all); long runs get unwieldy.
  std::size_t max_events = 0;
  /// Prefix for participant names ("node" -> node0, node1, ...).
  std::string participant_prefix = "node";
};

/// Render the recorder's stored events as a Mermaid sequence diagram.
/// net.deliver events become arrows labelled with the message id (sender
/// and receiver parsed from their "from=N" and "to=N" tokens);
/// commit.record and commit.abort events become notes.
[[nodiscard]] std::string render_sequence_mermaid(
    const obs::FlightRecorder& recorder, const SequenceOptions& options = {});

}  // namespace asa_repro::sim
