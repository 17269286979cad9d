#include "sim/sequence.hpp"

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "obs/report.hpp"

namespace asa_repro::sim {

namespace {

bool is(const obs::FlightEvent& e, const char* category) {
  return std::strcmp(e.category, category) == 0;
}

/// A note's label: "commit u7" / "abort u9".
std::string note_label(const obs::FlightEvent& e) {
  std::string label = is(e, "commit.record") ? "commit" : "abort";
  if (const auto update = obs::detail_field(e.detail, "update");
      update.has_value()) {
    label += " u" + std::to_string(*update);
  }
  return label;
}

}  // namespace

std::string render_sequence_mermaid(const obs::FlightRecorder& recorder,
                                    const SequenceOptions& options) {
  const std::vector<obs::FlightEvent> events = recorder.events();
  // Collect the participants first so lifelines appear in node order.
  std::set<std::uint64_t> participants;
  for (const obs::FlightEvent& e : events) {
    if (is(e, "net.deliver")) {
      const auto from = obs::detail_field(e.detail, "from");
      const auto to = obs::detail_field(e.detail, "to");
      if (from.has_value() && to.has_value()) {
        participants.insert(*from);
        participants.insert(*to);
      }
    } else if (is(e, "commit.record") || is(e, "commit.abort")) {
      participants.insert(e.node);
    }
  }

  const auto name = [&options](std::uint64_t node) {
    return options.participant_prefix + std::to_string(node);
  };
  std::string out = "sequenceDiagram\n";
  for (const std::uint64_t p : participants) {
    out += "    participant " + name(p) + "\n";
  }

  std::size_t rendered = 0;
  for (const obs::FlightEvent& e : events) {
    if (options.max_events != 0 && rendered >= options.max_events) {
      out += "    Note over " + name(*participants.begin()) +
             ": ... (truncated)\n";
      break;
    }
    if (is(e, "net.deliver")) {
      const auto from = obs::detail_field(e.detail, "from");
      const auto to = obs::detail_field(e.detail, "to");
      if (!from.has_value() || !to.has_value()) continue;
      std::string label = "msg";
      if (const auto id = obs::detail_field(e.detail, "id"); id.has_value()) {
        label += " #" + std::to_string(*id);
      }
      out += "    " + name(*from) + "->>" + name(*to) + ": " + label + "\n";
      ++rendered;
    } else if (is(e, "commit.record") || is(e, "commit.abort")) {
      out += "    Note over " + name(e.node) + ": " + note_label(e) + "\n";
      ++rendered;
    }
  }
  return out;
}

}  // namespace asa_repro::sim
