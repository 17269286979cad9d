#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

namespace asa_repro::obs {

std::uint32_t FlightRecorder::intern(const Layout& layout) {
  for (std::size_t i = 0; i < layouts_.size(); ++i) {
    if (layouts_[i] == layout) return static_cast<std::uint32_t>(i);
  }
  layouts_.push_back(layout);
  return static_cast<std::uint32_t>(layouts_.size() - 1);
}

FlightRecorder::Slot& FlightRecorder::claim(std::uint64_t t,
                                            std::uint32_t node,
                                            const Layout& layout) {
  Ring& ring = lanes_[node];
  Slot* slot = nullptr;
  if (ring.slots.size() < limit_) {
    slot = &ring.slots.emplace_back();
  } else {
    slot = &ring.slots[ring.next];
    ring.next = (ring.next + 1) % capacity_;
  }
  slot->t = t;
  slot->seq = seq_++;
  slot->layout = intern(layout);
  ++recorded_;
  return *slot;
}

void FlightRecorder::record(std::uint64_t t, std::uint32_t node,
                            const char* category,
                            std::initializer_list<FlightField> fields,
                            const char* tail) {
  if (limit_ == 0) return;
  Layout layout{.category = category, .tail = tail};
  std::array<std::uint64_t, kMaxFields> values{};
  for (const FlightField& field : fields) {
    if (layout.count == kMaxFields) break;
    layout.keys[layout.count] = field.key;
    values[layout.count++] = field.value;
  }
  Slot& slot = claim(t, node, layout);
  slot.values = values;
  slot.text.reset();
}

void FlightRecorder::record(std::uint64_t t, std::uint32_t node,
                            const char* category, std::string detail) {
  if (limit_ == 0) return;
  Slot& slot = claim(t, node, Layout{.category = category});
  slot.text = std::make_unique<std::string>(std::move(detail));
}

std::string FlightRecorder::detail_of(const Slot& slot) const {
  if (slot.text) return *slot.text;
  const Layout& layout = layouts_[slot.layout];
  std::string out;
  for (std::size_t i = 0; i < layout.count; ++i) {
    if (i > 0) out += ' ';
    out += layout.keys[i];
    out += '=';
    out += std::to_string(slot.values[i]);
  }
  if (layout.tail != nullptr) {
    if (!out.empty()) out += ' ';
    out += layout.tail;
  }
  return out;
}

std::vector<std::uint32_t> FlightRecorder::lanes() const {
  std::vector<std::uint32_t> out;
  if (capacity_ == 0) return out;
  out.reserve(lanes_.size());
  for (const auto& [node, ring] : lanes_) {
    if (!ring.slots.empty()) out.push_back(node);
  }
  return out;
}

std::vector<const FlightRecorder::Slot*> FlightRecorder::ordered(
    std::uint32_t node) const {
  const auto it = lanes_.find(node);
  if (it == lanes_.end()) return {};
  const Ring& ring = it->second;
  const std::size_t n = ring.slots.size();
  const std::size_t kept = std::min(n, capacity_);
  std::vector<const Slot*> out;
  out.reserve(kept);
  // A ring lane holds at most capacity_ slots, the oldest at `next` (0
  // until the first wrap). A keep-all lane never wraps, so its view is its
  // last capacity_ slots.
  const std::size_t start = n > capacity_ ? n - capacity_ : ring.next;
  for (std::size_t i = 0; i < kept; ++i) {
    out.push_back(&ring.slots[(start + i) % n]);
  }
  return out;
}

std::vector<FlightEvent> FlightRecorder::lane(std::uint32_t node) const {
  std::vector<FlightEvent> out;
  for (const Slot* slot : ordered(node)) {
    out.push_back({slot->t, slot->seq, node, layouts_[slot->layout].category,
                   detail_of(*slot)});
  }
  return out;
}

void FlightRecorder::copy_in(std::uint32_t node, const FlightRecorder& other,
                             const Slot& from) {
  Slot& slot = claim(from.t, node, other.layouts_[from.layout]);
  slot.values = from.values;
  slot.text = from.text ? std::make_unique<std::string>(*from.text) : nullptr;
}

void FlightRecorder::merge(const FlightRecorder& other) {
  if (limit_ == 0) return;
  for (const std::uint32_t node : other.lanes()) {
    for (const Slot* from : other.ordered(node)) copy_in(node, other, *from);
  }
}

JsonValue FlightRecorder::to_json() const {
  JsonValue root = JsonValue::object();
  for (const std::uint32_t node : lanes()) {
    JsonValue events = JsonValue::array();
    for (const FlightEvent& event : lane(node)) {
      JsonValue entry = JsonValue::object();
      entry.set("t", JsonValue(event.t));
      entry.set("seq", JsonValue(event.seq));
      entry.set("cat", JsonValue(event.category));
      entry.set("detail", JsonValue(event.detail));
      events.push_back(std::move(entry));
    }
    root.set(node == kClusterLane ? "cluster" : std::to_string(node),
             std::move(events));
  }
  return root;
}

std::vector<std::pair<std::uint32_t, const FlightRecorder::Slot*>>
FlightRecorder::stored() const {
  std::vector<std::pair<std::uint32_t, const Slot*>> out;
  for (const auto& [node, ring] : lanes_) {
    for (const Slot& slot : ring.slots) out.emplace_back(node, &slot);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second->seq < b.second->seq;
  });
  return out;
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::vector<FlightEvent> out;
  for (const auto& [node, slot] : stored()) {
    out.push_back({slot->t, slot->seq, node, layouts_[slot->layout].category,
                   detail_of(*slot)});
  }
  return out;
}

void FlightRecorder::append(const FlightRecorder& other) {
  if (limit_ == 0) return;
  for (const auto& [node, slot] : other.stored()) copy_in(node, other, *slot);
}

void FlightRecorder::write_jsonl(std::ostream& os) const {
  for (const auto& [node, slot] : stored()) {
    os << "{\"t\":" << slot->t << ",\"node\":" << node << ",\"cat\":\""
       << json_escape(layouts_[slot->layout].category) << "\",\"detail\":\""
       << json_escape(detail_of(*slot)) << "\"}\n";
  }
}

}  // namespace asa_repro::obs
