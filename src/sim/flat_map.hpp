// Open-addressed hash map from 64-bit keys to values.
//
// The runtime's per-message lookups — a commit peer's GUID state, an
// endpoint's outstanding requests, the scheduler's cancelled ids — go
// through this one structure. Values are stored densely, in insertion
// order except that an erase moves the last value into the hole. A
// power-of-two index of 8-byte slots finds them: each slot holds a value's
// position and the upper 32 bits of its key's Fibonacci hash (which also
// give the slot's home), and collisions probe linearly. Erase shifts the
// rest of the probe run back, so the index never holds tombstones.
//
// Both arrays grow by doubling on demand; nothing is reserved up front, and
// an index slot costs 8 bytes however large the value is. A lookup touches
// one index line and the value. Any insert or erase may move values: hold
// no pointer or reference across one. Iteration order is unspecified;
// callers whose effects depend on order sort the keys.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace asa_repro::sim {

template <class V>
class FlatMap {
 public:
  struct Entry {
    std::uint64_t key;
    [[no_unique_address]] V value;  // A set's empty value takes no room.
  };

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  [[nodiscard]] V* find(std::uint64_t key) {
    const std::size_t slot = find_slot(key);
    return slot == kNone ? nullptr : &entries_[slots_[slot].pos - 1].value;
  }
  [[nodiscard]] const V* find(std::uint64_t key) const {
    const std::size_t slot = find_slot(key);
    return slot == kNone ? nullptr : &entries_[slots_[slot].pos - 1].value;
  }

  /// The value under `key`, value-initialised first when absent; the flag
  /// is true when it was inserted.
  std::pair<V&, bool> try_emplace(std::uint64_t key) {
    if ((entries_.size() + 1) * 4 > slots_.size() * 3) grow();
    const std::uint32_t tag = tag_of(key);
    for (std::size_t i = home(tag);; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (s.pos == 0) {
        entries_.push_back({key, V{}});
        s = {static_cast<std::uint32_t>(entries_.size()), tag};
        return {entries_.back().value, true};
      }
      if (s.tag == tag && entries_[s.pos - 1].key == key) {
        return {entries_[s.pos - 1].value, false};
      }
    }
  }

  /// Remove `key`; false when it was absent.
  bool erase(std::uint64_t key) {
    std::size_t hole = find_slot(key);
    if (hole == kNone) return false;
    const std::uint32_t pos = slots_[hole].pos - 1;
    // Backward-shift deletion: pull each later member of the probe run
    // into the hole unless that would move it before its home.
    for (std::size_t j = (hole + 1) & mask(); slots_[j].pos != 0;
         j = (j + 1) & mask()) {
      const std::size_t h = home(slots_[j].tag);
      if (((j - h) & mask()) >= ((j - hole) & mask())) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = {};
    // Keep the values dense: the last one fills the erased one's place.
    const auto last = static_cast<std::uint32_t>(entries_.size() - 1);
    if (pos != last) {
      entries_[pos] = std::move(entries_[last]);
      const std::uint32_t tag = tag_of(entries_[pos].key);
      std::size_t i = home(tag);
      while (slots_[i].pos != last + 1) i = (i + 1) & mask();
      slots_[i].pos = pos + 1;
    }
    entries_.pop_back();
    return true;
  }

  [[nodiscard]] typename std::vector<Entry>::const_iterator begin() const {
    return entries_.begin();
  }
  [[nodiscard]] typename std::vector<Entry>::const_iterator end() const {
    return entries_.end();
  }

 private:
  /// An index slot: the value's position + 1 (0 = empty) and its tag.
  struct Slot {
    std::uint32_t pos = 0;
    std::uint32_t tag = 0;
  };
  static constexpr std::size_t kNone = ~std::size_t{0};

  /// Upper 32 bits of the Fibonacci hash: sequential keys (request and
  /// update ids) spread as well as random ones (GUIDs).
  [[nodiscard]] static std::uint32_t tag_of(std::uint64_t key) {
    return static_cast<std::uint32_t>((key * 0x9E3779B97F4A7C15ull) >> 32);
  }
  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }
  [[nodiscard]] std::size_t home(std::uint32_t tag) const {
    return tag >> shift_;
  }

  [[nodiscard]] std::size_t find_slot(std::uint64_t key) const {
    if (entries_.empty()) return kNone;
    const std::uint32_t tag = tag_of(key);
    for (std::size_t i = home(tag);; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      if (s.pos == 0) return kNone;
      if (s.tag == tag && entries_[s.pos - 1].key == key) return i;
    }
  }

  void grow() {
    const std::size_t capacity = slots_.empty() ? 16 : slots_.size() * 2;
    slots_.assign(capacity, Slot{});
    shift_ = 32;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (std::size_t pos = 0; pos < entries_.size(); ++pos) {
      const std::uint32_t tag = tag_of(entries_[pos].key);
      std::size_t i = home(tag);
      while (slots_[i].pos != 0) i = (i + 1) & mask();
      slots_[i] = {static_cast<std::uint32_t>(pos + 1), tag};
    }
  }

  std::vector<Entry> entries_;
  std::vector<Slot> slots_;
  unsigned shift_ = 32;  // 32 - log2(slots_.size()).
};

}  // namespace asa_repro::sim
