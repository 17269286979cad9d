// Flight recorder: the one event sink of a simulated run. Components
// record typed structured events into per-node lanes; two views read the
// same store.
//
//   * The flight view (lane(), lanes(), to_json(), merge(), post-mortem
//     bundles) answers "what did this node see in its last milliseconds":
//     the last `capacity` events of every lane. When the invariant checker
//     fires at hour N of a soak, the bundle carries exactly the recent
//     history around the violation.
//   * The trace view (events(), write_jsonl(), append()) reads every
//     stored event of every lane in global record order: the asa-trace/2
//     JSONL stream asareport consumes.
//
// What the store keeps is its retention: the last `capacity` events per
// lane (Retention::kRing, bounded memory however long the run), or every
// event (Retention::kAll, when a run is traced). The flight view reads the
// same last `capacity` events per lane under either retention, so flight
// output does not depend on whether the run is traced.
//
// Contract (mirrors MetricsRegistry):
//   1. Deterministic: events carry sim-time only, lanes are walked in
//      node-id order, and a global sequence number preserves cross-lane
//      ordering — identical runs produce byte-identical exports.
//   2. Free when off: instrumented components hold a `FlightRecorder*`
//      that is nullptr when recording is disabled, so the hot paths cost
//      one pointer test. A ring recorder constructed with capacity 0
//      additionally drops everything.
//   3. Cheap when on: hot sites record typed events — the category plus up
//      to kMaxFields (static key, u64 value) pairs and an optional static
//      tail word — into fixed-size slots. Nothing is formatted at record
//      time: the "key=value ..." detail text is built only when a view is
//      read. Once every ring is full, a typed record allocates nothing.
//      Cold sites (recovery, churn) may still pass a prebuilt detail string.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace asa_repro::obs {

/// One recorded event, as read back. `category` is a static string literal
/// supplied by the instrumentation site (never owned); `detail` is the
/// structured payload, "key=value" pairs.
struct FlightEvent {
  std::uint64_t t = 0;    // Sim-time microseconds.
  std::uint64_t seq = 0;  // Global record order across all lanes.
  std::uint32_t node = 0;  // The lane.
  const char* category = "";
  std::string detail;
};

/// One typed field of a flight event: a static key and its value. Renders
/// as "key=value".
struct FlightField {
  const char* key;
  std::uint64_t value;
};

class FlightRecorder {
 public:
  /// Lane id for events that belong to the cluster as a whole (scheduler
  /// queue-depth samples, violation markers) rather than to one node.
  static constexpr std::uint32_t kClusterLane = 0xFFFFFFFFu;

  /// What the store keeps: the last `capacity` events per lane, or every
  /// event (a traced run).
  enum class Retention { kRing, kAll };

  explicit FlightRecorder(std::size_t capacity = 0,
                          Retention retention = Retention::kRing)
      : capacity_(capacity),
        limit_(retention == Retention::kAll ? SIZE_MAX : capacity) {}

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Events per lane the flight view reads.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// True when the recorder stores anything (a ring of non-zero capacity,
  /// or keep-all retention).
  [[nodiscard]] bool enabled() const { return limit_ > 0; }

  /// Most typed fields one event carries.
  static constexpr std::size_t kMaxFields = 4;

  /// Append a typed event to `node`'s lane, evicting its oldest event when
  /// a ring lane is full. Its detail reads "k1=v1 k2=v2 ..." followed by
  /// `tail` (a static word such as "ok") when non-null. The category, keys
  /// and tail must be string literals: the recorder keeps their pointers,
  /// interned once per distinct (category, keys, tail) layout. Fields past
  /// kMaxFields are ignored. A disabled recorder drops the event (belt and
  /// braces — callers are expected to hold a nullptr instead and never
  /// reach this).
  void record(std::uint64_t t, std::uint32_t node, const char* category,
              std::initializer_list<FlightField> fields,
              const char* tail = nullptr);

  /// Append an event whose detail text is already built (cold sites).
  void record(std::uint64_t t, std::uint32_t node, const char* category,
              std::string detail);

  // ---- The flight view: the last `capacity` events of each lane. ----

  /// Lane ids whose flight view is non-empty, ascending (kClusterLane
  /// last).
  [[nodiscard]] std::vector<std::uint32_t> lanes() const;

  /// The flight view of `node`'s lane, oldest first. Empty for unknown
  /// lanes.
  [[nodiscard]] std::vector<FlightEvent> lane(std::uint32_t node) const;

  /// Total events ever recorded, including evicted ones.
  [[nodiscard]] std::uint64_t total_recorded() const { return recorded_; }

  /// Append the flight view of `other` (lane by lane, oldest first) into
  /// this recorder, re-sequencing into this recorder's global order; typed
  /// events stay typed. Used by campaign drivers to hand a run's recorder
  /// out of the engine.
  void merge(const FlightRecorder& other);

  /// JSON object {"<node>":[{"t","seq","cat","detail"}...],...} of the
  /// flight view, lanes in ascending node order; the cluster lane renders
  /// as "cluster".
  [[nodiscard]] JsonValue to_json() const;

  // ---- The trace view: every stored event, in global record order. ----

  /// Every stored event of every lane, in global record order.
  [[nodiscard]] std::vector<FlightEvent> events() const;

  /// Append every stored event of `other` in its global record order,
  /// re-sequencing into this recorder's order (a chaos campaign
  /// concatenates its per-seed traces this way).
  void append(const FlightRecorder& other);

  /// The asa-trace JSONL body: one {"t","node","cat","detail"} object per
  /// stored event, in global record order, details escaped (newlines,
  /// quotes and control characters survive a round-trip). Writers
  /// prepend the {"schema":"asa-trace/2",...} header line.
  void write_jsonl(std::ostream& os) const;

  /// Drop every stored event (a long run's reader drains the store as it
  /// goes); sequence numbers and the recorded total carry on.
  void clear() { lanes_.clear(); }

 private:
  /// What a recorded event's values mean: its category and, for a typed
  /// event, its keys and tail. Every distinct layout is stored once.
  struct Layout {
    const char* category = "";
    const char* tail = nullptr;
    std::array<const char*, kMaxFields> keys{};
    std::size_t count = 0;

    friend bool operator==(const Layout&, const Layout&) = default;
  };

  /// A ring slot: 64 bytes. A typed event keeps its values; an event
  /// recorded with a prebuilt detail keeps it in `text` (null for typed
  /// events, so a full ring of typed events holds no strings).
  struct Slot {
    std::uint64_t t = 0;
    std::uint64_t seq = 0;
    std::array<std::uint64_t, kMaxFields> values{};
    std::unique_ptr<std::string> text;
    std::uint32_t layout = 0;  // Index into layouts_.
  };
  static_assert(sizeof(Slot) <= 64, "a ring slot fits one cache line");

  struct Ring {
    std::vector<Slot> slots;  // Grows to limit_, then wraps.
    std::size_t next = 0;     // Overwrite cursor once full.
  };

  /// The slot the next event of `node` overwrites (a fresh one until the
  /// lane is full); stamps its time, sequence and layout.
  Slot& claim(std::uint64_t t, std::uint32_t node, const Layout& layout);

  /// Re-record `from` (a slot of `other`) into `node`'s lane.
  void copy_in(std::uint32_t node, const FlightRecorder& other,
               const Slot& from);

  /// The index of `layout` in layouts_, appending it when new. There are
  /// as many layouts as instrumented call sites, a few dozen at most.
  std::uint32_t intern(const Layout& layout);

  /// The flight view of `node`'s lane: its last `capacity_` slots, oldest
  /// first (empty for an unknown lane).
  [[nodiscard]] std::vector<const Slot*> ordered(std::uint32_t node) const;

  /// Every stored slot with its lane, in global sequence order.
  [[nodiscard]] std::vector<std::pair<std::uint32_t, const Slot*>> stored()
      const;

  /// The event's detail text.
  [[nodiscard]] std::string detail_of(const Slot& slot) const;

  std::size_t capacity_;
  std::size_t limit_;  // Slots a lane stores: capacity_, or all (SIZE_MAX).
  std::uint64_t seq_ = 0;
  std::uint64_t recorded_ = 0;
  std::map<std::uint32_t, Ring> lanes_;
  std::vector<Layout> layouts_;
};

}  // namespace asa_repro::obs
