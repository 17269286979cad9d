// Discrete-event scheduler with a simulated clock.
//
// The paper's system ran on a physical network (Java/Chord); this repo
// substitutes a deterministic discrete-event simulation so that Byzantine
// fault injection, message reordering, and deadlock scenarios are exactly
// reproducible. Events fire in (time, sequence) order, so ties are broken
// by scheduling order and runs are deterministic for a fixed seed.
//
// The pending-event set is a timing wheel: one FIFO bucket per microsecond
// over a fixed power-of-two window [base, base + kWheelSpan), threaded
// through a slab of event slots that own the moved-in actions, with an
// occupancy bitmap to find the next non-empty bucket. Every event in the
// window has a distinct bucket per time, and ids only grow, so a bucket's
// FIFO order is its id order. Events outside the window — beyond its end,
// or before its base (scheduled in the past) — wait in a (time, id)
// min-heap of slot references; far events migrate into the wheel the
// moment the window moves over them, before anything else can be
// scheduled into their bucket. Together the two give exactly the (time,
// id) order of a single priority queue, without ever copying an action.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/flat_map.hpp"

namespace asa_repro::sim {

/// Simulated time in microseconds.
using Time = std::uint64_t;

/// Scheduler-level statistics (always on: a handful of integer updates per
/// event, snapshotted into the metrics registry at export time).
struct SchedulerStats {
  std::uint64_t scheduled = 0;        // schedule_at/schedule_after calls.
  std::uint64_t executed = 0;         // Actions actually run.
  std::uint64_t cancelled = 0;        // cancel() calls registered.
  std::uint64_t discarded = 0;        // Cancelled events skipped at fire.
  std::size_t max_queue_depth = 0;    // Peak pending-event count.
};

/// Discrete-event scheduler. Not thread-safe: the simulation is
/// single-threaded by design (determinism).
class Scheduler {
 public:
  using Action = std::function<void()>;

  /// Width of the timing wheel in 1 µs buckets (a power of two). Events
  /// further ahead than this wait in the overflow heap.
  static constexpr Time kWheelSpan = 8192;

  Scheduler();

  /// Current simulated time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `action` to run at absolute time `when`. An event in the
  /// past still runs in (time, id) order — before everything later — and
  /// sets the clock back to its time. Returns an id usable with cancel().
  std::uint64_t schedule_at(Time when, Action action);

  /// Schedule `action` to run `delay` after the current time.
  std::uint64_t schedule_after(Time delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  /// Cancel a pending event. Cancelling an already-fired or unknown id is a
  /// harmless no-op (common for timeout events raced by completions).
  /// Repeated cancels of one id count once in stats().cancelled. An event
  /// that cancels itself while it runs (a timeout handler finishing its
  /// own operation) is counted but not remembered: it can never fire again.
  void cancel(std::uint64_t id);

  /// Run events until the queue is empty or `deadline` is passed.
  /// Returns the number of events executed.
  std::size_t run_until(Time deadline);

  /// Run all events to quiescence (or until `max_events` as a safety bound).
  /// Returns the number of events executed.
  std::size_t run(std::size_t max_events = 50'000'000);

  /// Pending (not yet fired, possibly cancelled) event count.
  [[nodiscard]] std::size_t pending() const { return pending_; }

  [[nodiscard]] const SchedulerStats& stats() const { return stats_; }

  /// Cancelled ids still held until their event fires.
  [[nodiscard]] std::size_t pending_cancels() const {
    return cancelled_.size();
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFF'FFFFu;
  static constexpr Time kWheelMask = kWheelSpan - 1;
  static constexpr std::size_t kBitmapWords = kWheelSpan / 64;
  static_assert((kWheelSpan & kWheelMask) == 0 && kWheelSpan >= 64,
                "the wheel span must be a power of two of at least 64");

  /// One pending event. `next` links the bucket FIFO or the free list.
  struct Slot {
    Action action;
    Time when = 0;
    std::uint64_t id = 0;
    std::uint32_t next = kNil;
  };
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  /// An event outside the wheel window, ordered by (when, id).
  struct Overflow {
    Time when;
    std::uint64_t id;
    std::uint32_t slot;
  };

  [[nodiscard]] bool in_window(Time when) const {
    return when >= base_ && when - base_ < kWheelSpan;
  }
  void push_bucket(std::uint32_t slot);
  void push_overflow(std::uint32_t slot);
  /// Bucket index of the earliest wheel event (the wheel must be
  /// non-empty): the first occupied bucket at or after the base's,
  /// circularly.
  [[nodiscard]] std::uint32_t first_bucket() const;
  /// Slot of the earliest pending event, or kNil when none is pending.
  [[nodiscard]] std::uint32_t peek() const;
  /// Unlink the earliest pending event (`slot`, as returned by peek()),
  /// moving the window base up to its time when it is not in the past.
  void pop(std::uint32_t slot);
  /// Move the window base forward to `base` and pull every overflow event
  /// the window now covers into its bucket.
  void advance_to(Time base);
  /// Pop the earliest event and run it unless cancelled; true if it ran.
  bool fire_next();

  bool is_cancelled(std::uint64_t id);

  Time now_ = 0;
  std::uint64_t next_id_ = 1;
  Time base_ = 0;
  std::size_t pending_ = 0;
  std::size_t wheel_count_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_ = kNil;  // Head of the free-slot list.
  std::vector<Bucket> buckets_;
  std::vector<std::uint64_t> occupied_;  // One bit per non-empty bucket.
  std::vector<Overflow> overflow_;       // Min-heap by (when, id).
  // Cancelled-but-not-yet-fired ids. O(1) lookup/erase: endpoint retry
  // timers make cancel-then-fire a hot path under chaos fault load, where
  // the former linear scan was quadratic in outstanding timeouts.
  struct Mark {};
  FlatMap<Mark> cancelled_;
  std::uint64_t running_ = 0;  // Id of the event whose action runs (0: none).
  bool running_cancelled_ = false;  // It cancelled itself.
  SchedulerStats stats_;
};

}  // namespace asa_repro::sim
