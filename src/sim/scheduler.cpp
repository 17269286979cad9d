#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>

namespace asa_repro::sim {

namespace {

/// Heap order for std::push_heap/pop_heap: the (when, id)-least on top.
struct Later {
  template <class E>
  bool operator()(const E& a, const E& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.id > b.id;
  }
};

}  // namespace

Scheduler::Scheduler()
    : buckets_(kWheelSpan), occupied_(kBitmapWords, 0) {}

std::uint64_t Scheduler::schedule_at(Time when, Action action) {
  // With nothing pending the window is free to move: re-anchor it at the
  // clock, so the next events land in the wheel rather than the heap.
  if (pending_ == 0) base_ = now_;
  const std::uint64_t id = next_id_++;
  std::uint32_t slot = free_;
  if (slot != kNil) {
    free_ = slots_[slot].next;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.action = std::move(action);
  s.when = when;
  s.id = id;
  if (in_window(when)) {
    push_bucket(slot);
  } else {
    push_overflow(slot);
  }
  ++pending_;
  ++stats_.scheduled;
  if (pending_ > stats_.max_queue_depth) stats_.max_queue_depth = pending_;
  return id;
}

void Scheduler::push_bucket(std::uint32_t slot) {
  const Time when = slots_[slot].when;
  slots_[slot].next = kNil;
  Bucket& b = buckets_[when & kWheelMask];
  if (b.tail == kNil) {
    b.head = slot;
    occupied_[(when & kWheelMask) >> 6] |= std::uint64_t{1} << (when & 63);
  } else {
    slots_[b.tail].next = slot;
  }
  b.tail = slot;
  ++wheel_count_;
}

void Scheduler::push_overflow(std::uint32_t slot) {
  overflow_.push_back({slots_[slot].when, slots_[slot].id, slot});
  std::push_heap(overflow_.begin(), overflow_.end(), Later{});
}

std::uint32_t Scheduler::first_bucket() const {
  // Every wheel event lies in [base_, base_ + kWheelSpan), so scanning the
  // bitmap circularly from the base's bucket meets the earliest first.
  const auto cursor = static_cast<std::uint32_t>(base_ & kWheelMask);
  const std::uint32_t word = cursor >> 6;
  const std::uint64_t ahead =
      occupied_[word] & (~std::uint64_t{0} << (cursor & 63));
  if (ahead != 0) {
    return (word << 6) | static_cast<std::uint32_t>(std::countr_zero(ahead));
  }
  // The remaining words in circular order; the base's own word comes last,
  // where only its bits below the cursor can still be set.
  for (std::size_t i = 1; i <= kBitmapWords; ++i) {
    const auto w = static_cast<std::uint32_t>((word + i) % kBitmapWords);
    if (occupied_[w] != 0) {
      return (w << 6) |
             static_cast<std::uint32_t>(std::countr_zero(occupied_[w]));
    }
  }
  return kNil;  // Unreachable while wheel_count_ > 0.
}

std::uint32_t Scheduler::peek() const {
  // A heap event is either in the past (before every wheel event) or
  // beyond the window (after every wheel event).
  if (!overflow_.empty() &&
      (wheel_count_ == 0 || overflow_.front().when < base_)) {
    return overflow_.front().slot;
  }
  if (wheel_count_ == 0) return kNil;
  return buckets_[first_bucket()].head;
}

void Scheduler::pop(std::uint32_t slot) {
  const Time when = slots_[slot].when;
  if (!overflow_.empty() && overflow_.front().slot == slot) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    overflow_.pop_back();
  } else {
    Bucket& b = buckets_[when & kWheelMask];
    b.head = slots_[slot].next;
    if (b.head == kNil) {
      b.tail = kNil;
      occupied_[(when & kWheelMask) >> 6] &=
          ~(std::uint64_t{1} << (when & 63));
    }
    --wheel_count_;
  }
  --pending_;
  if (when > base_) advance_to(when);
}

void Scheduler::advance_to(Time base) {
  base_ = base;
  // The heap holds no past events here (one would have been popped before
  // any later event), so everything it holds is at or after the new base.
  while (!overflow_.empty() && in_window(overflow_.front().when)) {
    const std::uint32_t slot = overflow_.front().slot;
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    overflow_.pop_back();
    push_bucket(slot);
  }
}

bool Scheduler::fire_next() {
  const std::uint32_t slot = peek();
  pop(slot);
  Slot& s = slots_[slot];
  const Time when = s.when;
  const std::uint64_t id = s.id;
  // Move the action out before running it: it may schedule events, which
  // can reuse or reallocate the slab.
  Action action = std::move(s.action);
  s.next = free_;
  free_ = slot;
  // Cancelled events are discarded without advancing the clock: nothing
  // happened at their time, and time measurements must not see them.
  if (is_cancelled(id)) return false;
  now_ = when;
  // Actions may run the scheduler themselves: restore the outer event.
  const std::uint64_t outer = running_;
  const bool outer_cancelled = running_cancelled_;
  running_ = id;
  running_cancelled_ = false;
  action();
  running_ = outer;
  running_cancelled_ = outer_cancelled;
  return true;
}

void Scheduler::cancel(std::uint64_t id) {
  if (id != 0 && id == running_) {
    if (!running_cancelled_) ++stats_.cancelled;
    running_cancelled_ = true;
    return;
  }
  if (cancelled_.try_emplace(id).second) ++stats_.cancelled;
}

bool Scheduler::is_cancelled(std::uint64_t id) {
  // Erase on fire: each id passes here exactly once, so the set holds only
  // cancellations whose event has not fired yet.
  if (!cancelled_.empty() && cancelled_.erase(id)) {
    ++stats_.discarded;
    return true;
  }
  return false;
}

std::size_t Scheduler::run_until(Time deadline) {
  std::size_t executed = 0;
  while (pending_ > 0 && slots_[peek()].when <= deadline) {
    if (fire_next()) ++executed;
  }
  stats_.executed += executed;
  if (now_ < deadline && pending_ == 0) now_ = deadline;
  return executed;
}

std::size_t Scheduler::run(std::size_t max_events) {
  std::size_t executed = 0;
  while (pending_ > 0 && executed < max_events) {
    if (fire_next()) ++executed;
  }
  stats_.executed += executed;
  return executed;
}

}  // namespace asa_repro::sim
