// The commit hot path allocates nothing: once the runtime's tables and
// slabs have grown to a run's peak, delivering votes and commits to
// existing machine instances — including every send those deliveries
// trigger, the network's hand-over of each frame and the endpoint's
// handling of the acknowledgements — makes no heap allocation. The same
// holds for the durable journal's commit append to a GUID it already
// holds, and it stays true with a metrics registry and a flight recorder
// attached: observed, the hot path records into resolved series and
// fixed-size ring slots. Global operator new is replaced in this binary to
// count allocations.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "commit/endpoint.hpp"
#include "commit/machine_cache.hpp"
#include "commit/peer.hpp"
#include "durable/durable_log.hpp"
#include "durable/storage_medium.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace {

std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace asa_repro::commit {
namespace {

/// An r=4 peer set and one endpoint on a lossless network, committing one
/// update per GUID per round; GUIDs never contend. `observed` attaches a
/// metrics registry and a flight recorder to the network, the peers and
/// the endpoint.
class Stack {
 public:
  static constexpr std::size_t kFlightCapacity = 64;

  explicit Stack(bool observed = false)
      : network_(sched_, sim::Rng(11), sim::LatencyModel{500, 5'000}) {
    std::vector<sim::NodeAddr> addrs{0, 1, 2, 3};
    for (const sim::NodeAddr a : addrs) {
      peers_.push_back(std::make_unique<CommitPeer>(
          network_, a, addrs, cache_.machine_for(4), Behaviour::kHonest,
          observed ? &flight_ : nullptr));
    }
    endpoint_ = std::make_unique<CommitEndpoint>(
        network_, 100, addrs, 1, RetryPolicy{}, sim::Rng(12));
    if (observed) {
      network_.set_metrics(&metrics_);
      network_.set_flight(&flight_);
      for (const auto& p : peers_) p->set_metrics(&metrics_);
      endpoint_->set_metrics(&metrics_);
    }
  }

  /// Submit one update for each of `guids` GUIDs starting at `first`;
  /// returns the allocations made while the round ran to quiescence.
  std::uint64_t round(std::uint64_t first, std::uint64_t guids) {
    for (std::uint64_t g = first; g < first + guids; ++g) {
      endpoint_->submit(g, g + 1, [this](const CommitResult& r) {
        if (r.committed) ++committed_;
      });
    }
    const std::uint64_t before = g_allocations;
    sched_.run();
    const std::uint64_t made = g_allocations - before;
    for (const auto& p : peers_) p->collect_finished();
    return made;
  }

  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }
  [[nodiscard]] const obs::FlightRecorder& flight() const { return flight_; }
  [[nodiscard]] std::uint64_t committed() const { return committed_; }
  [[nodiscard]] std::uint64_t votes_and_commits() const {
    std::uint64_t n = 0;
    for (const auto& p : peers_) {
      n += p->stats().votes_received + p->stats().commits_received;
    }
    return n;
  }

 private:
  obs::MetricsRegistry metrics_;
  obs::FlightRecorder flight_{kFlightCapacity};
  MachineCache cache_;
  sim::Scheduler sched_;
  sim::Network network_;
  std::vector<std::unique_ptr<CommitPeer>> peers_;
  std::unique_ptr<CommitEndpoint> endpoint_;
  std::uint64_t committed_ = 0;
};

TEST(HotPath, VotesAndCommitsToExistingInstancesAllocateNothing) {
  constexpr std::uint64_t kGuids = 2'000;
  Stack stack;
  // Warm-up on other GUIDs at twice the load: the scheduler, network and
  // endpoint slabs and tables reach a peak above the measured round's.
  EXPECT_GT(stack.round(1'000'000, 2 * kGuids), 0u);
  // Three rounds on the measured GUIDs: each GUID's history grows to
  // capacity 4 (a history that must grow allocates, amortised).
  for (int r = 0; r < 3; ++r) stack.round(0, kGuids);
  const std::uint64_t committed = stack.committed();
  const std::uint64_t messages = stack.votes_and_commits();
  // The measured round: updates open inline instances in existing GUID
  // entries, then every vote and commit is delivered, answered and
  // recorded, and acknowledgements return to the endpoint.
  EXPECT_EQ(stack.round(0, kGuids), 0u);
  EXPECT_EQ(stack.committed() - committed, kGuids);
  EXPECT_GE(stack.votes_and_commits() - messages, 4 * 6 * kGuids);
}

TEST(HotPath, ObservedVotesAndCommitsAllocateNothing) {
  constexpr std::uint64_t kGuids = 2'000;
  Stack stack(/*observed=*/true);
  // The same warm-up as above. Afterwards every series the run observes
  // exists and every flight lane's ring is full.
  EXPECT_GT(stack.round(1'000'000, 2 * kGuids), 0u);
  for (int r = 0; r < 3; ++r) stack.round(0, kGuids);
  const std::size_t series = stack.metrics().series_count();
  const std::uint64_t recorded = stack.flight().total_recorded();
  ASSERT_EQ(stack.flight().lanes().size(), 5u);  // Four peers, the endpoint.
  for (const std::uint32_t lane : stack.flight().lanes()) {
    EXPECT_EQ(stack.flight().lane(lane).size(), Stack::kFlightCapacity);
  }
  const std::uint64_t committed = stack.committed();
  EXPECT_EQ(stack.round(0, kGuids), 0u);
  EXPECT_EQ(stack.committed() - committed, kGuids);
  // The round was observed: no new series, and every message's fates and
  // every instance's phases went into the rings.
  EXPECT_EQ(stack.metrics().series_count(), series);
  EXPECT_GE(stack.flight().total_recorded() - recorded, 2 * 4 * 6 * kGuids);
}

TEST(HotPath, DurableCommitsToExistingGuidsAllocateNothing) {
  constexpr std::uint64_t kGuids = 2'000;
  durable::MemMedium medium;
  durable::DurableLog log(medium, "node", /*snapshot_every=*/0);
  // Grow the journal's buffer past all the commits below (46 bytes each):
  // an unsynced tail of 23-byte membership records, then cut off again.
  constexpr std::size_t kFiller = 20'000;
  for (std::size_t i = 0; i < kFiller; ++i) log.record_membership(true, i);
  ASSERT_EQ(log.drop_unsynced_tail(kFiller), kFiller);
  // Two commits per GUID: each history vector reaches capacity 2.
  for (int r = 0; r < 2; ++r) {
    for (std::uint64_t g = 0; g < kGuids; ++g) {
      ASSERT_TRUE(log.record_commit(g, 2 * g + r, g, g + 1));
    }
  }
  // Grow each history to capacity 4 and fill it to 3.
  for (std::uint64_t g = 0; g < kGuids; ++g) {
    ASSERT_TRUE(log.record_commit(g, 10'000 + g, g, g + 1));
  }
  std::uint64_t recorded = 0;
  const std::uint64_t before = g_allocations;
  for (std::uint64_t g = 0; g < kGuids; ++g) {
    recorded += log.record_commit(g, 20'000 + g, g, g + 1) ? 1 : 0;
  }
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(recorded, kGuids);
  EXPECT_EQ(log.writer_stats().commits_recorded, 4 * kGuids);
}

}  // namespace
}  // namespace asa_repro::commit
