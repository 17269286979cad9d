// Discrete-event simulation substrate: scheduler ordering and cancellation,
// network latency/drop/partition behaviour, deterministic RNG, the
// recorder's trace view.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "sim/flat_map.hpp"
#include "sim/network.hpp"
#include "sim/sequence.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "storage/cluster.hpp"

namespace asa_repro::sim {
namespace {

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(30, [&] { order.push_back(3); });
  sched.schedule_at(10, [&] { order.push_back(1); });
  sched.schedule_at(20, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 30u);
}

TEST(Scheduler, TiesBreakByScheduleOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ScheduleAfterIsRelative) {
  Scheduler sched;
  Time fired_at = 0;
  sched.schedule_at(50, [&] {
    sched.schedule_after(25, [&] { fired_at = sched.now(); });
  });
  sched.run();
  EXPECT_EQ(fired_at, 75u);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  const auto id = sched.schedule_at(10, [&] { fired = true; });
  sched.cancel(id);
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelUnknownIdIsNoOp) {
  Scheduler sched;
  sched.cancel(424242);
  bool fired = false;
  sched.schedule_at(1, [&] { fired = true; });
  sched.run();
  EXPECT_TRUE(fired);
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler sched;
  std::vector<Time> fired;
  for (Time t : {10u, 20u, 30u, 40u}) {
    sched.schedule_at(t, [&fired, &sched] { fired.push_back(sched.now()); });
  }
  EXPECT_EQ(sched.run_until(25), 2u);
  EXPECT_EQ(fired, (std::vector<Time>{10, 20}));
  EXPECT_EQ(sched.pending(), 2u);
  sched.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) sched.schedule_after(5, tick);
  };
  sched.schedule_at(0, tick);
  sched.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sched.now(), 45u);
}

TEST(Scheduler, MaxEventsBoundsRunawayLoops) {
  Scheduler sched;
  std::function<void()> forever = [&] { sched.schedule_after(1, forever); };
  sched.schedule_at(0, forever);
  EXPECT_EQ(sched.run(100), 100u);
}

// ---- RNG. ----

TEST(Rng, DeterministicForSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(13), 13u);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.range(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  // The fork must not replay the parent's stream.
  Rng reference(42);
  (void)reference();  // Parent consumed one value to fork.
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (child() == reference()) ++same;
  }
  EXPECT_LT(same, 3);
}

// ---- Network. ----

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : network_(sched_, Rng(5), LatencyModel{100, 500}) {}
  Scheduler sched_;
  Network network_;
};

TEST_F(NetworkTest, DeliversWithinLatencyBounds) {
  Time delivered_at = 0;
  network_.attach(2, [&](NodeAddr from, const std::string& payload) {
    EXPECT_EQ(from, 1u);
    EXPECT_EQ(payload, "hello");
    delivered_at = sched_.now();
  });
  network_.send(1, 2, "hello");
  sched_.run();
  EXPECT_GE(delivered_at, 100u);
  EXPECT_LE(delivered_at, 500u);
  EXPECT_EQ(network_.stats().delivered, 1u);
}

TEST_F(NetworkTest, MessagesToDetachedNodeDropped) {
  network_.send(1, 9, "into the void");
  sched_.run();
  EXPECT_EQ(network_.stats().to_dead_node, 1u);
  EXPECT_EQ(network_.stats().delivered, 0u);
}

TEST_F(NetworkTest, DetachStopsDelivery) {
  int received = 0;
  network_.attach(2, [&](NodeAddr, const std::string&) { ++received; });
  network_.send(1, 2, "a");
  sched_.run();
  network_.detach(2);
  network_.send(1, 2, "b");
  sched_.run();
  EXPECT_EQ(received, 1);
}

TEST_F(NetworkTest, DropProbabilityLosesRoughlyThatFraction) {
  int received = 0;
  network_.attach(2, [&](NodeAddr, const std::string&) { ++received; });
  network_.set_drop_probability(0.5);
  for (int i = 0; i < 1000; ++i) network_.send(1, 2, "x");
  sched_.run();
  EXPECT_GT(received, 350);
  EXPECT_LT(received, 650);
  EXPECT_EQ(network_.stats().dropped + network_.stats().delivered, 1000u);
}

TEST_F(NetworkTest, DuplicationDeliversTwice) {
  int received = 0;
  network_.attach(2, [&](NodeAddr, const std::string&) { ++received; });
  network_.set_duplicate_probability(1.0);
  for (int i = 0; i < 50; ++i) network_.send(1, 2, "x");
  sched_.run();
  EXPECT_EQ(received, 100);
  EXPECT_EQ(network_.stats().duplicated, 50u);
}

TEST_F(NetworkTest, PartitionIsDirected) {
  int a_got = 0, b_got = 0;
  network_.attach(1, [&](NodeAddr, const std::string&) { ++a_got; });
  network_.attach(2, [&](NodeAddr, const std::string&) { ++b_got; });
  network_.partition(1, 2);
  network_.send(1, 2, "lost");
  network_.send(2, 1, "arrives");
  sched_.run();
  EXPECT_EQ(b_got, 0);
  EXPECT_EQ(a_got, 1);
  EXPECT_EQ(network_.stats().partitioned, 1u);
}

TEST_F(NetworkTest, HealRestoresDelivery) {
  int received = 0;
  network_.attach(2, [&](NodeAddr, const std::string&) { ++received; });
  network_.partition_bidirectional(1, 2);
  network_.send(1, 2, "lost");
  network_.heal(1, 2);
  network_.send(1, 2, "arrives");
  sched_.run();
  EXPECT_EQ(received, 1);
}

TEST_F(NetworkTest, ReorderingIsPossible) {
  // With per-message latency sampling, two messages can arrive out of send
  // order; check it actually happens over many trials.
  std::vector<int> arrivals;
  network_.attach(2, [&](NodeAddr, const std::string& p) {
    arrivals.push_back(std::stoi(p));
  });
  for (int i = 0; i < 100; ++i) network_.send(1, 2, std::to_string(i));
  sched_.run();
  EXPECT_EQ(arrivals.size(), 100u);
  EXPECT_FALSE(std::is_sorted(arrivals.begin(), arrivals.end()));
}

// ---- Frames in flight: inline slots and spill storage. ----

/// Frames of every size class around the slot's inline capacity, each a
/// distinct byte pattern (with NULs and high bytes) so a mix-up shows.
std::vector<std::string> frames_across_inline_boundary() {
  std::vector<std::string> frames;
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{33},
        Network::kInlineFrame, Network::kInlineFrame + 1,
        std::size_t{4096}}) {
    std::string f(size, '\0');
    for (std::size_t i = 0; i < size; ++i) {
      f[i] = static_cast<char>((i * 131 + size * 7) & 0xFF);
    }
    frames.push_back(f);
  }
  return frames;
}

TEST_F(NetworkTest, FramesRoundTripAcrossInlineBoundary) {
  const std::vector<std::string> frames = frames_across_inline_boundary();
  std::multiset<std::string> received;
  network_.attach(2, [&](NodeAddr, const std::string& p) {
    received.insert(p);
  });
  // Twice: the second round reuses freed slots and spill strings.
  for (int round = 0; round < 2; ++round) {
    received.clear();
    for (const std::string& f : frames) network_.send(1, 2, f);
    sched_.run();
    EXPECT_EQ(received,
              std::multiset<std::string>(frames.begin(), frames.end()));
  }
}

TEST_F(NetworkTest, DuplicatedFramesArriveByteExactTwice) {
  network_.set_duplicate_probability(1.0);
  const std::vector<std::string> frames = frames_across_inline_boundary();
  std::multiset<std::string> received;
  network_.attach(2, [&](NodeAddr, const std::string& p) {
    received.insert(p);
  });
  for (const std::string& f : frames) network_.send(1, 2, f);
  sched_.run();
  std::multiset<std::string> expected(frames.begin(), frames.end());
  expected.insert(frames.begin(), frames.end());
  EXPECT_EQ(received, expected);
  EXPECT_EQ(network_.stats().duplicated, frames.size());
}

TEST_F(NetworkTest, ManualModeFramesRoundTrip) {
  network_.set_manual_mode(true);
  network_.set_duplicate_probability(1.0);
  const std::vector<std::string> frames = frames_across_inline_boundary();
  std::vector<std::string> received;
  network_.attach(2, [&](NodeAddr, const std::string& p) {
    received.push_back(p);
  });
  for (const std::string& f : frames) network_.send(1, 2, f);
  ASSERT_EQ(network_.pending_count(), 2 * frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(network_.pending_payload(2 * i), frames[i]);
    EXPECT_EQ(network_.pending_payload(2 * i + 1), frames[i]);
  }
  while (network_.pending_count() > 0) network_.deliver_pending(0);
  ASSERT_EQ(received.size(), 2 * frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(received[2 * i], frames[i]);
    EXPECT_EQ(received[2 * i + 1], frames[i]);
  }
}

TEST_F(NetworkTest, HandlerSendingDuringDeliveryKeepsItsFrame) {
  const std::vector<std::string> frames = frames_across_inline_boundary();
  std::multiset<std::string> received;
  int depth = 0;
  network_.attach(3, [](NodeAddr, const std::string&) {});
  network_.attach(2, [&](NodeAddr, const std::string& p) {
    const std::string before = p;
    ++depth;
    // Reuse every slot and spill string this delivery freed...
    for (const std::string& f : frames) network_.send(2, 3, f);
    // ...and, in the first delivery, run every other one nested inside it.
    if (depth == 1) sched_.run();
    EXPECT_EQ(p, before);
    received.insert(p);
    --depth;
  });
  for (const std::string& f : frames) network_.send(1, 2, f);
  sched_.run();
  EXPECT_EQ(received, std::multiset<std::string>(frames.begin(), frames.end()));
}

/// Observations in the latency histogram `name` whose one label is
/// `key=value` (0 when the series does not exist; reading creates none).
std::uint64_t latency_count(const obs::MetricsRegistry& metrics,
                            const std::string& name, const std::string& key,
                            const std::string& value) {
  std::uint64_t count = 0;
  metrics.for_each_histogram([&](const obs::MetricsRegistry::Series& s,
                                 const obs::Histogram& h) {
    if (s.name == name && s.labels == obs::Labels{{key, value}}) {
      count = h.count();
    }
  });
  return count;
}

TEST_F(NetworkTest, LatencySeriesFollowLinkProfileAndRegistryChanges) {
  // A link resolves its latency series on its first delivery and keeps the
  // handles. Both ways those can go stale must move later observations: a
  // profile change re-labels the class series, and attaching another
  // registry (or none) stops writes into the old one.
  obs::MetricsRegistry first;
  obs::MetricsRegistry second;
  network_.set_metrics(&first);
  network_.attach(2, [](NodeAddr, const std::string&) {});
  const auto send = [&](int n) {
    for (int i = 0; i < n; ++i) network_.send(1, 2, "x");
    sched_.run();
  };
  const auto link = [](const obs::MetricsRegistry& m) {
    return latency_count(m, "net.latency_us", "link", "1->2");
  };
  const auto klass = [](const obs::MetricsRegistry& m, const char* name) {
    return latency_count(m, "net.class_latency_us", "class", name);
  };

  send(3);
  EXPECT_EQ(link(first), 3u);
  EXPECT_EQ(klass(first, "default"), 3u);

  network_.set_link_profile(1, 2, *link_profile("lan"));
  send(4);
  EXPECT_EQ(link(first), 7u);
  EXPECT_EQ(klass(first, "default"), 3u);
  EXPECT_EQ(klass(first, "lan"), 4u);

  network_.clear_link_profile(1, 2);
  send(2);
  EXPECT_EQ(klass(first, "default"), 5u);
  EXPECT_EQ(klass(first, "lan"), 4u);

  network_.set_metrics(&second);
  send(5);
  EXPECT_EQ(link(first), 9u);
  EXPECT_EQ(klass(first, "default"), 5u);
  EXPECT_EQ(link(second), 5u);
  EXPECT_EQ(klass(second, "default"), 5u);

  network_.set_metrics(nullptr);
  send(1);
  EXPECT_EQ(link(first), 9u);
  EXPECT_EQ(link(second), 5u);
  EXPECT_EQ(network_.stats().delivered, 15u);
}

// ---- FlatMap. ----

TEST(FlatMap, MatchesStdMapUnderRandomInsertAndErase) {
  // Sequential keys (request and update ids), random keys (GUIDs) and a
  // narrow range that forces long probe runs and erase back-shifts.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    FlatMap<std::uint64_t> map;
    std::map<std::uint64_t, std::uint64_t> reference;
    std::uint64_t next = 1;
    for (int step = 0; step < 20'000; ++step) {
      std::uint64_t key = 0;
      switch (rng.below(3)) {
        case 0:
          key = next++;
          break;
        case 1:
          key = rng();
          break;
        default:
          key = rng.below(512);
          break;
      }
      if (rng.below(3) == 0) {
        ASSERT_EQ(map.erase(key), reference.erase(key) > 0) << seed;
      } else {
        auto [value, inserted] = map.try_emplace(key);
        const bool fresh = !reference.contains(key);
        ASSERT_EQ(inserted, fresh) << seed;
        ASSERT_EQ(value, fresh ? 0 : reference[key]) << seed;
        value = key ^ static_cast<std::uint64_t>(step);
        reference[key] = value;
      }
      ASSERT_EQ(map.size(), reference.size());
    }
    for (const auto& [key, value] : reference) {
      const std::uint64_t* found = map.find(key);
      ASSERT_NE(found, nullptr) << seed;
      EXPECT_EQ(*found, value) << seed;
    }
    std::map<std::uint64_t, std::uint64_t> iterated;
    for (const auto& entry : map) iterated.emplace(entry.key, entry.value);
    EXPECT_EQ(iterated, reference) << seed;
  }
}

// ---- The recorder's trace view. ----

TEST(Trace, RecordsAndCounts) {
  // A keep-all recorder stores every event; its trace view reads them all
  // in record order across lanes, while its flight view reads the same
  // last `capacity` events per lane a ring recorder keeps.
  obs::FlightRecorder trace(2, obs::FlightRecorder::Retention::kAll);
  obs::FlightRecorder ring(2);
  for (obs::FlightRecorder* r : {&trace, &ring}) {
    r->record(10, 1, "commit.record", {{"guid", 5}});
    r->record(20, 2, "commit.abort", {{"guid", 5}});
    r->record(30, 1, "commit.record", {{"guid", 6}});
    r->record(40, 1, "commit.record", {{"guid", 7}});
  }
  const std::vector<obs::FlightEvent> events = trace.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(trace.total_recorded(), 4u);
  const auto count = [&events](std::string_view category) {
    return std::count_if(events.begin(), events.end(), [&](const auto& e) {
      return e.category == category;
    });
  };
  EXPECT_EQ(count("commit.record"), 3);
  EXPECT_EQ(count("commit.abort"), 1);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
    EXPECT_EQ(events[i].t, 10 * (i + 1));
  }
  EXPECT_EQ(events[1].node, 2u);
  EXPECT_EQ(events[3].detail, "guid=7");
  // The ring evicted node 1's oldest event; the trace view kept it.
  EXPECT_EQ(ring.events().size(), 3u);
  EXPECT_EQ(trace.to_json().dump(), ring.to_json().dump());
  ASSERT_EQ(trace.lane(1).size(), 2u);
  EXPECT_EQ(trace.lane(1)[0].detail, "guid=6");
}

TEST(Trace, DisabledTraceRecordsNothing) {
  // Tracing and the flight view both off: the cluster's recorder is off,
  // components hold no recorder, and nothing is stored.
  storage::ClusterConfig config;
  config.nodes = 6;
  storage::AsaCluster cluster(config);
  cluster.version_history().append(storage::Guid::named("off"),
                                   storage::Pid::of(storage::block_from("x")),
                                   [](const commit::CommitResult&) {});
  cluster.run();
  EXPECT_FALSE(cluster.flight().enabled());
  EXPECT_EQ(cluster.flight().total_recorded(), 0u);
  EXPECT_TRUE(cluster.flight().events().empty());
}

TEST(Sequence, RendersArrowsAndNotes) {
  obs::FlightRecorder trace(0, obs::FlightRecorder::Retention::kAll);
  trace.record(10, 1, "net.deliver",
               {{"id", 4}, {"from", 2}, {"to", 1}, {"latency", 9}});
  trace.record(20, 1, "net.deliver",
               {{"id", 5}, {"from", 3}, {"to", 1}, {"latency", 9}});
  trace.record(30, 1, "commit.record",
               {{"guid", 5}, {"update", 7}, {"request", 1}, {"latency", 30}});
  trace.record(40, 2, "commit.abort",
               {{"guid", 5}, {"update", 9}, {"request", 2}});
  const std::string mermaid = render_sequence_mermaid(trace);
  EXPECT_EQ(mermaid.find("sequenceDiagram"), 0u);
  EXPECT_NE(mermaid.find("participant node1"), std::string::npos);
  EXPECT_NE(mermaid.find("participant node3"), std::string::npos);
  EXPECT_NE(mermaid.find("node2->>node1: msg #4"), std::string::npos);
  EXPECT_NE(mermaid.find("node3->>node1: msg #5"), std::string::npos);
  EXPECT_NE(mermaid.find("Note over node1: commit u7"), std::string::npos);
  EXPECT_NE(mermaid.find("Note over node2: abort u9"), std::string::npos);
}

TEST(Sequence, TruncatesAtMaxEvents) {
  obs::FlightRecorder trace(0, obs::FlightRecorder::Retention::kAll);
  for (int i = 0; i < 10; ++i) {
    trace.record(static_cast<std::uint64_t>(i), 0, "net.deliver",
                 {{"id", 1}, {"from", 1}, {"to", 0}, {"latency", 1}});
  }
  SequenceOptions options;
  options.max_events = 3;
  const std::string mermaid = render_sequence_mermaid(trace, options);
  EXPECT_NE(mermaid.find("(truncated)"), std::string::npos);
  std::size_t arrows = 0;
  for (std::size_t pos = 0;
       (pos = mermaid.find("->>", pos)) != std::string::npos; ++pos) {
    ++arrows;
  }
  EXPECT_EQ(arrows, 3u);
}

TEST(Sequence, IgnoresUnparseableEvents) {
  obs::FlightRecorder trace(0, obs::FlightRecorder::Retention::kAll);
  trace.record(1, 0, "net.deliver", std::string("garbage with no fields"));
  trace.record(2, 0, "commit.instance", {{"guid", 1}, {"update", 2}});
  const std::string mermaid = render_sequence_mermaid(trace);
  EXPECT_EQ(mermaid, "sequenceDiagram\n");
}

TEST(Trace, DumpFormatsLines) {
  // The asa-trace/2 body: one JSON object per event, in record order
  // across lanes, the cluster lane by its numeric id.
  obs::FlightRecorder trace(0, obs::FlightRecorder::Retention::kAll);
  trace.record(10, 3, "commit.record", {{"guid", 9}});
  trace.record(12, obs::FlightRecorder::kClusterLane, "churn",
               std::string("join node=4"));
  trace.record(15, 1, "journal.append", {{"guid", 9}}, "ok");
  std::ostringstream out;
  trace.write_jsonl(out);
  EXPECT_EQ(out.str(),
            "{\"t\":10,\"node\":3,\"cat\":\"commit.record\","
            "\"detail\":\"guid=9\"}\n"
            "{\"t\":12,\"node\":4294967295,\"cat\":\"churn\","
            "\"detail\":\"join node=4\"}\n"
            "{\"t\":15,\"node\":1,\"cat\":\"journal.append\","
            "\"detail\":\"guid=9 ok\"}\n");
}

TEST(Scheduler, CancelledIdDoesNotAffectLaterEvents) {
  // The cancel set is consumed when the cancelled event's slot fires;
  // event ids are never reused, so cancelling one event must never
  // suppress any other, no matter how many events run afterwards.
  Scheduler sched;
  std::vector<int> fired;
  const auto id = sched.schedule_at(10, [&] { fired.push_back(0); });
  sched.cancel(id);
  for (int i = 1; i <= 100; ++i) {
    sched.schedule_at(static_cast<Time>(10 + i), [&fired, i] {
      fired.push_back(i);
    });
  }
  sched.run();
  ASSERT_EQ(fired.size(), 100u);
  EXPECT_EQ(fired.front(), 1);
  EXPECT_EQ(fired.back(), 100);
}

TEST(Scheduler, CancelFromWithinEvent) {
  Scheduler sched;
  bool fired = false;
  const auto victim = sched.schedule_at(20, [&] { fired = true; });
  sched.schedule_at(10, [&] { sched.cancel(victim); });
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, SelfCancelledEventIsNotHeld) {
  // A timeout that finishes its own operation cancels its own id, which
  // has already fired: the cancel is counted (once, however often it is
  // repeated) but nothing is held for an event that can never fire again.
  Scheduler sched;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 1'000; ++i) {
    const std::size_t index = ids.size();
    ids.push_back(sched.schedule_at(static_cast<Time>(10 + i), [&, index] {
      sched.cancel(ids[index]);
      sched.cancel(ids[index]);
    }));
  }
  const auto victim = sched.schedule_at(5'000, [] {});
  sched.cancel(victim);
  sched.cancel(victim);
  EXPECT_EQ(sched.pending_cancels(), 1u);
  sched.run();
  EXPECT_EQ(sched.pending_cancels(), 0u);
  EXPECT_EQ(sched.stats().cancelled, 1'001u);
  EXPECT_EQ(sched.stats().discarded, 1u);
  EXPECT_EQ(sched.stats().executed, 1'000u);
}

// ---- Scheduler conformance against a reference priority queue ----

/// The reference semantics: one priority queue over (when, id) holding the
/// actions, a cancelled-id set consumed at fire, and the same statistics.
/// An event cancelling itself while it runs is counted once and not held.
/// The timing-wheel Scheduler must be indistinguishable from it.
class ReferenceScheduler {
 public:
  using Action = std::function<void()>;

  [[nodiscard]] Time now() const { return now_; }

  std::uint64_t schedule_at(Time when, Action action) {
    const std::uint64_t id = next_id_++;
    queue_.push(Event{when, id, std::move(action)});
    ++stats_.scheduled;
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
    return id;
  }
  std::uint64_t schedule_after(Time delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }
  void cancel(std::uint64_t id) {
    if (id != 0 && id == running_) {
      if (!running_cancelled_) ++stats_.cancelled;
      running_cancelled_ = true;
      return;
    }
    if (cancelled_.insert(id).second) ++stats_.cancelled;
  }

  std::size_t run_until(Time deadline) {
    std::size_t executed = 0;
    while (!queue_.empty() && queue_.top().when <= deadline) {
      if (fire()) ++executed;
    }
    stats_.executed += executed;
    if (now_ < deadline && queue_.empty()) now_ = deadline;
    return executed;
  }
  std::size_t run(std::size_t max_events = 50'000'000) {
    std::size_t executed = 0;
    while (!queue_.empty() && executed < max_events) {
      if (fire()) ++executed;
    }
    stats_.executed += executed;
    return executed;
  }

  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] const SchedulerStats& stats() const { return stats_; }

 private:
  struct Event {
    Time when;
    std::uint64_t id;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;
    }
  };

  bool fire() {
    Event ev = queue_.top();
    queue_.pop();
    if (cancelled_.erase(ev.id) > 0) {
      ++stats_.discarded;
      return false;
    }
    now_ = ev.when;
    running_ = ev.id;
    running_cancelled_ = false;
    ev.action();
    running_ = 0;
    return true;
  }

  Time now_ = 0;
  std::uint64_t next_id_ = 1;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::set<std::uint64_t> cancelled_;
  std::uint64_t running_ = 0;
  bool running_cancelled_ = false;
  SchedulerStats stats_;
};

/// A seeded random script over one scheduler: schedules at past, present,
/// in-window, window-edge and far times (beyond 2^32 too), cancels
/// pending, fired and unknown ids, and interleaves run_until and bounded
/// run calls; fired events log (label, now()) and continue the script from
/// inside the action. Two schedulers with the same (when, id) semantics
/// consume the random stream identically and produce identical logs.
template <class Sched>
class SchedulerScript {
 public:
  explicit SchedulerScript(std::uint64_t seed) : rng_(seed) {}

  void play(int steps) {
    for (int step = 0; step < steps; ++step) {
      switch (rng_.below(10)) {
        case 0:
        case 1:
        case 2:
        case 3:
          schedule_one();
          break;
        case 4:
          cancel_one();
          break;
        case 5:
        case 6:
          run_until_one();
          break;
        case 7:
          ran_.push_back(sched_.run(1 + rng_.below(40)));
          break;
        default:
          break;
      }
      depths_.push_back(sched_.pending());
    }
    ran_.push_back(sched_.run());
  }

  [[nodiscard]] const Sched& sched() const { return sched_; }
  std::vector<std::pair<int, Time>> log;
  std::vector<std::uint64_t> ids;

  [[nodiscard]] const std::vector<std::size_t>& ran() const { return ran_; }
  [[nodiscard]] const std::vector<std::size_t>& depths() const {
    return depths_;
  }

 private:
  static constexpr Time kSpan = Scheduler::kWheelSpan;

  Time pick_time() {
    const Time now = sched_.now();
    switch (rng_.below(8)) {
      case 0:  // In the past.
        return now - rng_.below(std::min<Time>(now, 3 * kSpan) + 1);
      case 1:
        return now;
      case 2:  // Inside the window.
        return now + rng_.below(kSpan);
      case 3:  // Around the window edge.
        return now + kSpan - 2 + rng_.below(4);
      case 4:  // Beyond the window.
        return now + kSpan + rng_.below(4 * kSpan);
      case 5:  // Beyond 2^32 microseconds ahead.
        return now + (Time{1} << 32) + rng_.below(kSpan);
      case 6:  // An absolute time far out.
        return (Time{1} << 33) + rng_.below(Time{1} << 20);
      default:  // Close ties.
        return now + rng_.below(4);
    }
  }

  void schedule_one() {
    const int label = next_label_++;
    auto action = [this, label] { fire(label); };
    ids.push_back(rng_.below(4) == 0 ? sched_.schedule_after(0, action)
                                     : sched_.schedule_at(pick_time(), action));
  }

  void cancel_one() {
    if (ids.empty() || rng_.below(5) == 0) {
      sched_.cancel(1'000'000 + rng_.below(100));  // Unknown id.
    } else {
      sched_.cancel(ids[rng_.below(ids.size())]);  // Pending or fired.
    }
  }

  void run_until_one() {
    const Time now = sched_.now();
    Time deadline = now;
    switch (rng_.below(5)) {
      case 0:
        deadline = now - std::min<Time>(now, rng_.below(kSpan));
        break;
      case 1:
        deadline = now + rng_.below(kSpan);
        break;
      case 2:
        deadline = now + kSpan + rng_.below(8 * kSpan);
        break;
      case 3:
        deadline = now + (Time{1} << 32);
        break;
      default:
        break;
    }
    ran_.push_back(sched_.run_until(deadline));
  }

  void fire(int label) {
    log.emplace_back(label, sched_.now());
    switch (rng_.below(8)) {
      case 0:
        schedule_one();
        schedule_one();
        break;
      case 1:
      case 2:
        schedule_one();
        break;
      case 3:
        ids.push_back(sched_.schedule_after(0, [this, l = next_label_++] {
          fire(l);
        }));
        break;
      case 4:
        cancel_one();
        break;
      default:
        break;
    }
  }

  Sched sched_;
  sim::Rng rng_;
  int next_label_ = 0;
  std::vector<std::size_t> ran_;
  std::vector<std::size_t> depths_;
};

TEST(Scheduler, MatchesReferencePriorityQueue) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SchedulerScript<Scheduler> wheel(seed);
    SchedulerScript<ReferenceScheduler> reference(seed);
    wheel.play(400);
    reference.play(400);
    ASSERT_EQ(wheel.log, reference.log) << "seed " << seed;
    ASSERT_EQ(wheel.ids, reference.ids) << "seed " << seed;
    ASSERT_EQ(wheel.ran(), reference.ran()) << "seed " << seed;
    ASSERT_EQ(wheel.depths(), reference.depths()) << "seed " << seed;
    EXPECT_EQ(wheel.sched().now(), reference.sched().now());
    const SchedulerStats& a = wheel.sched().stats();
    const SchedulerStats& b = reference.sched().stats();
    EXPECT_EQ(a.scheduled, b.scheduled) << "seed " << seed;
    EXPECT_EQ(a.executed, b.executed) << "seed " << seed;
    EXPECT_EQ(a.cancelled, b.cancelled) << "seed " << seed;
    EXPECT_EQ(a.discarded, b.discarded) << "seed " << seed;
    EXPECT_EQ(a.max_queue_depth, b.max_queue_depth) << "seed " << seed;
    EXPECT_GT(wheel.log.size(), 100u) << "seed " << seed;
  }
}

TEST(Scheduler, PastAndFarEventsKeepTimeIdOrder) {
  // Hand-picked corners: an event scheduled behind the clock runs next and
  // sets the clock back; events past the window and past 2^32 run in
  // (time, id) order with in-window events scheduled later.
  Scheduler sched;
  std::vector<std::pair<int, Time>> fired;
  auto log = [&](int label) {
    return [&fired, &sched, label] { fired.emplace_back(label, sched.now()); };
  };
  const Time far = Scheduler::kWheelSpan * 3;
  const Time huge = (Time{1} << 32) + 5;
  sched.schedule_at(100, [&] {
    sched.schedule_at(50, log(1));            // In the past.
    sched.schedule_at(far, log(4));           // Beyond the window.
    sched.schedule_at(huge, log(6));          // Beyond 2^32.
    sched.schedule_after(0, log(2));          // Now: still t=100.
  });
  sched.schedule_at(far - Scheduler::kWheelSpan + 1, [&] {
    sched.schedule_at(far, log(5));  // Same time as 4, later id.
    sched.schedule_at(Scheduler::kWheelSpan, log(3));
  });
  sched.run();
  EXPECT_EQ(fired, (std::vector<std::pair<int, Time>>{{1, 50},
                                                      {2, 100},
                                                      {3, 8192},
                                                      {4, far},
                                                      {5, far},
                                                      {6, huge}}));
  EXPECT_EQ(sched.now(), huge);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Network, PendingRouteThrowsOutOfRange) {
  Scheduler sched;
  Network net(sched, Rng(1));
  net.set_manual_mode(true);
  net.attach(1, [](NodeAddr, const std::string&) {});
  EXPECT_THROW((void)net.pending_route(0), std::out_of_range);
  net.send(0, 1, "hello");
  ASSERT_EQ(net.pending_count(), 1u);
  EXPECT_EQ(net.pending_route(0), (std::pair<NodeAddr, NodeAddr>{0, 1}));
  EXPECT_THROW((void)net.pending_route(1), std::out_of_range);
}

// ---- Seed-split substreams. ----

TEST(Rng, DeriveSeedIsPureAndDirectionSensitive) {
  // derive_seed is a pure function: no draw order, no state.
  EXPECT_EQ(Rng::derive_seed(42, 7), Rng::derive_seed(42, 7));
  EXPECT_NE(Rng::derive_seed(42, 7), Rng::derive_seed(42, 8));
  EXPECT_NE(Rng::derive_seed(42, 7), Rng::derive_seed(7, 42));
}

TEST(Rng, SubstreamsAreIndependent) {
  Rng a = Rng::substream(99, 1);
  Rng b = Rng::substream(99, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

// ---- Latency-model validation. ----

TEST(LatencyModelValidation, RejectsMinAboveMax) {
  EXPECT_THROW(validate(LatencyModel{500, 100}), std::invalid_argument);
  Scheduler sched;
  EXPECT_THROW(Network(sched, Rng(1), LatencyModel{500, 100}),
               std::invalid_argument);
}

TEST(LatencyModelValidation, AcceptsDegenerateButOrderedRange) {
  validate(LatencyModel{100, 100});  // Fixed latency is fine.
  Scheduler sched;
  Network net(sched, Rng(1), LatencyModel{100, 100});
  Time delivered_at = 0;
  net.attach(2, [&](NodeAddr, const std::string&) {
    delivered_at = sched.now();
  });
  net.send(1, 2, "x");
  sched.run();
  EXPECT_EQ(delivered_at, 100u);
}

// ---- Link profiles. ----

TEST(LinkProfiles, NamedClassesResolveAndUnknownRejected) {
  for (const char* name : {"lan", "wan", "sat"}) {
    const auto profile = link_profile(name);
    ASSERT_TRUE(profile.has_value()) << name;
    EXPECT_EQ(profile->name, name);
    EXPECT_LE(profile->latency.min_latency, profile->latency.max_latency);
  }
  // "default" resets to the network-default behaviour.
  ASSERT_TRUE(link_profile("default").has_value());
  EXPECT_EQ(*link_profile("default"), LinkProfile{});
  EXPECT_FALSE(link_profile("dialup").has_value());
}

TEST(LinkProfiles, InstallRejectsDegenerateProfiles) {
  Scheduler sched;
  Network net(sched, Rng(1));
  LinkProfile bad_latency;
  bad_latency.latency = {900, 100};
  EXPECT_THROW(net.set_link_profile(1, 2, bad_latency),
               std::invalid_argument);
  LinkProfile bad_loss;
  bad_loss.loss_bad = 1.5;
  EXPECT_THROW(net.set_link_profile(1, 2, bad_loss),
               std::invalid_argument);
}

TEST(LinkProfiles, ProfileIsDirectedAndAsymmetric) {
  Scheduler sched;
  Network net(sched, Rng(3), LatencyModel{100, 100});
  LinkProfile slow;
  slow.name = "slow";
  slow.latency = {50'000, 50'000};
  net.set_link_profile(1, 2, slow);
  EXPECT_EQ(net.link_class(1, 2), "slow");
  EXPECT_EQ(net.link_class(2, 1), "default");

  std::map<NodeAddr, Time> delivered_at;
  net.attach(1, [&](NodeAddr, const std::string&) {
    delivered_at[1] = sched.now();
  });
  net.attach(2, [&](NodeAddr, const std::string&) {
    delivered_at[2] = sched.now();
  });
  net.send(1, 2, "slow path");
  net.send(2, 1, "fast path");
  sched.run();
  EXPECT_EQ(delivered_at[2], 50'000u);  // Profiled direction.
  EXPECT_EQ(delivered_at[1], 100u);     // Reverse stays on defaults.

  net.clear_link_profile(1, 2);
  EXPECT_EQ(net.link_class(1, 2), "default");
}

TEST(LinkProfiles, JitterExtendsTheLatencyCeiling) {
  Scheduler sched;
  Network net(sched, Rng(17), LatencyModel{100, 100});
  LinkProfile jittery;
  jittery.latency = {1'000, 1'000};
  jittery.jitter = 9'000;
  net.set_link_profile(1, 2, jittery);
  std::vector<Time> arrivals;
  net.attach(2, [&](NodeAddr, const std::string&) {
    arrivals.push_back(sched.now());
  });
  for (int i = 0; i < 200; ++i) {
    sched.schedule_at(static_cast<Time>(i) * 20'000, [&net] {
      net.send(1, 2, "j");
    });
  }
  sched.run();
  ASSERT_EQ(arrivals.size(), 200u);
  Time max_latency = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Time latency = arrivals[i] - static_cast<Time>(i) * 20'000;
    EXPECT_GE(latency, 1'000u);
    EXPECT_LE(latency, 10'000u);
    max_latency = std::max(max_latency, latency);
  }
  EXPECT_GT(max_latency, 1'000u);  // Jitter actually fired.
}

TEST(LinkProfiles, GilbertElliottLossIsBursty) {
  Scheduler sched;
  Network net(sched, Rng(29), LatencyModel{100, 100});
  LinkProfile bursty;
  bursty.loss_good = 0.0;  // All loss comes from the bad state.
  bursty.loss_bad = 1.0;
  bursty.p_good_to_bad = 0.05;
  bursty.p_bad_to_good = 0.25;
  net.set_link_profile(1, 2, bursty);
  int received = 0;
  net.attach(2, [&](NodeAddr, const std::string&) { ++received; });
  for (int i = 0; i < 2000; ++i) net.send(1, 2, "x");
  sched.run();
  // Stationary bad-state share = 0.05/(0.05+0.25) ~ 17%; loss must be
  // clearly nonzero, clearly partial, and all attributed to bursts.
  EXPECT_GT(net.stats().burst_dropped, 100u);
  EXPECT_LT(net.stats().burst_dropped, 700u);
  EXPECT_EQ(net.stats().dropped, net.stats().burst_dropped);
  EXPECT_EQ(static_cast<std::uint64_t>(received) + net.stats().dropped,
            2000u);
}

TEST(LinkProfiles, LossGoodDegeneratestoIndependentLoss) {
  Scheduler sched;
  Network net(sched, Rng(31), LatencyModel{100, 100});
  LinkProfile lossy;
  lossy.loss_good = 0.5;
  lossy.loss_bad = 0.5;
  lossy.p_good_to_bad = 0.0;  // Never enters the bad state.
  net.set_link_profile(1, 2, lossy);
  int received = 0;
  net.attach(2, [&](NodeAddr, const std::string&) { ++received; });
  for (int i = 0; i < 1000; ++i) net.send(1, 2, "x");
  sched.run();
  EXPECT_GT(received, 350);
  EXPECT_LT(received, 650);
  EXPECT_EQ(net.stats().burst_dropped, 0u);  // Good-state loss only.
}

TEST(LinkProfiles, PerLinkSubstreamsAreTrafficIndependent) {
  // The same link must see a bit-identical delivery sequence whether or
  // not another link carries traffic — the property that makes joins
  // deterministic (a newcomer's messages never perturb existing links).
  const auto observe = [](bool with_cross_traffic) {
    Scheduler sched;
    Network net(sched, Rng(1234), LatencyModel{100, 5'000});
    std::vector<Time> arrivals;
    net.attach(2, [&](NodeAddr, const std::string&) {
      arrivals.push_back(sched.now());
    });
    net.attach(4, [](NodeAddr, const std::string&) {});
    for (int i = 0; i < 50; ++i) {
      net.send(1, 2, "observed");
      if (with_cross_traffic) net.send(3, 4, "noise");
    }
    sched.run();
    return arrivals;
  };
  EXPECT_EQ(observe(false), observe(true));
}

TEST(LinkProfiles, BadStateIsObservable) {
  Scheduler sched;
  Network net(sched, Rng(7), LatencyModel{100, 100});
  LinkProfile stuck;
  stuck.loss_bad = 1.0;
  stuck.p_good_to_bad = 1.0;  // First message flips to bad...
  stuck.p_bad_to_good = 0.0;  // ...and it never recovers.
  net.set_link_profile(1, 2, stuck);
  EXPECT_FALSE(net.link_in_bad_state(1, 2));
  net.attach(2, [](NodeAddr, const std::string&) {});
  net.send(1, 2, "x");
  sched.run();
  EXPECT_TRUE(net.link_in_bad_state(1, 2));
  EXPECT_EQ(net.stats().burst_dropped, 1u);
  // Installing a fresh profile resets the loss state to good.
  net.set_link_profile(1, 2, stuck);
  EXPECT_FALSE(net.link_in_bad_state(1, 2));
}

TEST(Network, DeliverPendingThrowsOutOfRange) {
  Scheduler sched;
  Network net(sched, Rng(1));
  net.set_manual_mode(true);
  int delivered = 0;
  net.attach(1, [&](NodeAddr, const std::string&) { ++delivered; });
  EXPECT_THROW(net.deliver_pending(0), std::out_of_range);
  net.send(0, 1, "hello");
  EXPECT_THROW(net.deliver_pending(7), std::out_of_range);
  EXPECT_EQ(delivered, 0);  // The failed calls must not consume anything.
  net.deliver_pending(0);
  EXPECT_EQ(delivered, 1);
  EXPECT_THROW(net.deliver_pending(0), std::out_of_range);  // Now empty.
}

}  // namespace
}  // namespace asa_repro::sim
