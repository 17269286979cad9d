// Peer-set member corner cases driven with hand-crafted frames: node-lock
// serialisation (free/not_free), abort and recovery, history import, and
// Byzantine behaviour mechanics.
#include <gtest/gtest.h>

#include <memory>
#include <string_view>

#include "commit/endpoint.hpp"
#include "commit/machine_cache.hpp"
#include "commit/peer.hpp"
#include "obs/metrics.hpp"

namespace asa_repro::commit {
namespace {

constexpr std::uint64_t kGuid = 5;

struct PeerHarness {
  explicit PeerHarness(std::uint32_t r = 4,
                       Behaviour behaviour = Behaviour::kHonest)
      : machine(cache.machine_for(r)),
        network(sched, sim::Rng(1), sim::LatencyModel{100, 100}) {
    std::vector<sim::NodeAddr> addrs;
    for (std::uint32_t i = 0; i < r; ++i) addrs.push_back(i);
    peer = std::make_unique<CommitPeer>(network, 0, addrs, machine,
                                        behaviour, &trace);
    // Capture the peer's outgoing traffic at the other addresses.
    for (std::uint32_t i = 1; i < r; ++i) {
      network.attach(i, [this, i](sim::NodeAddr, const std::string& data) {
        const auto msg = WireMessage::parse(data);
        if (msg.has_value()) outgoing[i].push_back(*msg);
      });
    }
    network.attach(100, [this](sim::NodeAddr, const std::string& data) {
      const auto msg = WireMessage::parse(data);
      if (msg.has_value()) client_inbox.push_back(*msg);
    });
  }

  void send(sim::NodeAddr from, WireMessage::Kind kind,
            std::uint64_t update_id, std::uint64_t request_id = 0) {
    WireMessage m{kind, kGuid, update_id,
                  request_id == 0 ? update_id : request_id, update_id * 10};
    network.send(from, 0, m.serialize());
    // Bounded advance: deliver the frame (100us latency) without firing
    // far-future timers such as abort scans.
    sched.run_until(sched.now() + 1'000);
  }

  std::size_t votes_sent_for(std::uint64_t update_id) const {
    std::size_t n = 0;
    for (const auto& [addr, msgs] : outgoing) {
      for (const auto& m : msgs) {
        if (m.kind == WireMessage::Kind::kVote && m.update_id == update_id) {
          ++n;
        }
      }
    }
    return n;
  }

  MachineCache cache;
  const fsm::StateMachine& machine;
  sim::Scheduler sched;
  sim::Network network;
  obs::FlightRecorder trace{0, obs::FlightRecorder::Retention::kAll};
  std::unique_ptr<CommitPeer> peer;
  std::map<sim::NodeAddr, std::vector<WireMessage>> outgoing;
  std::vector<WireMessage> client_inbox;
};

TEST(Peer, UpdateWhileFreeVotesToAllOtherMembers) {
  PeerHarness h;
  h.send(100, WireMessage::Kind::kUpdate, 1);
  // One vote to each of the 3 other members, none to itself or the client.
  EXPECT_EQ(h.votes_sent_for(1), 3u);
  EXPECT_EQ(h.peer->stats().votes_sent, 1u);
}

TEST(Peer, SecondUpdateLockedOutUntilFirstFinishes) {
  PeerHarness h;
  h.send(100, WireMessage::Kind::kUpdate, 1);
  h.send(100, WireMessage::Kind::kUpdate, 2);
  // Update 2 arrived while update 1 holds the node lock: no vote for it.
  EXPECT_EQ(h.votes_sent_for(2), 0u);
  EXPECT_EQ(h.peer->live_instances(kGuid), 2u);

  // Drive update 1 to completion: 2 peer votes reach the threshold (with
  // the local vote), then 2 commits finish it.
  h.send(1, WireMessage::Kind::kVote, 1);
  h.send(2, WireMessage::Kind::kVote, 1);
  h.send(1, WireMessage::Kind::kCommit, 1);
  h.send(2, WireMessage::Kind::kCommit, 1);
  ASSERT_EQ(h.peer->history(kGuid).size(), 1u);
  // The freed lock passes to the pending update, which votes at once.
  EXPECT_EQ(h.votes_sent_for(2), 3u);
}

TEST(Peer, CompletionNotifiesTheClientOnce) {
  PeerHarness h;
  h.send(100, WireMessage::Kind::kUpdate, 1);
  h.send(1, WireMessage::Kind::kVote, 1);
  h.send(2, WireMessage::Kind::kVote, 1);
  h.send(1, WireMessage::Kind::kCommit, 1);
  h.send(2, WireMessage::Kind::kCommit, 1);
  ASSERT_EQ(h.client_inbox.size(), 1u);
  EXPECT_EQ(h.client_inbox[0].kind, WireMessage::Kind::kCommitted);
  EXPECT_EQ(h.client_inbox[0].update_id, 1u);
  // A resent update for the finished attempt is re-acknowledged (the
  // original notification may have been lost).
  h.send(100, WireMessage::Kind::kUpdate, 1);
  EXPECT_EQ(h.client_inbox.size(), 2u);
  // But unrelated traffic is not.
  h.send(1, WireMessage::Kind::kVote, 1);
  EXPECT_EQ(h.client_inbox.size(), 2u);
}

TEST(Peer, AbortFreesTheLockForPendingUpdates) {
  PeerHarness h;
  h.peer->enable_abort(5'000, 8'000);
  h.send(100, WireMessage::Kind::kUpdate, 1);  // Chooses, locks the node.
  h.send(100, WireMessage::Kind::kUpdate, 2);  // Pending.
  EXPECT_EQ(h.votes_sent_for(2), 0u);
  // No votes ever arrive for update 1: it stalls and is aborted.
  h.sched.run_until(h.sched.now() + 40'000);
  EXPECT_GE(h.peer->stats().aborted, 1u);
  // Update 2 inherited the lock and voted... unless it was aborted too
  // (both exceeded max_age). Verify via the lock: a THIRD update arriving
  // now must vote immediately.
  h.send(100, WireMessage::Kind::kUpdate, 3);
  EXPECT_EQ(h.votes_sent_for(3), 3u);
}

TEST(Peer, ImportHistoryOnlyIntoEmpty) {
  PeerHarness h;
  std::vector<CommitPeer::CommittedEntry> entries = {{10, 10, 100},
                                                     {11, 11, 110}};
  EXPECT_TRUE(h.peer->import_history(kGuid, entries));
  EXPECT_EQ(h.peer->history(kGuid).size(), 2u);
  // Non-empty: refuse.
  EXPECT_FALSE(h.peer->import_history(kGuid, {{12, 12, 120}}));
  EXPECT_EQ(h.peer->history(kGuid).size(), 2u);
}

TEST(Peer, ImportedUpdatesAbsorbLateTraffic) {
  // A replacement member bootstraps update 10 from its peers; the quorum's
  // votes and commits for it are still in flight. They must be absorbed as
  // for a settled update, not open a fresh instance that records update 10
  // a second time.
  PeerHarness h;
  ASSERT_TRUE(h.peer->import_history(kGuid, {{10, 10, 100}}));
  h.send(1, WireMessage::Kind::kVote, 10);
  h.send(2, WireMessage::Kind::kVote, 10);
  h.send(3, WireMessage::Kind::kVote, 10);
  h.send(1, WireMessage::Kind::kCommit, 10);
  h.send(2, WireMessage::Kind::kCommit, 10);
  EXPECT_EQ(h.peer->history(kGuid).size(), 1u);
  EXPECT_EQ(h.peer->resident_instances(kGuid), 0u);
  EXPECT_EQ(h.peer->stats().committed, 0u);
  // A resent update request is re-confirmed from the imported record.
  h.send(100, WireMessage::Kind::kUpdate, 10);
  ASSERT_EQ(h.client_inbox.size(), 1u);
  EXPECT_EQ(h.client_inbox[0].kind, WireMessage::Kind::kCommitted);
  EXPECT_EQ(h.client_inbox[0].update_id, 10u);
  EXPECT_EQ(h.peer->history(kGuid).size(), 1u);
}

TEST(Peer, CrashBehaviourIsSilent) {
  PeerHarness h(4, Behaviour::kCrash);
  h.send(100, WireMessage::Kind::kUpdate, 1);
  h.send(1, WireMessage::Kind::kVote, 1);
  EXPECT_TRUE(h.outgoing.empty() ||
              (h.outgoing[1].empty() && h.outgoing[2].empty()));
  EXPECT_TRUE(h.client_inbox.empty());
  EXPECT_EQ(h.peer->stats().votes_sent, 0u);
}

TEST(Peer, EquivocatorBlastsOncePerUpdate) {
  PeerHarness h(4, Behaviour::kEquivocator);
  h.send(1, WireMessage::Kind::kVote, 7);
  h.send(2, WireMessage::Kind::kVote, 7);  // Same update: no second blast.
  std::size_t votes = 0, commits = 0;
  for (const auto& [addr, msgs] : h.outgoing) {
    for (const auto& m : msgs) {
      votes += m.kind == WireMessage::Kind::kVote;
      commits += m.kind == WireMessage::Kind::kCommit;
    }
  }
  EXPECT_EQ(votes, 3u);    // One vote to each other member.
  EXPECT_EQ(commits, 3u);  // One commit to each other member.
}

TEST(Peer, WithholderOnlyReachesLowerHalf) {
  PeerHarness h(4, Behaviour::kWithholder);
  h.send(100, WireMessage::Kind::kUpdate, 1);
  // Peers are {0,1,2,3}; the withholder (0) sends votes only to the lower
  // half of the OTHER members by rank: ranks of 1,2,3 are 1,2,3; size/2=2,
  // so only rank<2 receives, i.e. peer 1.
  EXPECT_EQ(h.outgoing[1].size(), 1u);
  EXPECT_TRUE(h.outgoing[2].empty());
  EXPECT_TRUE(h.outgoing[3].empty());
}

TEST(Peer, CollectFinishedReleasesMemoryAndAbsorbsLateTraffic) {
  PeerHarness h;
  // Commit update 1 end to end.
  h.send(100, WireMessage::Kind::kUpdate, 1);
  h.send(1, WireMessage::Kind::kVote, 1);
  h.send(2, WireMessage::Kind::kVote, 1);
  h.send(1, WireMessage::Kind::kCommit, 1);
  h.send(2, WireMessage::Kind::kCommit, 1);
  ASSERT_EQ(h.peer->history(kGuid).size(), 1u);
  EXPECT_EQ(h.peer->resident_instances(kGuid), 1u);

  EXPECT_EQ(h.peer->collect_finished(), 1u);
  EXPECT_EQ(h.peer->resident_instances(kGuid), 0u);

  // A straggler vote for the settled update must not resurrect it.
  h.send(3, WireMessage::Kind::kVote, 1);
  EXPECT_EQ(h.peer->resident_instances(kGuid), 0u);
  // A resent update request is re-confirmed from the settled record.
  const std::size_t before = h.client_inbox.size();
  h.send(100, WireMessage::Kind::kUpdate, 1);
  ASSERT_EQ(h.client_inbox.size(), before + 1);
  EXPECT_EQ(h.client_inbox.back().kind, WireMessage::Kind::kCommitted);
  EXPECT_EQ(h.peer->resident_instances(kGuid), 0u);
  // History is untouched.
  EXPECT_EQ(h.peer->history(kGuid).size(), 1u);
}

TEST(Peer, CollectFinishedSkipsLiveInstances) {
  PeerHarness h;
  h.send(100, WireMessage::Kind::kUpdate, 1);  // In progress.
  EXPECT_EQ(h.peer->collect_finished(), 0u);
  EXPECT_EQ(h.peer->resident_instances(kGuid), 1u);
}

TEST(Peer, HistoryForUnknownGuidIsEmpty) {
  PeerHarness h;
  EXPECT_TRUE(h.peer->history(999).empty());
  EXPECT_EQ(h.peer->live_instances(999), 0u);
}

// ---- The per-GUID table under load ----

/// FNV-1a over everything a contended run makes observable.
class Digest {
 public:
  void add(std::string_view bytes) {
    for (const char c : bytes) {
      hash_ = (hash_ ^ static_cast<std::uint8_t>(c)) * 0x100000001B3ull;
    }
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

/// 10k GUIDs, three endpoints each updating every GUID at once on an r=4
/// peer set with abort scans: vote splits, aborts, retries and sibling
/// free/not_free fan-out on every GUID. Mid-run one peer reconciles and
/// another imports histories, and every peer collects finished instances
/// periodically. Returns the digest of the trace (drained as the run goes,
/// to keep memory flat), the metrics export, every history, all statistics
/// and every commit result.
struct ContendedRun {
  std::uint64_t trace = 0;
  std::uint64_t metrics = 0;
  std::uint64_t state = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t collected = 0;
  std::uint64_t reconciled = 0;
  std::uint64_t imported = 0;
  std::size_t max_resident = 0;  // Instances of one GUID on one peer.
};

ContendedRun run_contended(std::uint64_t seed) {
  constexpr std::uint32_t kR = 4;
  constexpr std::uint64_t kGuids = 10'000;
  constexpr sim::Time kSpacing = 20;  // Between GUID submissions.
  constexpr sim::Time kDrainEvery = 5'000;
  constexpr sim::Time kCollectEvery = 50'000;
  constexpr sim::Time kHorizon = 3'000'000;

  MachineCache cache;
  sim::Scheduler sched;
  sim::Network network(sched, sim::Rng(seed), sim::LatencyModel{500, 5'000});
  obs::FlightRecorder trace(0, obs::FlightRecorder::Retention::kAll);
  obs::MetricsRegistry metrics;
  network.set_flight(&trace);
  std::vector<sim::NodeAddr> addrs;
  for (sim::NodeAddr a = 0; a < kR; ++a) addrs.push_back(a);
  std::vector<std::unique_ptr<CommitPeer>> peers;
  for (const sim::NodeAddr a : addrs) {
    peers.push_back(std::make_unique<CommitPeer>(
        network, a, addrs, cache.machine_for(kR), Behaviour::kHonest, &trace));
    peers.back()->set_metrics(&metrics);
    peers.back()->enable_abort(60'000, 80'000);
  }
  std::vector<std::unique_ptr<CommitEndpoint>> endpoints;
  for (sim::NodeAddr e = 0; e < 3; ++e) {
    endpoints.push_back(std::make_unique<CommitEndpoint>(
        network, 100 + e, addrs, 1, RetryPolicy{},
        sim::Rng(sim::Rng::derive_seed(seed, 100 + e))));
    endpoints.back()->set_metrics(&metrics);
  }
  auto guid = [seed](std::uint64_t i) {
    return sim::Rng::derive_seed(seed, 1'000'000 + i);
  };

  ContendedRun out;
  Digest trace_digest;
  Digest results;
  auto drain = [&] {
    for (const obs::FlightEvent& e : trace.events()) {
      trace_digest.add(e.t);
      trace_digest.add(e.node);
      trace_digest.add(e.category);
      trace_digest.add(e.detail);
    }
    trace.clear();
  };
  for (std::uint64_t i = 0; i < kGuids; ++i) {
    sched.schedule_at(i * kSpacing, [&, i] {
      for (std::size_t e = 0; e < endpoints.size(); ++e) {
        endpoints[e]->submit(
            guid(i), i * 8 + e + 1, [&results](const CommitResult& r) {
              results.add(r.committed ? 1 : 0);
              results.add(r.request_id);
              results.add(r.update_id);
              results.add(r.attempts);
              results.add(r.latency);
            });
      }
    });
  }
  for (sim::Time t = kDrainEvery; t <= kHorizon; t += kDrainEvery) {
    sched.schedule_at(t, drain);
  }
  for (sim::Time t = kCollectEvery; t <= kHorizon; t += kCollectEvery) {
    sched.schedule_at(t, [&] {
      for (std::uint64_t i = 0; i < kGuids; ++i) {
        for (const auto& p : peers) {
          out.max_resident =
              std::max(out.max_resident, p->resident_instances(guid(i)));
        }
      }
      for (const auto& p : peers) out.collected += p->collect_finished();
    });
  }
  // Mid-run membership repair: one peer merges donor histories into its
  // own, another adopts them where it has none yet.
  sched.schedule_at(150'000, [&] {
    for (std::uint64_t i = 0; i < kGuids; i += 7) {
      const std::vector<CommitPeer::CommittedEntry> donor =
          peers[0]->history(guid(i));
      out.reconciled += peers[3]->reconcile_history(guid(i), donor);
    }
    for (std::uint64_t i = 3; i < kGuids; i += 11) {
      const std::vector<CommitPeer::CommittedEntry> donor =
          peers[1]->history(guid(i));
      if (!donor.empty() && peers[2]->history(guid(i)).empty() &&
          peers[2]->import_history(guid(i), donor)) {
        ++out.imported;
      }
    }
  });
  sched.run();
  drain();
  out.trace = trace_digest.value();
  out.metrics = [&] {
    Digest d;
    d.add(obs::write_metrics_json(metrics, {}));
    return d.value();
  }();

  Digest state;
  for (const auto& p : peers) {
    const PeerStats& s = p->stats();
    for (const std::uint64_t v :
         {s.updates_received, s.votes_received, s.commits_received,
          s.duplicates_dropped, s.votes_sent, s.commits_sent, s.committed,
          s.aborted}) {
      state.add(v);
    }
    out.aborts += s.aborted;
    for (std::uint64_t i = 0; i < kGuids; ++i) {
      state.add(p->resident_instances(guid(i)));
      state.add(p->live_instances(guid(i)));
      for (const CommitPeer::CommittedEntry& e : p->history(guid(i))) {
        state.add(e.update_id);
        state.add(e.request_id);
        state.add(e.payload);
      }
    }
  }
  for (const auto& e : endpoints) {
    out.commits += e->stats().committed;
    state.add(e->stats().committed);
    state.add(e->stats().retries);
    state.add(e->stats().failures);
  }
  const sim::SchedulerStats& ss = sched.stats();
  for (const std::uint64_t v : {ss.scheduled, ss.executed, ss.cancelled,
                                ss.discarded,
                                std::uint64_t{ss.max_queue_depth}}) {
    state.add(v);
  }
  const sim::NetworkStats& ns = network.stats();
  for (const std::uint64_t v : {ns.sent, ns.delivered, ns.dropped}) {
    state.add(v);
  }
  state.add(results.value());
  out.state = state.value();
  return out;
}

TEST(PeerTable, ContendedRunMatchesPinnedDigest) {
  const ContendedRun run = run_contended(7);
  // The scenario exercises what it claims to.
  EXPECT_EQ(run.commits, 30'000u);
  EXPECT_GT(run.aborts, 0u);
  EXPECT_GT(run.collected, 0u);
  EXPECT_GT(run.reconciled, 0u);
  EXPECT_GT(run.imported, 0u);
  EXPECT_GE(run.max_resident, 3u);
  // Pinned to the run of the std::map-per-GUID peer this table replaced:
  // sibling fan-out order, abort scan order and collection order are all
  // observable, so any reordering changes these. The trace digest reads
  // the recorder's vocabulary (net.* with ids and routes, commit.instance/
  // record/abort/veto); the others are unchanged since that run.
  EXPECT_EQ(run.trace, 0x5e8973051e33c953ull);
  EXPECT_EQ(run.metrics, 0x9c6ab8fe088a626bull);
  EXPECT_EQ(run.state, 0x9168bac3eeb05f74ull);
}

}  // namespace
}  // namespace asa_repro::commit
