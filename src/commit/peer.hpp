// A peer-set member executing the commit protocol (paper section 2.2).
//
// Each member hosts one machine instance per ongoing update per GUID: a
// compiled state over the generated machine's shared compiled table
// (commit/commit_table.hpp), kept with its distinct-sender vote and commit
// bitsets in a compact record inline in the GUID's entry of one
// open-addressed table, so a vote or commit delivered to an existing
// instance allocates nothing. The free/not_free messages of the abstract
// model are node-internal: when one instance chooses its update it locks
// the node (not_free delivered to its siblings); when the chosen update
// finishes it frees the node again.
//
// Byzantine behaviours (crash, equivocation, selective withholding) are
// injected here so that the protocol's claimed tolerance of f = (r-1)/3
// faulty members can actually be exercised — something the paper asserts
// but does not test.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string_view>
#include <tuple>
#include <vector>

#include "commit/commit_table.hpp"
#include "commit/messages.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/flat_map.hpp"
#include "sim/network.hpp"

namespace asa_repro::commit {

/// Fault behaviour of a peer-set member.
enum class Behaviour {
  kHonest,       // Follows the generated FSM.
  kCrash,        // Fail-stop: ignores every message, sends nothing.
  kEquivocator,  // Votes and commits for every update it hears about,
                 // immediately and repeatedly (protocol-free).
  kWithholder,   // Follows the FSM but sends votes/commits only to peers in
                 // the lower half of the address order (splits the view).
};

/// Defensive input filtering an honest peer applies to protocol traffic.
/// Both guards are on in deployment; the composition mutation self-test
/// switches them off (`comp.dup_vote`) to prove the composed checker —
/// and only the composed checker — notices a peer that counts the same
/// member's vote or commit twice.
struct PeerHardening {
  bool dedup_protocol = true;  // One vote/commit per member per update.
  bool drop_self = true;       // Ignore our own broadcast echoes.
};

/// Per-peer statistics, for benches and assertions.
struct PeerStats {
  std::uint64_t updates_received = 0;
  std::uint64_t votes_received = 0;
  std::uint64_t commits_received = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t votes_sent = 0;
  std::uint64_t commits_sent = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
};

class CommitPeer {
 public:
  /// Maps a GUID to its peer set (paper: peer sets are located per GUID via
  /// the P2P layer, so they differ between GUIDs) by filling `out`, which
  /// the peer clears first and reuses across broadcasts. When unset, the
  /// fixed `peers` list from the constructor serves every GUID.
  using PeerResolver = std::function<void(std::uint64_t guid,
                                          std::vector<sim::NodeAddr>& out)>;

  /// `machine` must be the merged commit FSM for the peer set's replication
  /// factor; the peer runs it through the table commit::MachineCache
  /// published for it (or compiles its own for a machine from elsewhere)
  /// and keeps no reference to it. `peers` lists every member of the
  /// peer set including this one. With a recorder (`flight`), instance
  /// lifecycle events (commit.instance, commit.record, commit.abort,
  /// commit.veto) with their guid/update/request causal ids land in this
  /// node's lane. With `attach_to_network` false the peer does not claim
  /// the network address; a host must feed it frames through
  /// handle_frame() (used when commit and storage traffic share one node).
  CommitPeer(sim::Network& network, sim::NodeAddr self,
             std::vector<sim::NodeAddr> peers,
             const fsm::StateMachine& machine,
             Behaviour behaviour = Behaviour::kHonest,
             obs::FlightRecorder* flight = nullptr,
             bool attach_to_network = true);

  /// Process one raw network frame (for hosts that multiplex the address).
  void handle_frame(sim::NodeAddr from, const std::string& data) {
    handle(from, data);
  }

  void set_peer_resolver(PeerResolver resolver) {
    resolver_ = std::move(resolver);
  }

  /// Attach a metrics registry: instance lifecycle counters, commit-latency
  /// histograms and per-GUID abort counters. nullptr (default) disables.
  /// The per-node series are resolved on first use and kept.
  void set_metrics(obs::MetricsRegistry* metrics) {
    metrics_ = metrics;
    instances_opened_ = nullptr;
    instance_latency_ = nullptr;
  }

  /// Attach a span recorder: each machine instance opens a "vote-collect"
  /// span on creation and a "quorum" span once it broadcasts its commit,
  /// with journal-append/ack-sent point children — the peer half of the
  /// commit critical path. nullptr (default) disables.
  void set_spans(obs::SpanRecorder* spans) { spans_ = spans; }

  /// Weaken or restore the honest peer's input filtering (default: fully
  /// hardened). Only the composition replay harness uses non-default
  /// values, to mirror mutations the model checker injects.
  void set_hardening(PeerHardening hardening) { hardening_ = hardening; }

  CommitPeer(const CommitPeer&) = delete;
  CommitPeer& operator=(const CommitPeer&) = delete;

  /// A pending abort-scan event captures `this`; hosts rebuild peers mid-run
  /// (crash, restart, byzantine flips), so the event must not outlive us.
  ~CommitPeer() { cancel_abort_scan(); }

  [[nodiscard]] sim::NodeAddr address() const { return self_; }
  [[nodiscard]] Behaviour behaviour() const { return behaviour_; }
  [[nodiscard]] const PeerStats& stats() const { return stats_; }

  /// Committed update order for a GUID, in local commit order. Entries are
  /// (update_id, request_id, payload).
  struct CommittedEntry {
    std::uint64_t update_id;
    std::uint64_t request_id;
    std::uint64_t payload;
    friend bool operator==(const CommittedEntry&,
                           const CommittedEntry&) = default;
  };

  /// Write-ahead sink, consulted BEFORE a finished commit is appended to
  /// the local history. A false return vetoes the commit: nothing is
  /// recorded and no kCommitted acknowledgement is sent — the client's
  /// retry of the same request drives a fresh attempt. This is the hook
  /// the durability subsystem uses to journal every commit before any
  /// client can observe it.
  using CommitSink =
      std::function<bool(std::uint64_t guid, const CommittedEntry& entry)>;
  void set_commit_sink(CommitSink sink) { commit_sink_ = std::move(sink); }

  /// Called immediately before each kCommitted acknowledgement leaves for
  /// a client (the durable-ack ledger hook). Only ever fires for commits
  /// the commit sink accepted.
  using AckSink =
      std::function<void(std::uint64_t guid, const CommittedEntry& entry)>;
  void set_ack_sink(AckSink sink) { ack_sink_ = std::move(sink); }

  /// Called after a wholesale history adoption (import_history or
  /// reconcile_history) with the node's complete new history for the GUID.
  using ImportSink = std::function<void(
      std::uint64_t guid, const std::vector<CommittedEntry>& entries)>;
  void set_import_sink(ImportSink sink) { import_sink_ = std::move(sink); }
  [[nodiscard]] const std::vector<CommittedEntry>& history(
      std::uint64_t guid) const;

  /// Adopt a committed history for `guid` (peer-set membership change:
  /// a replacement member bootstraps from its peers, paper section 2.2's
  /// "background processes ... replace faulty nodes"). Only an empty local
  /// history is replaced; returns false otherwise.
  bool import_history(std::uint64_t guid,
                      std::vector<CommittedEntry> entries);

  /// Merge a donor (agreed) history into a possibly NON-empty local one —
  /// the recovery reconciliation step: a journal-replayed node only needs
  /// the delta it missed while down. The merged history is the donor's
  /// entries in donor order followed by local-only entries (so a replay
  /// that skipped or disordered records converges back to the agreed
  /// order). Returns the number of donor entries newly adopted; 0 when
  /// the local history already matches the merge (nothing to do).
  std::size_t reconcile_history(std::uint64_t guid,
                                const std::vector<CommittedEntry>& donor);

  /// Live (started, unfinished) update attempts for a GUID.
  [[nodiscard]] std::size_t live_instances(std::uint64_t guid) const;

  /// Machine instances currently held in memory for a GUID (live and
  /// finished-but-not-yet-collected).
  [[nodiscard]] std::size_t resident_instances(std::uint64_t guid) const;

  /// Release finished machine instances for every GUID, keeping only the
  /// committed history and a settled-id set that absorbs late protocol
  /// traffic. Long-lived peers call this periodically (memory stays
  /// bounded by the live instance count). Returns instances released.
  std::size_t collect_finished();

  /// Enable periodic abort of stalled instances (liveness extension; see
  /// DESIGN.md): every `scan_interval`, erase unfinished instances older
  /// than `max_age`, freeing the node lock if the aborted update held it.
  /// The paper requires "a timeout/retry scheme" (section 2.2) but leaves
  /// the peer side unspecified; without local aborts a vote-split deadlock
  /// is permanent because voters stay locked on their chosen update.
  void enable_abort(sim::Time scan_interval, sim::Time max_age);

 private:
  /// One machine instance: its compiled state and everything the peer
  /// tracks for the update, in one trivially copyable record. Vote and
  /// commit senders are bits per address below 64 — every peer-set member
  /// in the simulated deployments; other senders go to high_senders_.
  struct Instance {
    std::uint64_t update_id = 0;
    std::uint64_t request_id = 0;
    std::uint64_t payload = 0;
    std::uint64_t voters = 0;      // Distinct vote senders.
    std::uint64_t committers = 0;  // Distinct commit senders.
    sim::Time created = 0;
    std::uint64_t vote_span = 0;    // "vote-collect" span id (0 = none).
    std::uint64_t quorum_span = 0;  // "quorum" span id (0 = none).
    fsm::StateId state = 0;
    sim::NodeAddr client = 0;  // Who to notify on completion...
    bool has_client = false;   // ...when set.
    bool recorded = false;     // Appended to committed history.
    bool high_senders = false;  // Has entries in high_senders_.
  };

  /// A GUID's instances in ascending update_id order (the sibling
  /// free/not_free fan-out, the abort scan and collection walk them in that
  /// order). The first lives inline in the GUID's entry; more spill to one
  /// heap array holding them all.
  class InstanceList {
   public:
    InstanceList() = default;
    // A moved-from list is left empty and inline.
    InstanceList(InstanceList&& other) noexcept { *this = std::move(other); }
    InstanceList& operator=(InstanceList&& other) noexcept;

    [[nodiscard]] std::size_t size() const { return size_; }
    Instance& operator[](std::size_t i) { return data()[i]; }
    [[nodiscard]] const Instance& operator[](std::size_t i) const {
      return data()[i];
    }
    [[nodiscard]] Instance* find(std::uint64_t update_id);
    /// Insert in update_id order (the id must be absent).
    Instance& insert(const Instance& inst);
    void erase_at(std::size_t i);

   private:
    [[nodiscard]] Instance* data() { return heap_ ? heap_.get() : &inline_; }
    [[nodiscard]] const Instance* data() const {
      return heap_ ? heap_.get() : &inline_;
    }

    std::unique_ptr<Instance[]> heap_;
    std::uint32_t size_ = 0;
    std::uint32_t capacity_ = 1;
    Instance inline_;
  };

  struct GuidContext {
    InstanceList instances;
    std::optional<std::uint64_t> chosen_update;  // Node lock holder.
    std::vector<CommittedEntry> committed;       // Local commit order.
    std::vector<std::uint64_t> settled;  // Sorted. Finished and collected
                                         // ids: late traffic is absorbed,
                                         // never re-instantiated.
  };

  void handle(sim::NodeAddr from, std::string_view payload);
  void handle_honest(sim::NodeAddr from, const WireMessage& msg);
  void handle_equivocator(const WireMessage& msg);

  /// Deliver one abstract-model message to an instance and execute the
  /// resulting actions; internal free/not_free deliveries are queued and
  /// drained iteratively to avoid unbounded recursion.
  void deliver(GuidContext& ctx, std::uint64_t guid, std::uint64_t update_id,
               fsm::MessageId message);
  void run_queue(GuidContext& ctx, std::uint64_t guid);
  void execute_actions(GuidContext& ctx, std::uint64_t guid,
                       std::uint64_t update_id, fsm::CompiledDelivery actions);
  /// Offer a freed node lock to pending siblings, one at a time, stopping
  /// as soon as one of them chooses (retakes the lock).
  void free_siblings(GuidContext& ctx, std::uint64_t guid,
                     std::uint64_t source);
  void send(sim::NodeAddr to, const WireMessage& msg);
  void broadcast(const WireMessage& msg);
  void check_finished(GuidContext& ctx, std::uint64_t guid,
                      std::uint64_t update_id);

  Instance& instance(GuidContext& ctx, std::uint64_t guid,
                     std::uint64_t update_id, const WireMessage& msg);
  [[nodiscard]] bool finished(const Instance& inst) const {
    return table_->machine().is_final(inst.state);
  }
  /// Record `from` as a vote (or commit) sender; false if already seen.
  bool note_sender(std::uint64_t guid, Instance& inst, bool commit,
                   sim::NodeAddr from);
  /// Drop an instance that leaves memory (collected, aborted, imported).
  void release(std::uint64_t guid, GuidContext& ctx, std::size_t index);
  /// Settle every id of the context's history: release its instances and
  /// merge the ids into the sorted settled list.
  void settle_history(std::uint64_t guid, GuidContext& ctx);
  static void merge_settled(GuidContext& ctx,
                            const std::vector<std::uint64_t>& sorted_ids);

  /// Known GUIDs in ascending order, for scans whose effects are ordered.
  [[nodiscard]] std::vector<std::uint64_t> sorted_guids() const;

  void abort_scan(sim::Time max_age);
  void arm_abort_scan();
  void cancel_abort_scan();

  sim::Network& network_;
  sim::NodeAddr self_;
  std::vector<sim::NodeAddr> peers_;  // Including self_.
  PeerResolver resolver_;
  std::vector<sim::NodeAddr> resolved_;  // resolver_'s reused output.
  std::shared_ptr<const CommitTable> table_;
  Behaviour behaviour_;
  PeerHardening hardening_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* instances_opened_ = nullptr;    // commit.instances_opened
  obs::Histogram* instance_latency_ = nullptr;  // commit.instance_latency_us
  obs::SpanRecorder* spans_ = nullptr;
  obs::FlightRecorder* flight_;
  CommitSink commit_sink_;
  AckSink ack_sink_;
  ImportSink import_sink_;
  PeerStats stats_;
  // Every GUID this peer has seen. The sinks run while a context is in
  // use, so they must not add GUIDs (import or reconcile) on this peer.
  sim::FlatMap<GuidContext> guids_;
  // Vote/commit senders with addresses of 64 and above, by (guid,
  // update_id, is-commit, sender).
  std::set<std::tuple<std::uint64_t, std::uint64_t, bool, sim::NodeAddr>>
      high_senders_;
  // Internal free/not_free deliveries awaiting run_queue, consumed from
  // local_head_; storage is reused once drained.
  std::vector<std::pair<std::uint64_t, fsm::MessageId>> local_queue_;
  std::size_t local_head_ = 0;
  bool draining_ = false;
  std::set<UpdateKey> equivocated_;  // Equivocator: one blast per update.
  sim::Time abort_interval_ = 0;
  sim::Time abort_max_age_ = 0;
  bool abort_armed_ = false;
  std::uint64_t abort_event_ = 0;  // Pending scan id, for destructor cancel.
};

}  // namespace asa_repro::commit
