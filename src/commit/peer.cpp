#include "commit/peer.hpp"

#include <algorithm>
#include <iterator>
#include <limits>

#include "commit/commit_model.hpp"

namespace asa_repro::commit {

namespace {

const std::vector<CommitPeer::CommittedEntry> kEmptyHistory;

}  // namespace

CommitPeer::CommitPeer(sim::Network& network, sim::NodeAddr self,
                       std::vector<sim::NodeAddr> peers,
                       const fsm::StateMachine& machine, Behaviour behaviour,
                       obs::FlightRecorder* flight, bool attach_to_network)
    : network_(network),
      self_(self),
      peers_(std::move(peers)),
      table_(CommitTable::for_machine(machine)),
      behaviour_(behaviour),
      flight_(flight) {
  if (attach_to_network) {
    network_.attach(self_,
                    [this](sim::NodeAddr from, const std::string& data) {
                      handle(from, data);
                    });
  }
}

CommitPeer::InstanceList& CommitPeer::InstanceList::operator=(
    InstanceList&& other) noexcept {
  heap_ = std::move(other.heap_);
  size_ = other.size_;
  capacity_ = other.capacity_;
  inline_ = other.inline_;
  other.size_ = 0;
  other.capacity_ = 1;
  return *this;
}

CommitPeer::Instance* CommitPeer::InstanceList::find(
    std::uint64_t update_id) {
  Instance* first = data();
  Instance* last = first + size_;
  Instance* it = std::lower_bound(
      first, last, update_id,
      [](const Instance& inst, std::uint64_t id) { return inst.update_id < id; });
  return it != last && it->update_id == update_id ? it : nullptr;
}

CommitPeer::Instance& CommitPeer::InstanceList::insert(const Instance& inst) {
  if (size_ == capacity_) {
    const std::uint32_t capacity = capacity_ < 4 ? 4 : 2 * capacity_;
    auto grown = std::make_unique<Instance[]>(capacity);
    std::copy(data(), data() + size_, grown.get());
    heap_ = std::move(grown);
    capacity_ = capacity;
  }
  Instance* first = data();
  Instance* pos = std::lower_bound(
      first, first + size_, inst.update_id,
      [](const Instance& i, std::uint64_t id) { return i.update_id < id; });
  std::copy_backward(pos, first + size_, first + size_ + 1);
  *pos = inst;
  ++size_;
  return *pos;
}

void CommitPeer::InstanceList::erase_at(std::size_t i) {
  Instance* first = data();
  std::copy(first + i + 1, first + size_, first + i);
  --size_;
}

bool CommitPeer::note_sender(std::uint64_t guid, Instance& inst, bool commit,
                             sim::NodeAddr from) {
  if (from < 64) {
    std::uint64_t& bits = commit ? inst.committers : inst.voters;
    const std::uint64_t bit = std::uint64_t{1} << from;
    const bool fresh = (bits & bit) == 0;
    bits |= bit;
    return fresh;
  }
  inst.high_senders = true;
  return high_senders_.emplace(guid, inst.update_id, commit, from).second;
}

void CommitPeer::release(std::uint64_t guid, GuidContext& ctx,
                         std::size_t index) {
  const Instance& inst = ctx.instances[index];
  if (inst.high_senders) {
    high_senders_.erase(
        high_senders_.lower_bound({guid, inst.update_id, false, 0}),
        high_senders_.upper_bound(
            {guid, inst.update_id, true,
             std::numeric_limits<sim::NodeAddr>::max()}));
  }
  ctx.instances.erase_at(index);
}

std::vector<std::uint64_t> CommitPeer::sorted_guids() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(guids_.size());
  for (const auto& entry : guids_) keys.push_back(entry.key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

const std::vector<CommitPeer::CommittedEntry>& CommitPeer::history(
    std::uint64_t guid) const {
  const GuidContext* ctx = guids_.find(guid);
  return ctx == nullptr ? kEmptyHistory : ctx->committed;
}

bool CommitPeer::import_history(std::uint64_t guid,
                                std::vector<CommittedEntry> entries) {
  GuidContext& ctx = guids_.try_emplace(guid).first;
  if (!ctx.committed.empty()) return false;
  ctx.committed = std::move(entries);
  // The imported updates are settled; make sure late protocol traffic for
  // them is absorbed rather than re-run (and recorded a second time).
  settle_history(guid, ctx);
  if (import_sink_) import_sink_(guid, ctx.committed);
  return true;
}

void CommitPeer::settle_history(std::uint64_t guid, GuidContext& ctx) {
  std::vector<std::uint64_t> ids;
  ids.reserve(ctx.committed.size());
  for (const CommittedEntry& e : ctx.committed) ids.push_back(e.update_id);
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = ctx.instances.size(); i-- > 0;) {
    if (std::binary_search(ids.begin(), ids.end(),
                           ctx.instances[i].update_id)) {
      release(guid, ctx, i);
    }
  }
  merge_settled(ctx, ids);
}

void CommitPeer::merge_settled(GuidContext& ctx,
                               const std::vector<std::uint64_t>& sorted_ids) {
  std::vector<std::uint64_t> merged;
  merged.reserve(ctx.settled.size() + sorted_ids.size());
  std::set_union(ctx.settled.begin(), ctx.settled.end(), sorted_ids.begin(),
                 sorted_ids.end(), std::back_inserter(merged));
  ctx.settled = std::move(merged);
}

std::size_t CommitPeer::reconcile_history(
    std::uint64_t guid, const std::vector<CommittedEntry>& donor) {
  GuidContext& ctx = guids_.try_emplace(guid).first;
  std::set<std::uint64_t> donor_ids;
  for (const CommittedEntry& e : donor) donor_ids.insert(e.update_id);
  std::set<std::uint64_t> local_ids;
  for (const CommittedEntry& e : ctx.committed) {
    local_ids.insert(e.update_id);
  }
  // Donor order is authoritative (it is the f+1-agreed order); entries
  // only this node has — e.g. commits beyond the agreed prefix that
  // survived in its journal — keep their local order at the tail.
  std::vector<CommittedEntry> merged = donor;
  for (const CommittedEntry& e : ctx.committed) {
    if (!donor_ids.contains(e.update_id)) merged.push_back(e);
  }
  if (merged == ctx.committed) return 0;  // Already converged.
  std::size_t adopted = 0;
  for (const CommittedEntry& e : donor) {
    if (!local_ids.contains(e.update_id)) ++adopted;
  }
  ctx.committed = std::move(merged);
  settle_history(guid, ctx);
  if (import_sink_) import_sink_(guid, ctx.committed);
  // A pure reorder adopts no new entries but still rewrote the history.
  return adopted > 0 ? adopted : 1;
}

std::size_t CommitPeer::live_instances(std::uint64_t guid) const {
  const GuidContext* ctx = guids_.find(guid);
  if (ctx == nullptr) return 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < ctx->instances.size(); ++i) {
    if (!finished(ctx->instances[i])) ++n;
  }
  return n;
}

std::size_t CommitPeer::resident_instances(std::uint64_t guid) const {
  const GuidContext* ctx = guids_.find(guid);
  return ctx == nullptr ? 0 : ctx->instances.size();
}

std::size_t CommitPeer::collect_finished() {
  std::size_t released = 0;
  std::vector<std::uint64_t> ids;
  for (const std::uint64_t guid : sorted_guids()) {
    GuidContext& ctx = *guids_.find(guid);
    ids.clear();
    for (std::size_t i = 0; i < ctx.instances.size();) {
      const Instance& inst = ctx.instances[i];
      // Only fully processed instances are collectable: finished, recorded,
      // and with no completion notification still owed to a client.
      if (finished(inst) && inst.recorded && !inst.has_client) {
        ids.push_back(inst.update_id);
        release(guid, ctx, i);
        ++released;
      } else {
        ++i;
      }
    }
    if (!ids.empty()) merge_settled(ctx, ids);  // Collected ids ascend.
  }
  return released;
}

void CommitPeer::handle(sim::NodeAddr from, std::string_view data) {
  const std::optional<WireMessage> msg = WireMessage::parse(data);
  if (!msg.has_value()) return;  // Garbage frame: drop.

  switch (behaviour_) {
    case Behaviour::kCrash:
      return;  // Fail-stop: no reaction at all.
    case Behaviour::kEquivocator:
      handle_equivocator(*msg);
      return;
    case Behaviour::kHonest:
    case Behaviour::kWithholder:
      handle_honest(from, *msg);
      return;
  }
}

void CommitPeer::handle_equivocator(const WireMessage& msg) {
  // A Byzantine member that votes and commits for everything it hears
  // about, regardless of protocol state. This maximises the misleading
  // messages honest members can receive from one faulty node.
  if (msg.kind == WireMessage::Kind::kCommitted) return;
  if (!equivocated_.insert(msg.key()).second) return;
  WireMessage out = msg;
  out.kind = WireMessage::Kind::kVote;
  broadcast(out);
  out.kind = WireMessage::Kind::kCommit;
  broadcast(out);
}

CommitPeer::Instance& CommitPeer::instance(GuidContext& ctx,
                                           std::uint64_t guid,
                                           std::uint64_t update_id,
                                           const WireMessage& msg) {
  if (Instance* found = ctx.instances.find(update_id)) {
    if (found->request_id == 0) found->request_id = msg.request_id;
    if (found->payload == 0) found->payload = msg.payload;
    return *found;
  }
  Instance& inst =
      ctx.instances.insert({.update_id = update_id,
                            .request_id = msg.request_id,
                            .payload = msg.payload,
                            .created = network_.scheduler().now(),
                            .state = table_->machine().start()});
  // The abstract model's start state assumes the node is free; if another
  // update already holds the node lock for this GUID, lock the new machine
  // immediately (this is how could_choose is initialised in deployment).
  if (ctx.chosen_update.has_value() && *ctx.chosen_update != update_id) {
    (void)table_->machine().step(inst.state, kNotFree);
  }
  if (metrics_ != nullptr) {
    if (instances_opened_ == nullptr) {
      instances_opened_ = &metrics_->counter(
          "commit.instances_opened", {{"node", std::to_string(self_)}});
    }
    instances_opened_->inc();
  }
  if (spans_ != nullptr) {
    inst.vote_span =
        spans_->open("vote-collect", 0, self_, std::to_string(guid),
                     inst.request_id, update_id, inst.created);
  }
  if (flight_ != nullptr) {
    flight_->record(network_.scheduler().now(), self_, "commit.instance",
                    {{"guid", guid},
                     {"update", update_id},
                     {"request", inst.request_id}});
  }
  arm_abort_scan();  // Watch the new instance for stalls, if enabled.
  return inst;
}

void CommitPeer::handle_honest(sim::NodeAddr from, const WireMessage& msg) {
  GuidContext& ctx = guids_.try_emplace(msg.guid).first;
  if (std::binary_search(ctx.settled.begin(), ctx.settled.end(),
                         msg.update_id)) {
    // Late traffic for a garbage-collected update: absorb it; re-confirm a
    // resent update request (the original notification may have been lost).
    if (msg.kind == WireMessage::Kind::kUpdate) {
      send(from, {WireMessage::Kind::kCommitted, msg.guid, msg.update_id,
                  msg.request_id, msg.payload});
    }
    return;
  }
  switch (msg.kind) {
    case WireMessage::Kind::kUpdate: {
      ++stats_.updates_received;
      Instance& inst = instance(ctx, msg.guid, msg.update_id, msg);
      inst.client = from;
      inst.has_client = true;
      deliver(ctx, msg.guid, msg.update_id, kUpdate);
      // A resent update for an already-finished attempt still deserves a
      // completion notification (the original may have been lost).
      check_finished(ctx, msg.guid, msg.update_id);
      break;
    }
    case WireMessage::Kind::kVote: {
      ++stats_.votes_received;
      Instance& inst = instance(ctx, msg.guid, msg.update_id, msg);
      if ((hardening_.drop_self && from == self_) ||
          (!note_sender(msg.guid, inst, false, from) &&
           hardening_.dedup_protocol)) {
        ++stats_.duplicates_dropped;  // One vote per member per update.
        break;
      }
      deliver(ctx, msg.guid, msg.update_id, kVote);
      break;
    }
    case WireMessage::Kind::kCommit: {
      ++stats_.commits_received;
      Instance& inst = instance(ctx, msg.guid, msg.update_id, msg);
      if ((hardening_.drop_self && from == self_) ||
          (!note_sender(msg.guid, inst, true, from) &&
           hardening_.dedup_protocol)) {
        ++stats_.duplicates_dropped;
        break;
      }
      deliver(ctx, msg.guid, msg.update_id, kCommit);
      break;
    }
    case WireMessage::Kind::kCommitted:
      break;  // Peers ignore client notifications.
  }
}

void CommitPeer::deliver(GuidContext& ctx, std::uint64_t guid,
                         std::uint64_t update_id, fsm::MessageId message) {
  local_queue_.emplace_back(update_id, message);
  if (!draining_) run_queue(ctx, guid);
}

void CommitPeer::run_queue(GuidContext& ctx, std::uint64_t guid) {
  // All entries queued while draining refer to sibling instances of the
  // same GUID: internal free/not_free fan-out never crosses GUIDs.
  draining_ = true;
  while (local_head_ < local_queue_.size()) {
    const auto [update_id, message] = local_queue_[local_head_++];
    Instance* inst = ctx.instances.find(update_id);
    if (inst == nullptr) continue;
    execute_actions(ctx, guid, update_id,
                    table_->machine().step(inst->state, message));
    check_finished(ctx, guid, update_id);
  }
  local_queue_.clear();
  local_head_ = 0;
  draining_ = false;
}

void CommitPeer::send(sim::NodeAddr to, const WireMessage& msg) {
  const WireMessage::Frame frame = msg.frame();
  network_.send(self_, to, {frame.data(), frame.size()});
}

void CommitPeer::broadcast(const WireMessage& msg) {
  const WireMessage::Frame frame = msg.frame();
  if (resolver_) {
    resolved_.clear();
    resolver_(msg.guid, resolved_);
  }
  const std::vector<sim::NodeAddr>& resolved = resolver_ ? resolved_ : peers_;
  for (sim::NodeAddr peer : resolved) {
    if (peer == self_) continue;
    if (behaviour_ == Behaviour::kWithholder &&
        (msg.kind == WireMessage::Kind::kVote ||
         msg.kind == WireMessage::Kind::kCommit)) {
      // Send protocol messages only to the lower half of the peer set,
      // giving different members inconsistent views.
      std::size_t rank = 0;
      for (std::size_t i = 0; i < resolved.size(); ++i) {
        if (resolved[i] < peer) ++rank;
      }
      if (rank >= resolved.size() / 2) continue;
    }
    network_.send(self_, peer, {frame.data(), frame.size()});
  }
}

void CommitPeer::execute_actions(GuidContext& ctx, std::uint64_t guid,
                                 std::uint64_t update_id,
                                 fsm::CompiledDelivery actions) {
  // No action inserts or erases an instance, so the reference holds.
  Instance& inst = *ctx.instances.find(update_id);
  for (std::uint32_t i = 0; i < actions.count; ++i) {
    switch (table_->action(actions.ids[i])) {
      case PeerAction::kVote:
        ++stats_.votes_sent;
        broadcast({WireMessage::Kind::kVote, guid, update_id, inst.request_id,
                   inst.payload});
        break;
      case PeerAction::kCommit:
        ++stats_.commits_sent;
        // Phase boundary: the vote collected enough siblings to choose this
        // update; everything from here to the recorded commit is the quorum
        // phase.
        if (spans_ != nullptr) {
          const sim::Time now = network_.scheduler().now();
          if (spans_->is_open(inst.vote_span)) {
            spans_->close(inst.vote_span, now, true);
          }
          if (inst.quorum_span == 0) {
            inst.quorum_span =
                spans_->open("quorum", 0, self_, std::to_string(guid),
                             inst.request_id, update_id, now);
          }
        }
        broadcast({WireMessage::Kind::kCommit, guid, update_id,
                   inst.request_id, inst.payload});
        break;
      case PeerAction::kNotFree:
        ctx.chosen_update = update_id;
        // not_free never triggers further actions, so queued delivery is safe.
        for (std::size_t i = 0; i < ctx.instances.size(); ++i) {
          const Instance& sibling = ctx.instances[i];
          if (sibling.update_id == update_id || finished(sibling)) continue;
          local_queue_.emplace_back(sibling.update_id, kNotFree);
        }
        break;
      case PeerAction::kFree:
        if (ctx.chosen_update == update_id) ctx.chosen_update.reset();
        free_siblings(ctx, guid, update_id);
        break;
      case PeerAction::kNone:
        break;
    }
  }
}

void CommitPeer::free_siblings(GuidContext& ctx, std::uint64_t guid,
                               std::uint64_t source) {
  // Offer the freed node to pending siblings one at a time: the first that
  // chooses retakes the lock (its not_free is queued for the others), and
  // the remaining siblings must NOT see a stale free — otherwise several
  // pending updates could all vote at once, breaking the one-ongoing-update
  // serialisation the free/not_free protocol exists to provide. Nothing
  // below inserts or erases an instance, and a finished sibling stays
  // finished, so walking the list live visits exactly the siblings that
  // were pending when the lock was freed.
  for (std::size_t i = 0; i < ctx.instances.size(); ++i) {
    if (ctx.chosen_update.has_value()) break;  // Lock retaken.
    Instance& sibling = ctx.instances[i];
    if (sibling.update_id == source || finished(sibling)) continue;
    const std::uint64_t uid = sibling.update_id;
    execute_actions(ctx, guid, uid,
                    table_->machine().step(sibling.state, kFree));
    check_finished(ctx, guid, uid);
  }
}

void CommitPeer::check_finished(GuidContext& ctx, std::uint64_t guid,
                                std::uint64_t update_id) {
  Instance* found = ctx.instances.find(update_id);
  if (found == nullptr || !finished(*found)) return;
  Instance& inst = *found;
  if (!inst.recorded) {
    if (commit_sink_ &&
        !commit_sink_(guid,
                      {update_id, inst.request_id, inst.payload})) {
      // Write-ahead append failed (stalled or full disk): neither record
      // nor acknowledge. The FSM's free action already ran, but release
      // the lock defensively too — a bad disk must not deadlock the GUID
      // lane. The instance stays finished-unrecorded; the client's resent
      // update retries the sink once the disk heals. The quorum span stays
      // open — the commit is not over until the retry lands.
      if (spans_ != nullptr) {
        spans_->point("journal-append", inst.quorum_span, self_,
                      std::to_string(guid), inst.request_id, update_id,
                      network_.scheduler().now(), false, "vetoed");
      }
      if (flight_ != nullptr) {
        flight_->record(network_.scheduler().now(), self_, "commit.veto",
                        {{"guid", guid},
                         {"update", update_id},
                         {"request", inst.request_id}});
      }
      if (ctx.chosen_update == update_id) {
        ctx.chosen_update.reset();
        free_siblings(ctx, guid, update_id);
      }
      return;
    }
    inst.recorded = true;
    ++stats_.committed;
    ctx.committed.push_back({update_id, inst.request_id, inst.payload});
    const sim::Time latency = network_.scheduler().now() - inst.created;
    if (metrics_ != nullptr) {
      if (instance_latency_ == nullptr) {
        instance_latency_ = &metrics_->histogram(
            "commit.instance_latency_us", {{"node", std::to_string(self_)}},
            obs::latency_buckets_us());
      }
      instance_latency_->observe(latency);
    }
    if (spans_ != nullptr) {
      const sim::Time now = network_.scheduler().now();
      // An instance can finish without ever broadcasting its own commit
      // (it adopted the siblings' quorum); close whatever is still open.
      if (spans_->is_open(inst.vote_span)) {
        spans_->close(inst.vote_span, now, true);
      }
      if (commit_sink_) {
        spans_->point("journal-append", inst.quorum_span, self_,
                      std::to_string(guid), inst.request_id, update_id,
                      now, true);
      }
      if (spans_->is_open(inst.quorum_span)) {
        spans_->close(inst.quorum_span, now, true);
      }
    }
    if (flight_ != nullptr) {
      flight_->record(network_.scheduler().now(), self_, "commit.record",
                      {{"guid", guid},
                       {"update", update_id},
                       {"request", inst.request_id},
                       {"latency", latency}});
    }
    // Defensive: a finished update must release the node lock even if the
    // free action was not part of the final transition (it is whenever the
    // update was locally chosen).
    if (ctx.chosen_update == update_id) ctx.chosen_update.reset();
  }
  if (inst.recorded && inst.has_client) {
    if (ack_sink_) {
      ack_sink_(guid, {update_id, inst.request_id, inst.payload});
    }
    if (spans_ != nullptr) {
      spans_->point("ack-sent", inst.quorum_span, self_,
                    std::to_string(guid), inst.request_id, update_id,
                    network_.scheduler().now(), true);
    }
    send(inst.client, {WireMessage::Kind::kCommitted, guid, update_id,
                       inst.request_id, inst.payload});
    inst.has_client = false;  // Notify once per received update request.
  }
}

void CommitPeer::enable_abort(sim::Time scan_interval, sim::Time max_age) {
  abort_interval_ = scan_interval;
  abort_max_age_ = max_age;
  arm_abort_scan();
}

void CommitPeer::arm_abort_scan() {
  if (abort_armed_ || abort_interval_ == 0) return;
  abort_armed_ = true;
  abort_event_ = network_.scheduler().schedule_after(abort_interval_, [this] {
    abort_armed_ = false;
    abort_scan(abort_max_age_);
  });
}

void CommitPeer::cancel_abort_scan() {
  if (!abort_armed_) return;
  network_.scheduler().cancel(abort_event_);
  abort_armed_ = false;
}

void CommitPeer::abort_scan(sim::Time max_age) {
  const sim::Time now = network_.scheduler().now();
  for (const std::uint64_t guid : sorted_guids()) {
    GuidContext& ctx = *guids_.find(guid);
    for (std::size_t i = 0; i < ctx.instances.size();) {
      const Instance& inst = ctx.instances[i];
      const bool stalled = !finished(inst) && now - inst.created > max_age;
      if (!stalled) {
        ++i;
        continue;
      }
      const std::uint64_t uid = inst.update_id;
      ++stats_.aborted;
      if (metrics_ != nullptr) {
        metrics_
            ->counter("commit.aborts", {{"guid", std::to_string(guid)}})
            .inc();
      }
      if (spans_ != nullptr) {
        spans_->close(inst.vote_span, now, false, "abort");
        spans_->close(inst.quorum_span, now, false, "abort");
      }
      if (flight_ != nullptr) {
        flight_->record(now, self_, "commit.abort",
                        {{"guid", guid},
                         {"update", uid},
                         {"request", inst.request_id}});
      }
      const bool held_lock = ctx.chosen_update == uid;
      release(guid, ctx, i);  // The next instance moves to index i.
      if (held_lock) {
        ctx.chosen_update.reset();
        free_siblings(ctx, guid, uid);
        if (!draining_) run_queue(ctx, guid);
      }
    }
  }
  // Keep scanning only while something is live; instance creation re-arms
  // the scan, so an idle peer leaves the scheduler quiescent.
  bool any_live = false;
  for (const auto& entry : guids_) {
    const InstanceList& instances = entry.value.instances;
    for (std::size_t i = 0; i < instances.size() && !any_live; ++i) {
      any_live = !finished(instances[i]);
    }
    if (any_live) break;
  }
  if (any_live) arm_abort_scan();
}

}  // namespace asa_repro::commit
