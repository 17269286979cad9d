#include "sim/network.hpp"

#include <cstring>

namespace asa_repro::sim {

namespace {

/// A message fate in the recorder: its id and route.
void record_route(obs::FlightRecorder& flight, Time now, NodeAddr lane,
                  const char* category, std::uint64_t id, NodeAddr from,
                  NodeAddr to) {
  flight.record(now, lane, category, {{"id", id}, {"from", from}, {"to", to}});
}

/// The link map's key for the directed pair from->to. NodeAddr is 32-bit,
/// so the packing is collision-free and direction-sensitive.
std::uint64_t link_key(NodeAddr from, NodeAddr to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

bool valid_probability(double p) { return p >= 0.0 && p <= 1.0; }

const std::string kDefaultClass = "default";

}  // namespace

void validate(const LatencyModel& model) {
  if (model.min_latency > model.max_latency) {
    throw std::invalid_argument(
        "LatencyModel: min_latency " + std::to_string(model.min_latency) +
        " > max_latency " + std::to_string(model.max_latency));
  }
}

std::optional<LinkProfile> link_profile(const std::string& name) {
  if (name == "default") return LinkProfile{};
  if (name == "lan") {
    return LinkProfile{.name = "lan",
                       .latency = {50, 500},
                       .jitter = 100,
                       .loss_good = 0.0,
                       .loss_bad = 0.0,
                       .p_good_to_bad = 0.0,
                       .p_bad_to_good = 1.0};
  }
  if (name == "wan") {
    return LinkProfile{.name = "wan",
                       .latency = {20'000, 60'000},
                       .jitter = 5'000,
                       .loss_good = 0.001,
                       .loss_bad = 0.2,
                       .p_good_to_bad = 0.01,
                       .p_bad_to_good = 0.25};
  }
  if (name == "sat") {
    return LinkProfile{.name = "sat",
                       .latency = {240'000, 280'000},
                       .jitter = 15'000,
                       .loss_good = 0.002,
                       .loss_bad = 0.35,
                       .p_good_to_bad = 0.005,
                       .p_bad_to_good = 0.1};
  }
  return std::nullopt;
}

Network::Network(Scheduler& sched, Rng rng, LatencyModel latency)
    : sched_(sched), link_seed_base_(rng()), latency_(latency) {
  validate(latency_);
}

Network::LinkState& Network::link(NodeAddr from, NodeAddr to) {
  const std::uint64_t key = link_key(from, to);
  const auto it = links_.find(key);
  if (it != links_.end()) return it->second;
  // The link's stream is keyed by the same packed pair.
  LinkState state;
  state.rng = Rng::substream(link_seed_base_, key);
  return links_.emplace(key, std::move(state)).first->second;
}

void Network::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  for (auto& [key, state] : links_) {
    state.link_latency = nullptr;
    state.class_latency = nullptr;
  }
}

void Network::set_link_profile(NodeAddr from, NodeAddr to,
                               LinkProfile profile) {
  validate(profile.latency);
  if (!valid_probability(profile.loss_good) ||
      !valid_probability(profile.loss_bad) ||
      !valid_probability(profile.p_good_to_bad) ||
      !valid_probability(profile.p_bad_to_good)) {
    throw std::invalid_argument("LinkProfile: probability outside [0,1]");
  }
  LinkState& state = link(from, to);
  state.profile = std::move(profile);
  state.bad = false;
  state.class_latency = nullptr;
}

void Network::clear_link_profile(NodeAddr from, NodeAddr to) {
  const auto it = links_.find(link_key(from, to));
  if (it == links_.end()) return;
  it->second.profile.reset();
  it->second.bad = false;
  it->second.class_latency = nullptr;
}

const std::string& Network::link_class(NodeAddr from, NodeAddr to) const {
  const auto it = links_.find(link_key(from, to));
  if (it == links_.end() || !it->second.profile.has_value()) {
    return kDefaultClass;
  }
  return it->second.profile->name;
}

bool Network::link_in_bad_state(NodeAddr from, NodeAddr to) const {
  const auto it = links_.find(link_key(from, to));
  return it != links_.end() && it->second.bad;
}

void Network::deliver_copy(NodeAddr from, NodeAddr to,
                           const std::string& payload, std::uint64_t id,
                           Time sent_at) {
  const auto it = handlers_.find(to);
  if (it == handlers_.end()) {
    ++stats_.to_dead_node;
    if (flight_ != nullptr) {
      record_route(*flight_, sched_.now(), to, "net.dead", id, from, to);
    }
    return;
  }
  ++stats_.delivered;
  const Time latency = sched_.now() - sent_at;
  if (flight_ != nullptr) {
    flight_->record(sched_.now(), to, "net.deliver",
                    {{"id", id}, {"from", from}, {"to", to},
                     {"latency", latency}});
  }
  if (metrics_ != nullptr) {
    LinkState& ls = link(from, to);
    if (ls.link_latency == nullptr) {
      ls.link_latency = &metrics_->histogram(
          "net.latency_us",
          {{"link", std::to_string(from) + "->" + std::to_string(to)}},
          obs::latency_buckets_us());
    }
    if (ls.class_latency == nullptr) {
      ls.class_latency = &metrics_->histogram(
          "net.class_latency_us",
          {{"class", ls.profile.has_value() ? ls.profile->name
                                            : kDefaultClass}},
          obs::latency_buckets_us());
    }
    ls.link_latency->observe(latency);
    ls.class_latency->observe(latency);
  }
  it->second(from, payload);
}

std::uint64_t Network::send(NodeAddr from, NodeAddr to,
                            std::string_view payload) {
  const std::uint64_t id = next_msg_id_++;
  ++stats_.sent;
  if (flight_ != nullptr) {
    record_route(*flight_, sched_.now(), from, "net.send", id, from, to);
  }
  if (partitions_.contains({from, to})) {
    ++stats_.partitioned;
    if (flight_ != nullptr) {
      record_route(*flight_, sched_.now(), from, "net.part", id, from, to);
    }
    return id;
  }
  LinkState& ls = link(from, to);
  // Gilbert–Elliott step: transition first, then lose with the (possibly
  // new) state's probability — a burst begins with the message that
  // triggered the good->bad flip.
  double loss = drop_probability_;
  bool burst = false;
  if (ls.profile.has_value()) {
    const LinkProfile& p = *ls.profile;
    if (p.p_good_to_bad > 0.0 || ls.bad) {
      ls.bad = ls.bad ? !ls.rng.chance(p.p_bad_to_good)
                      : ls.rng.chance(p.p_good_to_bad);
    }
    const double link_loss = ls.bad ? p.loss_bad : p.loss_good;
    burst = ls.bad && link_loss > 0.0;
    // Either loss source kills the message: combined probability.
    loss = loss + link_loss - loss * link_loss;
  }
  if (loss > 0.0 && ls.rng.chance(loss)) {
    ++stats_.dropped;
    if (burst) ++stats_.burst_dropped;
    if (flight_ != nullptr) {
      record_route(*flight_, sched_.now(), from, "net.drop", id, from, to);
    }
    return id;
  }
  int copies = 1;
  if (duplicate_probability_ > 0.0 && ls.rng.chance(duplicate_probability_)) {
    ++stats_.duplicated;
    copies = 2;
    if (flight_ != nullptr) {
      record_route(*flight_, sched_.now(), from, "net.dup", id, from, to);
    }
  }
  const Time sent_at = sched_.now();
  if (manual_mode_) {
    for (int copy = 0; copy < copies; ++copy) {
      pending_.push_back({from, to, std::string(payload), id, sent_at});
    }
    return id;
  }
  const LatencyModel& latency =
      ls.profile.has_value() ? ls.profile->latency : latency_;
  const Time jitter = ls.profile.has_value() ? ls.profile->jitter : 0;
  for (int copy = 0; copy < copies; ++copy) {
    Time delay =
        latency.min_latency == latency.max_latency
            ? latency.min_latency
            : latency.min_latency +
                  ls.rng.below(latency.max_latency - latency.min_latency + 1);
    if (jitter > 0) delay += ls.rng.below(jitter + 1);
    const std::uint32_t slot = park(from, to, payload, id, sent_at);
    sched_.schedule_after(delay, [this, slot] { deliver_parked(slot); });
  }
  return id;
}

std::uint32_t Network::park(NodeAddr from, NodeAddr to,
                            std::string_view payload, std::uint64_t id,
                            Time sent_at) {
  std::uint32_t slot = 0;
  if (free_in_flight_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    slot = free_in_flight_.back();
    free_in_flight_.pop_back();
  }
  InFlight& m = in_flight_[slot];
  m.id = id;
  m.sent_at = sent_at;
  m.from = from;
  m.to = to;
  m.size = static_cast<std::uint32_t>(payload.size());
  if (payload.size() <= kInlineFrame) {
    if (!payload.empty()) {
      std::memcpy(m.bytes.data(), payload.data(), payload.size());
    }
    return slot;
  }
  std::uint32_t spill = 0;
  if (free_spilled_.empty()) {
    spill = static_cast<std::uint32_t>(spilled_.size());
    spilled_.emplace_back();
  } else {
    spill = free_spilled_.back();
    free_spilled_.pop_back();
  }
  spilled_[spill].assign(payload);
  std::memcpy(m.bytes.data(), &spill, sizeof spill);
  return slot;
}

void Network::deliver_parked(std::uint32_t slot) {
  // Copy the slot out first: the handler may send, which can reuse the
  // slot or reallocate the slab.
  const InFlight m = in_flight_[slot];
  free_in_flight_.push_back(slot);
  if (frame_depth_ == frames_.size()) frames_.emplace_back();
  std::string& frame = frames_[frame_depth_];
  if (m.size <= kInlineFrame) {
    frame.assign(m.bytes.data(), m.size);
  } else {
    std::uint32_t spill = 0;
    std::memcpy(&spill, m.bytes.data(), sizeof spill);
    frame.swap(spilled_[spill]);  // Take the bytes; lend the capacity.
    free_spilled_.push_back(spill);
  }
  // The buffer at this depth is ours until the handler returns (or
  // throws); a nested delivery takes the next one.
  struct Depth {
    std::size_t& depth;
    explicit Depth(std::size_t& d) : depth(d) { ++depth; }
    ~Depth() { --depth; }
    Depth(const Depth&) = delete;
    Depth& operator=(const Depth&) = delete;
  } depth(frame_depth_);
  deliver_copy(m.from, m.to, frame, m.id, m.sent_at);
}

void Network::deliver_pending(std::size_t index) {
  check_pending_index(index);
  PendingMessage msg = std::move(pending_[index]);
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(index));
  deliver_copy(msg.from, msg.to, msg.payload, msg.id, msg.sent_at);
}

void Network::drop_pending(std::size_t index) {
  check_pending_index(index);
  const PendingMessage msg = std::move(pending_[index]);
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(index));
  ++stats_.dropped;
  if (flight_ != nullptr) {
    record_route(*flight_, sched_.now(), msg.from, "net.drop", msg.id,
                 msg.from, msg.to);
  }
}

}  // namespace asa_repro::sim
