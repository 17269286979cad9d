// Commit-path benchmark: the host cost of a commit on the real runtime path
// CommitEndpoint -> sim::Network -> CommitPeer -> FSM -> durable journal ->
// ack, measured end to end and split by layer.
//
//   commit_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--out-dir DIR]
//
// Workloads (README.md in this directory says why each was chosen):
//   inflight-r4   r=4, closed loop, 20k commits in flight on distinct GUIDs,
//                 30k commits per repetition, no journal.
//   wide-r13      r=13, closed loop, 64 in flight, 2k commits, durable
//                 journal with the cluster's default snapshot interval.
//   cluster-zipf  AsaCluster, 16 nodes, r=4, 4 open-loop zipf writers with
//                 20% reads, 1% message loss, metrics and flight recorder
//                 on, one node crashed and restarted from its journal; 8
//                 independent clusters of 2k operations per repetition.
//
// A run builds a fresh stack per repetition and repeats the same seeded
// repetition until --seconds have passed, so every repetition must produce
// identical simulated results (the determinism guard). With --trace 0 it
// reports the end-to-end metrics; with --trace 1 it alternates untraced and
// traced repetitions and reports the per-layer metrics. Tracing times calls
// into public functions from this file only: Scheduler::run, the peer's
// network handler, the commit sink, CommitEndpoint::submit,
// VersionHistoryService::append/read, AsaCluster::restart_node and the
// metrics export. Untraced repetitions keep every program default.
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is 0 only when every operation succeeded and every
// correctness and determinism check held.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "commit/endpoint.hpp"
#include "commit/machine_cache.hpp"
#include "commit/peer.hpp"
#include "durable/durable_log.hpp"
#include "durable/storage_medium.hpp"
#include "obs/metrics.hpp"
#include "sim/network.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/workload.hpp"
#include "storage/cluster.hpp"
#include "storage/invariant_checker.hpp"
#include "storage/pid.hpp"
#include "storage/version_history.hpp"

namespace {

using namespace asa_repro;
using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// ------------------------------------------------------------------ tracing

/// The layer boundaries the traced run times.
enum Layer : int {
  kSchedRun,  // Scheduler::run
  kPeer,      // The commit peer's network handler (CommitPeer::handle_frame)
  kSink,      // The commit sink (DurableLog::record_commit)
  kSubmit,    // CommitEndpoint::submit
  kAppend,    // VersionHistoryService::append
  kRead,      // VersionHistoryService::read
  kRestart,   // AsaCluster::restart_node
  kExport,    // snapshot_metrics + metrics JSON write
  kLayerCount,
};

/// Nested wall-clock spans: a layer's self time is its total minus the time
/// spent in spans opened inside it. Spans opened with no enclosing span are
/// top-level; their sum is what the per-layer self times add up to.
class Tracer {
 public:
  template <class Body>
  void span(Layer layer, Body&& body) {
    const Clock::time_point start = Clock::now();
    open_.push_back(0);
    body();
    const std::uint64_t ns = ns_between(start, Clock::now());
    total_[layer] += ns;
    child_[layer] += open_.back();
    ++calls_[layer];
    open_.pop_back();
    if (open_.empty()) {
      top_ += ns;
    } else {
      open_.back() += ns;
    }
  }

  [[nodiscard]] std::uint64_t total(Layer l) const { return total_[l]; }
  [[nodiscard]] std::uint64_t self(Layer l) const {
    return total_[l] - child_[l];
  }
  [[nodiscard]] std::uint64_t calls(Layer l) const { return calls_[l]; }
  [[nodiscard]] std::uint64_t top_level() const { return top_; }

  /// Mean total ns per call (0 when the layer was never entered).
  [[nodiscard]] double ns_per_call(Layer l) const {
    return calls_[l] == 0 ? 0.0
                          : static_cast<double>(total_[l]) /
                                static_cast<double>(calls_[l]);
  }

 private:
  std::array<std::uint64_t, kLayerCount> total_{};
  std::array<std::uint64_t, kLayerCount> child_{};
  std::array<std::uint64_t, kLayerCount> calls_{};
  std::uint64_t top_ = 0;
  std::vector<std::uint64_t> open_;  // Child ns accumulated per open span.
};

/// Run `body` inside a span when tracing, bare otherwise.
template <class Body>
void timed(Tracer* tracer, Layer layer, Body&& body) {
  if (tracer != nullptr) {
    tracer->span(layer, std::forward<Body>(body));
  } else {
    body();
  }
}

// ----------------------------------------------------------- repetitions

/// Nearest-rank percentile of `samples` (sorted in place).
sim::Time percentile(std::vector<sim::Time>& samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::max<std::size_t>(rank, 1) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Everything one repetition measured.
struct Rep {
  double wall_s = 0.0;  // First submit to quiescence (plus export).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t commits = 0;
  std::vector<sim::Time> commit_latency;  // Sim us, per committed op.
  std::vector<sim::Time> read_latency;    // Sim us, per agreed read.
  std::uint64_t reads = 0;
  std::uint64_t reads_ok = 0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t queue_max = 0;
  std::uint64_t attempts = 0;
  std::uint64_t aborts = 0;
  std::uint64_t resident_end = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t journal_commits = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t peer_messages = 0;  // Traced closed-loop runs only.
  std::uint64_t peer_bytes = 0;
  std::vector<std::string> violations;
  std::optional<Tracer> trace;

  /// The simulated results the determinism guard compares: identical for
  /// every repetition of one seed, traced or not.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> signature()
      const {
    std::vector<sim::Time> c = commit_latency;
    std::vector<sim::Time> r = read_latency;
    const std::uint64_t latency_sum =
        std::accumulate(c.begin(), c.end(), std::uint64_t{0}) +
        std::accumulate(r.begin(), r.end(), std::uint64_t{0});
    return {{"commits", commits},
            {"failed", failed},
            {"reads_ok", reads_ok},
            {"commit_p50_sim_us", percentile(c, 0.50)},
            {"commit_p99_sim_us", percentile(c, 0.99)},
            {"read_p99_sim_us", percentile(r, 0.99)},
            {"latency_sum_sim_us", latency_sum},
            {"events", events},
            {"messages", messages},
            {"queue_max", queue_max},
            {"attempts", attempts},
            {"aborts", aborts},
            {"resident_end", resident_end},
            {"journal_bytes", journal_bytes},
            {"snapshots", snapshots}};
  }
};

// ------------------------------------------------- closed-loop workloads

struct ClosedLoopConfig {
  std::uint32_t r;
  std::size_t total;     // Commits per repetition.
  std::size_t inflight;  // Commits kept outstanding.
  bool durable;
};

/// r peers and one endpoint on a fault-free LAN; each commit is a distinct
/// GUID, so commits never contend.
class ClosedLoopStack {
 public:
  ClosedLoopStack(const ClosedLoopConfig& config, std::uint64_t seed,
                  Tracer* tracer)
      : config_(config),
        seed_(seed),
        tracer_(tracer),
        network_(scheduler_, sim::Rng(sim::Rng::derive_seed(seed, 1)),
                 sim::LatencyModel{}) {
    const fsm::StateMachine& machine = machines_.machine_for(config.r);
    std::vector<sim::NodeAddr> addrs(config.r);
    std::iota(addrs.begin(), addrs.end(), sim::NodeAddr{0});
    const std::size_t snapshot_every = storage::ClusterConfig{}.snapshot_every;
    for (sim::NodeAddr addr : addrs) {
      // Untraced: the peer claims its address itself (the default).
      // Traced: a host-style handler feeds it, as NodeHost does.
      peers_.push_back(std::make_unique<commit::CommitPeer>(
          network_, addr, addrs, machine, commit::Behaviour::kHonest,
          nullptr, /*attach_to_network=*/tracer == nullptr));
      commit::CommitPeer* peer = peers_.back().get();
      if (tracer != nullptr) {
        network_.attach(addr, [this, peer](sim::NodeAddr from,
                                           const std::string& data) {
          ++peer_messages_;
          peer_bytes_ += data.size();
          tracer_->span(kPeer, [&] { peer->handle_frame(from, data); });
        });
      }
      if (config.durable) {
        media_.push_back(std::make_unique<durable::MemMedium>());
        logs_.push_back(std::make_unique<durable::DurableLog>(
            *media_.back(), "node-" + std::to_string(addr), snapshot_every));
        durable::DurableLog* log = logs_.back().get();
        peer->set_commit_sink(
            [log, tracer](std::uint64_t guid,
                          const commit::CommitPeer::CommittedEntry& e) {
              bool ok = false;
              timed(tracer, kSink, [&] {
                ok = log->record_commit(guid, e.update_id, e.request_id,
                                        e.payload);
              });
              return ok;
            });
      }
    }
    endpoint_ = std::make_unique<commit::CommitEndpoint>(
        network_, config.r, addrs, (config.r - 1) / 3, commit::RetryPolicy{},
        sim::Rng(sim::Rng::derive_seed(seed, 2)));
    results_.resize(config.total);
  }

  Rep run() {
    Rep rep;
    const Clock::time_point start = Clock::now();
    while (submitted_ < std::min(config_.inflight, config_.total)) {
      submit_next();
    }
    timed(tracer_, kSchedRun, [&] { scheduler_.run(); });
    rep.wall_s = static_cast<double>(ns_between(start, Clock::now())) * 1e-9;
    collect(rep);
    return rep;
  }

 private:
  [[nodiscard]] std::uint64_t guid(std::size_t i) const {
    return sim::Rng::derive_seed(seed_, 1'000'000 + i);
  }
  [[nodiscard]] std::uint64_t payload(std::size_t i) const {
    return sim::Rng::derive_seed(seed_ ^ 0x7061796Cull, i);  // "payl"
  }

  void submit_next() {
    const std::size_t i = submitted_++;
    timed(tracer_, kSubmit, [&] {
      endpoint_->submit(guid(i), payload(i),
                        [this, i](const commit::CommitResult& result) {
                          results_[i] = result;
                          if (submitted_ < config_.total) submit_next();
                        });
    });
  }

  void collect(Rep& rep) {
    const std::uint32_t f = (config_.r - 1) / 3;
    rep.attempted = config_.total;
    for (std::size_t i = 0; i < config_.total; ++i) {
      const commit::CommitResult& result = results_[i];
      if (!result.committed) {
        ++rep.failed;
        continue;
      }
      ++rep.commits;
      rep.commit_latency.push_back(result.latency);
      check_commit(i, result, f, rep);
    }
    rep.events = scheduler_.stats().executed;
    rep.queue_max = scheduler_.stats().max_queue_depth;
    rep.messages = network_.stats().sent;
    rep.attempts = endpoint_->stats().submitted + endpoint_->stats().retries;
    for (const auto& peer : peers_) {
      rep.aborts += peer->stats().aborted;
      for (std::size_t i = 0; i < config_.total; ++i) {
        rep.resident_end += peer->resident_instances(guid(i));
      }
    }
    for (std::size_t n = 0; n < logs_.size(); ++n) {
      rep.journal_bytes += media_[n]->stats().bytes_written;
      rep.journal_commits += logs_[n]->writer_stats().commits_recorded;
      rep.snapshots += logs_[n]->writer_stats().snapshots_written;
    }
    rep.peer_messages = peer_messages_;
    rep.peer_bytes = peer_bytes_;
  }

  /// Honest peers agree on the GUID's history, which holds exactly the
  /// submitted payload; with a journal, at least f+1 journal images hold
  /// the acknowledged request.
  void check_commit(std::size_t i, const commit::CommitResult& result,
                    std::uint32_t f, Rep& rep) const {
    const std::uint64_t g = guid(i);
    const auto& reference = peers_.front()->history(g);
    for (const auto& peer : peers_) {
      const auto& history = peer->history(g);
      if (history != reference) {
        rep.violations.push_back("history disagreement on guid " +
                                 std::to_string(g));
        return;
      }
    }
    std::set<std::uint64_t> requests;
    for (const auto& entry : reference) {
      requests.insert(entry.request_id);
      if (entry.payload != payload(i)) {
        rep.violations.push_back("foreign payload on guid " +
                                 std::to_string(g));
        return;
      }
    }
    if (requests.size() != 1 || !requests.contains(result.request_id)) {
      rep.violations.push_back("acked request missing on guid " +
                               std::to_string(g));
      return;
    }
    if (!config_.durable) return;
    std::uint32_t journaled = 0;
    for (const auto& log : logs_) {
      const auto it = log->histories().find(g);
      if (it == log->histories().end()) continue;
      for (const durable::Entry& e : it->second) {
        if (e.request_id == result.request_id) {
          ++journaled;
          break;
        }
      }
    }
    if (journaled < f + 1) {
      rep.violations.push_back("acked commit on guid " + std::to_string(g) +
                               " in " + std::to_string(journaled) +
                               " journals, fewer than f+1");
    }
  }

  ClosedLoopConfig config_;
  std::uint64_t seed_;
  Tracer* tracer_;
  sim::Scheduler scheduler_;
  sim::Network network_;
  commit::MachineCache machines_;
  std::vector<std::unique_ptr<durable::MemMedium>> media_;
  std::vector<std::unique_ptr<durable::DurableLog>> logs_;
  std::vector<std::unique_ptr<commit::CommitPeer>> peers_;
  std::unique_ptr<commit::CommitEndpoint> endpoint_;
  std::vector<commit::CommitResult> results_;
  std::size_t submitted_ = 0;
  std::uint64_t peer_messages_ = 0;
  std::uint64_t peer_bytes_ = 0;
};

// ------------------------------------------------------ cluster workload

// The cluster-zipf workload: 16 nodes, r=4, 4 open-loop writers over 32
// zipf-0.9 keys with 20% reads, 1% message loss, one member of the hottest
// key's peer set crashed at 40% of the run and restarted 0.5 s later.
constexpr std::uint32_t kShards = 8;        // Independent clusters per rep.
constexpr int kShardOperations = 2'000;     // Per shard.
constexpr sim::Time kInterarrival = 20'000;  // Per writer, sim us.
constexpr sim::Time kRestartAfter = 500'000;

storage::ClusterConfig cluster_config(std::uint64_t seed) {
  storage::ClusterConfig config;
  config.nodes = 16;
  config.replication_factor = 4;
  config.seed = sim::Rng::derive_seed(seed, 3);
  config.drop_probability = 0.01;
  config.metrics = true;
  config.flight_capacity = 256;
  config.durability = true;
  // Lost protocol messages strand instances that hold a node lock; peers
  // must abort them or a GUID deadlocks (the chaos engine's values).
  config.abort_scan_interval = 60'000;
  config.abort_max_age = 80'000;
  return config;
}

sim::WorkloadConfig workload_config() {
  sim::WorkloadConfig config;
  config.writers = 4;
  config.keys = 32;
  config.operations = kShardOperations;
  config.zipf = 0.9;
  config.read_fraction = 0.2;
  config.open_loop = true;
  config.mean_interarrival = kInterarrival;
  return config;
}

/// One integrated cluster: Chord-located peer sets, version-history
/// appends serialized per GUID, agreed reads, durable journals and a
/// crash/restart.
class ClusterShard {
 public:
  static constexpr int kReadTries = 3;

  ClusterShard(std::uint32_t shard, std::uint64_t seed, Tracer* tracer,
               std::string export_path)
      : tracer_(tracer),
        export_path_(std::move(export_path)),
        seed_(seed),
        cluster_(cluster_config(seed)),
        checker_(cluster_) {
    cluster_.version_history().set_serialize_appends(true);
    ops_ = sim::generate_workload(workload_config(), seed);

    // The key set, and so each key's Chord peer set, is fixed per shard;
    // the seed varies the access pattern, loss and latencies.
    for (std::uint32_t k = 0; k < workload_config().keys; ++k) {
      guids_.push_back(storage::Guid::named(
          "bench:" + std::to_string(shard) + ":" + std::to_string(k)));
    }
    pids_.resize(ops_.size());
    sim::Time horizon = 0;
    for (std::size_t w = 0; w < ops_.size(); ++w) {
      pids_[w].resize(ops_[w].size());
      for (std::size_t i = 0; i < ops_[w].size(); ++i) {
        const sim::WorkloadOp& op = ops_[w][i];
        horizon = std::max(horizon, op.at);
        cluster_.scheduler().schedule_at(op.at, [this, w, i] { fire(w, i); });
        if (op.read) continue;
        pids_[w][i] = storage::Pid::of(storage::block_from(
            "bench w" + std::to_string(w) + " op" + std::to_string(i) +
            " seed " + std::to_string(seed)));
        checker_.note_submitted(guids_[op.key], pids_[w][i].to_uint64());
      }
    }

    // Crash one member of the hottest key's peer set mid-run, then restart
    // it from its journal.
    const std::vector<sim::NodeAddr> members = cluster_.peer_set(guids_[0]);
    victim_ = members[seed % members.size()];
    const sim::Time crash_at = horizon * 4 / 10;
    cluster_.scheduler().schedule_at(
        crash_at, [this] { cluster_.crash_node(victim_); });
    cluster_.scheduler().schedule_at(
        crash_at + kRestartAfter, [this] { restart(); });
  }

  Rep run() {
    const Clock::time_point start = Clock::now();
    timed(tracer_, kSchedRun, [&] { cluster_.scheduler().run(); });
    timed(tracer_, kExport, [&] {
      cluster_.snapshot_metrics();
      std::ofstream out(export_path_);
      out << obs::write_metrics_json(
          cluster_.metrics(),
          {{"tool", "commit_bench"}, {"seed", std::to_string(seed_)}});
      if (!out) rep_.violations.push_back("cannot write " + export_path_);
    });
    rep_.wall_s = static_cast<double>(ns_between(start, Clock::now())) * 1e-9;
    collect();
    return std::move(rep_);
  }

 private:
  void fire(std::size_t w, std::size_t i) {
    const sim::WorkloadOp& op = ops_[w][i];
    const sim::Time due = op.at;
    storage::VersionHistoryService& history = cluster_.version_history();
    ++rep_.attempted;
    if (op.read) {
      read(op.key, due, kReadTries);
      return;
    }
    timed(tracer_, kAppend, [&] {
      history.append(guids_[op.key], pids_[w][i],
                     [this, due](const commit::CommitResult& result) {
                       if (!result.committed) {
                         ++rep_.failed;
                         return;
                       }
                       ++rep_.commits;
                       rep_.commit_latency.push_back(
                           cluster_.scheduler().now() - due);
                     });
    });
  }

  /// An agreed read. One that got fewer than f+1 replies (a lost request
  /// or reply, or a crashed member) is reissued, as a client would, and
  /// the operation fails only when every try does.
  void read(std::uint32_t key, sim::Time due, int tries_left) {
    ++rep_.reads;
    timed(tracer_, kRead, [&] {
      cluster_.version_history().read(
          guids_[key], [this, key, due, tries_left](
                           const storage::HistoryReadResult& result) {
            if (result.ok) {
              ++rep_.reads_ok;
              rep_.read_latency.push_back(cluster_.scheduler().now() - due);
            } else if (tries_left > 1) {
              read(key, due, tries_left - 1);
            } else {
              ++rep_.failed;
            }
          });
    });
  }

  void restart() {
    // restart_node rebuilds the host and its journal writer; keep what the
    // crashed incarnation counted.
    const std::size_t index = victim_;
    carried_aborts_ += cluster_.host(index).peer().stats().aborted;
    const durable::WriterStats& writer =
        cluster_.durable_log(index)->writer_stats();
    carried_commits_ += writer.commits_recorded;
    carried_snapshots_ += writer.snapshots_written;
    timed(tracer_, kRestart, [&] { cluster_.restart_node(index); });
  }

  void collect() {
    for (storage::Violation& v : checker_.check(/*check_order=*/false)) {
      rep_.violations.push_back(v.invariant + ": " + v.detail);
    }
    if (cluster_.crashed(victim_)) {
      rep_.violations.push_back("node " + std::to_string(victim_) +
                                " did not restart");
    }
    const sim::SchedulerStats& sched = cluster_.scheduler().stats();
    rep_.events = sched.executed;
    rep_.queue_max = sched.max_queue_depth;
    rep_.messages = cluster_.network().stats().sent;
    const commit::EndpointStats endpoints =
        cluster_.version_history().total_stats();
    rep_.attempts = endpoints.submitted + endpoints.retries;
    rep_.aborts = carried_aborts_;
    rep_.journal_commits = carried_commits_;
    rep_.snapshots = carried_snapshots_;
    const std::vector<storage::Guid> known = cluster_.known_guids();
    for (std::size_t n = 0; n < cluster_.node_count(); ++n) {
      const commit::CommitPeer& peer = cluster_.host(n).peer();
      rep_.aborts += peer.stats().aborted;
      for (const storage::Guid& g : known) {
        rep_.resident_end += peer.resident_instances(g.to_uint64());
      }
      rep_.journal_bytes += cluster_.medium(n).stats().bytes_written;
      const durable::WriterStats& writer =
          cluster_.durable_log(n)->writer_stats();
      rep_.journal_commits += writer.commits_recorded;
      rep_.snapshots += writer.snapshots_written;
    }
  }

  Tracer* tracer_;
  std::string export_path_;
  std::uint64_t seed_;
  storage::AsaCluster cluster_;
  storage::InvariantChecker checker_;
  std::vector<std::vector<sim::WorkloadOp>> ops_;
  std::vector<std::vector<storage::Pid>> pids_;
  std::vector<storage::Guid> guids_;
  std::size_t victim_ = 0;
  std::uint64_t carried_aborts_ = 0;
  std::uint64_t carried_commits_ = 0;
  std::uint64_t carried_snapshots_ = 0;
  Rep rep_;
};

/// Pool `from` into `into`: counts add, samples concatenate.
void merge(Rep& into, Rep from) {
  into.wall_s += from.wall_s;
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.commits += from.commits;
  into.commit_latency.insert(into.commit_latency.end(),
                             from.commit_latency.begin(),
                             from.commit_latency.end());
  into.read_latency.insert(into.read_latency.end(), from.read_latency.begin(),
                           from.read_latency.end());
  into.reads += from.reads;
  into.reads_ok += from.reads_ok;
  into.events += from.events;
  into.messages += from.messages;
  into.queue_max = std::max(into.queue_max, from.queue_max);
  into.attempts += from.attempts;
  into.aborts += from.aborts;
  into.resident_end += from.resident_end;
  into.journal_bytes += from.journal_bytes;
  into.journal_commits += from.journal_commits;
  into.snapshots += from.snapshots;
  into.peer_messages += from.peer_messages;
  into.peer_bytes += from.peer_bytes;
  for (std::string& v : from.violations) {
    into.violations.push_back(std::move(v));
  }
}

/// Independent clusters, each seeded from the run's seed, pooled into one
/// repetition: percentiles then rest on many independent hot-key queues
/// instead of one, and the run costs less than one cluster as long.
class ClusterStack {
 public:
  ClusterStack(std::uint64_t seed, Tracer* tracer,
               const std::string& export_dir) {
    for (std::uint32_t k = 0; k < kShards; ++k) {
      shards_.push_back(std::make_unique<ClusterShard>(
          k, sim::Rng::derive_seed(seed, 100 + k), tracer,
          export_dir + "/metrics-cluster-zipf-" + std::to_string(k) +
              ".json"));
    }
  }

  Rep run() {
    Rep pooled;
    for (auto& shard : shards_) merge(pooled, shard->run());
    return pooled;
  }

 private:
  std::vector<std::unique_ptr<ClusterShard>> shards_;
};

// -------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// A workload builds a fresh stack per repetition. `run` times the stack's
/// construction as set-up, then runs it; `setup_only` constructs one,
/// discards it and returns its set-up seconds.
struct Workload {
  std::function<Rep(std::uint64_t seed, Tracer* tracer, double& setup_s)>
      run;
  std::function<double(std::uint64_t seed)> setup_only;
};

template <class Make>
Workload workload_of(Make make) {
  auto build = [make](std::uint64_t seed, Tracer* tracer, double& setup_s) {
    const Clock::time_point t0 = Clock::now();
    auto stack = make(seed, tracer);
    setup_s = static_cast<double>(ns_between(t0, Clock::now())) * 1e-9;
    return stack;
  };
  return {[build](std::uint64_t seed, Tracer* tracer, double& setup_s) {
            return build(seed, tracer, setup_s)->run();
          },
          [build](std::uint64_t seed) {
            double setup_s = 0.0;
            build(seed, nullptr, setup_s);
            return setup_s;
          }};
}

std::optional<Workload> make_workload(const Args& args) {
  auto closed_loop = [](ClosedLoopConfig config) {
    return workload_of([config](std::uint64_t seed, Tracer* tracer) {
      return std::make_unique<ClosedLoopStack>(config, seed, tracer);
    });
  };
  if (args.workload == "inflight-r4") {
    return closed_loop({4, 30'000, 20'000, false});
  }
  if (args.workload == "wide-r13") {
    return closed_loop({13, 2'000, 64, true});
  }
  if (args.workload == "cluster-zipf") {
    return workload_of([dir = args.out_dir](std::uint64_t seed,
                                            Tracer* tracer) {
      return std::make_unique<ClusterStack>(seed, tracer, dir);
    });
  }
  return std::nullopt;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::optional<Args> parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value != "0";
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (args.workload.empty()) return std::nullopt;
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse(argc, argv);
  if (!parsed) {
    std::cerr << "usage: commit_bench --workload inflight-r4|wide-r13|"
                 "cluster-zipf --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n";
    return 2;
  }
  const Args& args = *parsed;
  const std::optional<Workload> workload = make_workload(args);
  if (!workload) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }

  std::cout << "host: cpu=" << json_string(cpu_model())
            << " nproc=" << sysconf(_SC_NPROCESSORS_ONLN)
            << " compiler=" << json_string(COMMITBENCH_COMPILER)
            << " build=" << COMMITBENCH_BUILD_TYPE << "\n";

  // Set-up cost, from several fresh stacks.
  constexpr int kSetups = 15;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    setups.push_back(workload->setup_only(args.seed));
  }

  // Repetitions: untraced only, or alternating untraced/traced.
  const int min_reps = args.trace ? 4 : 2;
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  const Clock::time_point start = Clock::now();
  double last_rep_s = 0.0;
  for (int n = 0;; ++n) {
    const double elapsed =
        static_cast<double>(ns_between(start, Clock::now())) * 1e-9;
    if (n >= min_reps && elapsed + last_rep_s > args.seconds) break;
    const bool trace_this = args.trace && n % 2 == 1;
    Tracer tracer;
    double setup_s = 0.0;
    const Clock::time_point rep_start = Clock::now();
    Rep rep = workload->run(args.seed, trace_this ? &tracer : nullptr,
                            setup_s);
    last_rep_s = static_cast<double>(ns_between(rep_start, Clock::now())) *
                 1e-9;
    setups.push_back(setup_s);
    if (trace_this) {
      rep.trace = tracer;
      traced.push_back(std::move(rep));
    } else {
      plain.push_back(std::move(rep));
    }
  }

  // Determinism guard: every repetition of the seed matches the first.
  std::vector<std::string> problems;
  const Rep& first = plain.front();
  const auto reference = first.signature();
  std::vector<const Rep*> all;
  for (const Rep& r : plain) all.push_back(&r);
  for (const Rep& r : traced) all.push_back(&r);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Rep* r : all) {
    attempted += r->attempted;
    failed += r->failed;
    for (const std::string& v : r->violations) problems.push_back(v);
    failed += r->violations.empty() ? 0 : 1;
    const auto sig = r->signature();
    for (std::size_t k = 0; k < sig.size(); ++k) {
      if (sig[k].second != reference[k].second) {
        problems.push_back("determinism: " + sig[k].first + " " +
                           std::to_string(sig[k].second) + " != " +
                           std::to_string(reference[k].second));
        ++failed;
      }
    }
  }

  const double commits = static_cast<double>(first.commits);
  std::vector<sim::Time> commit_latency = first.commit_latency;
  std::vector<sim::Time> read_latency = first.read_latency;
  const double p50 = static_cast<double>(percentile(commit_latency, 0.50));
  const double p99 = static_cast<double>(percentile(commit_latency, 0.99));
  const double read_p99 = static_cast<double>(percentile(read_latency, 0.99));

  std::vector<double> rates;
  std::vector<double> plain_walls;
  for (const Rep& r : plain) {
    rates.push_back(commits / r.wall_s);
    plain_walls.push_back(r.wall_s);
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setups), "s"},
        {"commits_per_s", median(rates), "1/s"},
        {"commit_p50_sim_us", p50, "us"},
        {"commit_p99_sim_us", p99, "us"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    // Per-layer values: median over the traced repetitions.
    auto over_traced = [&](const std::function<double(const Rep&,
                                                      const Tracer&)>& f) {
      std::vector<double> values;
      for (const Rep& r : traced) values.push_back(f(r, *r.trace));
      return median(values);
    };
    std::vector<double> traced_walls;
    for (const Rep& r : traced) traced_walls.push_back(r.wall_s);
    const double events = static_cast<double>(first.events);
    metrics = {
        {"sim.run_self_ns_per_event",
         over_traced([&](const Rep&, const Tracer& t) {
           return ratio(static_cast<double>(t.self(kSchedRun)), events);
         }),
         "ns"},
        {"sim.queue_depth_max", static_cast<double>(first.queue_max),
         "count"},
        {"sim.events_per_commit", ratio(events, commits), "count"},
        {"sim.msgs_per_commit",
         ratio(static_cast<double>(first.messages), commits), "count"},
        {"sim.bytes_per_msg",
         ratio(static_cast<double>(traced.front().peer_bytes),
               static_cast<double>(traced.front().peer_messages)),
         "B"},
        {"commit.peer_ns_per_msg",
         over_traced([](const Rep&, const Tracer& t) {
           return t.ns_per_call(kPeer);
         }),
         "ns"},
        {"commit.peer_self_ns_per_msg",
         over_traced([](const Rep&, const Tracer& t) {
           return ratio(static_cast<double>(t.self(kPeer)),
                        static_cast<double>(t.calls(kPeer)));
         }),
         "ns"},
        {"commit.submit_ns",
         over_traced([](const Rep&, const Tracer& t) {
           return t.ns_per_call(kSubmit);
         }),
         "ns"},
        {"commit.attempts_per_commit",
         ratio(static_cast<double>(first.attempts), commits), "ratio"},
        {"commit.aborts_per_commit",
         ratio(static_cast<double>(first.aborts), commits), "ratio"},
        {"commit.resident_instances_end",
         static_cast<double>(first.resident_end), "count"},
        {"commit.latency_samples", commits, "count"},
        {"durable.append_ns",
         over_traced([](const Rep&, const Tracer& t) {
           return t.ns_per_call(kSink);
         }),
         "ns"},
        {"durable.bytes_per_commit",
         ratio(static_cast<double>(first.journal_bytes),
               static_cast<double>(first.journal_commits)),
         "B"},
        {"durable.snapshots", static_cast<double>(first.snapshots), "count"},
        {"durable.recover_ms",
         over_traced([](const Rep&, const Tracer& t) {
           return t.ns_per_call(kRestart) * 1e-6;
         }),
         "ms"},
        {"storage.append_submit_ns",
         over_traced([](const Rep&, const Tracer& t) {
           return t.ns_per_call(kAppend);
         }),
         "ns"},
        {"storage.read_submit_ns",
         over_traced([](const Rep&, const Tracer& t) {
           return t.ns_per_call(kRead);
         }),
         "ns"},
        {"storage.read_ok_ratio",
         ratio(static_cast<double>(first.reads_ok),
               static_cast<double>(first.reads)),
         "ratio"},
        {"storage.read_p99_sim_us", read_p99, "us"},
        {"storage.read_samples", static_cast<double>(read_latency.size()),
         "count"},
        {"obs.export_ms",
         over_traced([](const Rep&, const Tracer& t) {
           return t.ns_per_call(kExport) * 1e-6;
         }),
         "ms"},
        {"obs.trace_overhead_ratio",
         median(traced_walls) / median(plain_walls) - 1.0, "ratio"},
        {"obs.unattributed_ratio",
         over_traced([](const Rep& r, const Tracer& t) {
           const double wall_ns = r.wall_s * 1e9;
           return (wall_ns - static_cast<double>(t.top_level())) / wall_ns;
         }),
         "ratio"},
    };
  }

  std::cout << "workload=" << args.workload << " seed=" << args.seed
            << " trace=" << (args.trace ? 1 : 0) << " reps=" << plain.size()
            << "+" << traced.size() << " commits/rep=" << first.commits
            << " reads/rep=" << first.reads_ok << "/" << first.reads << "\n";
  std::cout << "  repetition wall s:";
  for (const Rep& r : plain) std::cout << " " << r.wall_s;
  for (const Rep& r : traced) std::cout << " traced:" << r.wall_s;
  std::cout << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
  }
  for (const std::string& p : problems) std::cout << "FAIL " << p << "\n";

  const bool correct = problems.empty() && failed == 0;
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << json_string(metrics[i].name)
         << ": {\"value\": " << number(metrics[i].value)
         << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}
