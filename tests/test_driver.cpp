// Executor conformance (paper sections 4.2-4.3). The runtime executes every
// commit machine instance as an fsm::CompiledInstance over the shared
// CommitTable. The paper's other deployment artefacts are its oracles:
// the interpreter over the generated StateMachine, the checked-in
// generated switch code for r=4, and generated code compiled and dlopen'd
// at run time. After every delivered message — on random message walks and
// on the full commit path — the runtime must emit the same action names
// and report the same finished() as each of them.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "commit/commit_model.hpp"
#include "commit/commit_table.hpp"
#include "commit/endpoint.hpp"
#include "commit/generated/commit_fsm_r4.hpp"
#include "commit/machine_cache.hpp"
#include "commit/peer.hpp"
#include "core/dynamic_loader.hpp"
#include "core/generated_api.hpp"
#include "core/interpreter.hpp"
#include "core/render/code_renderer.hpp"
#include "sim/rng.hpp"

namespace asa_repro::commit {
namespace {

constexpr std::uint64_t kGuid = 42;

/// One executing machine instance, however it is implemented.
class Executor {
 public:
  virtual ~Executor() = default;
  /// The action names one delivery performs, in order.
  virtual fsm::ActionList deliver(fsm::MessageId message) = 0;
  [[nodiscard]] virtual bool finished() const = 0;
};

/// The runtime's executor: the peer's CompiledInstance over a CommitTable,
/// with action ids resolved back to names.
class RuntimeExecutor final : public Executor {
 public:
  explicit RuntimeExecutor(std::shared_ptr<const CommitTable> table)
      : table_(std::move(table)), instance_(table_->machine()) {}

  fsm::ActionList deliver(fsm::MessageId message) override {
    const fsm::CompiledInstance::Delivery d = instance_.deliver(message);
    fsm::ActionList names;
    for (std::uint32_t i = 0; i < d.count; ++i) {
      names.push_back(table_->machine().action_names()[d.ids[i]]);
    }
    return names;
  }
  [[nodiscard]] bool finished() const override {
    return instance_.finished();
  }

 private:
  std::shared_ptr<const CommitTable> table_;
  fsm::CompiledInstance instance_;
};

/// Oracle: the interpreter walking the generated StateMachine.
class InterpreterOracle final : public Executor {
 public:
  explicit InterpreterOracle(const fsm::StateMachine& machine)
      : instance_(machine) {}

  fsm::ActionList deliver(fsm::MessageId message) override {
    const fsm::Transition* t = instance_.deliver(message);
    return t == nullptr ? fsm::ActionList{} : t->actions;
  }
  [[nodiscard]] bool finished() const override {
    return instance_.finished();
  }

 private:
  fsm::FsmInstance instance_;
};

/// Oracle: the checked-in generated r=4 source (paper section 4.2's
/// "generate once during development"), with its action methods bound to
/// a name buffer.
class GeneratedR4Oracle final : public Executor {
 public:
  fsm::ActionList deliver(fsm::MessageId message) override {
    actions_.clear();
    machine_.receive(static_cast<std::uint32_t>(message));
    return std::move(actions_);
  }
  [[nodiscard]] bool finished() const override { return machine_.finished(); }

 private:
  class Machine final : public generated::CommitFsmR4 {
   public:
    explicit Machine(fsm::ActionList& sink) : sink_(sink) {}

   private:
    void sendVote() override { sink_.push_back(kActionVote); }
    void sendCommit() override { sink_.push_back(kActionCommit); }
    void sendFree() override { sink_.push_back(kActionFree); }
    void sendNotFree() override { sink_.push_back(kActionNotFree); }

    fsm::ActionList& sink_;
  };

  fsm::ActionList actions_;
  Machine machine_{actions_};
};

/// Oracle: a machine minted by a dynamically loaded shared object through
/// the GeneratedFsmApi ABI (section 4.3's compile/load/bind pipeline).
class GeneratedApiOracle final : public Executor {
 public:
  explicit GeneratedApiOracle(std::unique_ptr<fsm::GeneratedFsmApi> machine)
      : machine_(std::move(machine)) {
    machine_->set_action_sink(
        [](void* ctx, const char* action) {
          static_cast<fsm::ActionList*>(ctx)->emplace_back(action);
        },
        &actions_);
  }

  fsm::ActionList deliver(fsm::MessageId message) override {
    actions_.clear();
    machine_->receive(message);
    return std::move(actions_);
  }
  [[nodiscard]] bool finished() const override {
    return machine_->finished();
  }

 private:
  std::unique_ptr<fsm::GeneratedFsmApi> machine_;
  fsm::ActionList actions_;
};

using ExecutorFactory = std::function<std::unique_ptr<Executor>()>;

/// Deliver `messages` to a fresh runtime executor and a fresh oracle in
/// lockstep, asserting equal actions and finished() after every step.
void expect_conforms(const ExecutorFactory& runtime,
                     const ExecutorFactory& oracle,
                     const std::vector<fsm::MessageId>& messages,
                     const std::string& label) {
  const std::unique_ptr<Executor> a = runtime();
  const std::unique_ptr<Executor> b = oracle();
  ASSERT_EQ(a->finished(), b->finished()) << label << " at start";
  for (std::size_t step = 0; step < messages.size(); ++step) {
    const fsm::ActionList got = a->deliver(messages[step]);
    const fsm::ActionList want = b->deliver(messages[step]);
    ASSERT_EQ(got, want) << label << ", step " << step << ", message "
                         << kMessageNames[messages[step]];
    ASSERT_EQ(a->finished(), b->finished()) << label << ", step " << step;
  }
}

/// Random message walks over the whole vocabulary, long enough to finish
/// most instances and then keep delivering to the finished machine.
std::vector<std::vector<fsm::MessageId>> random_walks(std::uint64_t seed,
                                                      std::size_t walks,
                                                      std::size_t length) {
  sim::Rng rng(seed);
  std::vector<std::vector<fsm::MessageId>> out(walks);
  for (auto& walk : out) {
    for (std::size_t i = 0; i < length; ++i) {
      walk.push_back(static_cast<fsm::MessageId>(rng.below(kMessageCount)));
    }
  }
  return out;
}

/// The sequences a peer's instance sees on the full commit path for
/// replication factor r (f = (r-1)/3): a free node votes on the update,
/// collects 2f further votes, commits, and finishes on f+1 commits; a
/// locked node first hears not_free and only votes after free; votes and
/// commits may also arrive before the update itself.
std::vector<std::vector<fsm::MessageId>> commit_paths(std::uint32_t r) {
  const std::uint32_t f = (r - 1) / 3;
  auto repeat = [](std::vector<fsm::MessageId>& path, fsm::MessageId m,
                   std::uint32_t n) { path.insert(path.end(), n, m); };
  std::vector<fsm::MessageId> free_node{kUpdate};
  repeat(free_node, kVote, 2 * f);
  repeat(free_node, kCommit, f + 1);
  std::vector<fsm::MessageId> locked_node{kNotFree, kUpdate};
  repeat(locked_node, kVote, 2 * f);
  locked_node.push_back(kFree);
  repeat(locked_node, kCommit, f + 1);
  std::vector<fsm::MessageId> early_traffic;
  repeat(early_traffic, kVote, 2 * f + 1);
  repeat(early_traffic, kCommit, f);
  early_traffic.push_back(kUpdate);
  early_traffic.push_back(kCommit);
  return {free_node, locked_node, early_traffic};
}

struct Outcome {
  std::vector<std::vector<std::uint64_t>> histories;  // Per peer.
  std::uint64_t network_frames = 0;
  std::uint64_t total_votes_sent = 0;
  int committed = 0;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

Outcome run_scenario(std::uint64_t seed, int clients) {
  static MachineCache cache;
  const fsm::StateMachine& machine = cache.machine_for(4);
  sim::Scheduler sched;
  sim::Network network(sched, sim::Rng(seed), sim::LatencyModel{500, 5'000});

  std::vector<sim::NodeAddr> addrs{0, 1, 2, 3};
  std::vector<std::unique_ptr<CommitPeer>> peers;
  for (sim::NodeAddr a : addrs) {
    peers.push_back(
        std::make_unique<CommitPeer>(network, a, addrs, machine));
    peers.back()->enable_abort(50'000, 60'000);
  }

  RetryPolicy policy;
  policy.base_timeout = 70'000;
  policy.max_attempts = 20;
  Outcome outcome;
  std::vector<std::unique_ptr<CommitEndpoint>> endpoints;
  for (int c = 0; c < clients; ++c) {
    endpoints.push_back(std::make_unique<CommitEndpoint>(
        network, static_cast<sim::NodeAddr>(100 + c), addrs, 1, policy,
        sim::Rng(seed * 31 + c)));
    endpoints.back()->submit(kGuid, 7'000 + c,
                             [&outcome](const CommitResult& r) {
                               outcome.committed += r.committed ? 1 : 0;
                             });
  }
  sched.run();

  for (const auto& p : peers) {
    std::vector<std::uint64_t> h;
    for (const auto& e : p->history(kGuid)) h.push_back(e.update_id);
    outcome.histories.push_back(std::move(h));
    outcome.total_votes_sent += p->stats().votes_sent;
  }
  outcome.network_frames = network.stats().sent;
  return outcome;
}

class DriverDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DriverDifferential, InterpreterAndGeneratedCodeAgreeExactly) {
  const std::uint64_t seed = GetParam();
  MachineCache cache;
  const fsm::StateMachine& machine = cache.machine_for(4);
  const std::shared_ptr<const CommitTable> table =
      CommitTable::for_machine(machine);
  const ExecutorFactory runtime = [&] {
    return std::make_unique<RuntimeExecutor>(table);
  };
  const ExecutorFactory interpreter = [&] {
    return std::make_unique<InterpreterOracle>(machine);
  };
  const ExecutorFactory generated = [] {
    return std::make_unique<GeneratedR4Oracle>();
  };
  std::vector<std::vector<fsm::MessageId>> walks = random_walks(seed, 200, 24);
  for (const auto& path : commit_paths(4)) walks.push_back(path);
  for (std::size_t w = 0; w < walks.size(); ++w) {
    const std::string label = "seed " + std::to_string(seed) + ", walk " +
                              std::to_string(w);
    expect_conforms(runtime, interpreter, walks[w], label + " (interpreter)");
    expect_conforms(runtime, generated, walks[w], label + " (generated r4)");
  }

  // The runtime itself, end to end: every client commits, every peer
  // records the same order, and a rerun of the seed is identical.
  for (int clients : {1, 3}) {
    const Outcome first = run_scenario(seed, clients);
    EXPECT_EQ(first.committed, clients);
    for (const auto& h : first.histories) {
      EXPECT_EQ(h, first.histories.front()) << "seed " << seed;
    }
    EXPECT_TRUE(first == run_scenario(seed, clients))
        << "seed " << seed << ", " << clients << " client(s): rerun diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DriverDifferential,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

TEST(GeneratedR4Driver, StandaloneCommitPath) {
  GeneratedR4Oracle driver;
  EXPECT_FALSE(driver.finished());
  EXPECT_EQ(driver.deliver(kUpdate),
            (fsm::ActionList{"vote", "not_free"}));
  EXPECT_TRUE(driver.deliver(kVote).empty());
  EXPECT_EQ(driver.deliver(kVote), (fsm::ActionList{"commit"}));
  EXPECT_TRUE(driver.deliver(kCommit).empty());
  EXPECT_EQ(driver.deliver(kCommit), (fsm::ActionList{"free"}));
  EXPECT_TRUE(driver.finished());
  // Absorbing afterwards.
  EXPECT_TRUE(driver.deliver(kVote).empty());

  // The runtime executor walks the same path step for step.
  MachineCache cache;
  const auto table = CommitTable::for_machine(cache.machine_for(4));
  expect_conforms([&] { return std::make_unique<RuntimeExecutor>(table); },
                  [] { return std::make_unique<GeneratedR4Oracle>(); },
                  {kUpdate, kVote, kVote, kCommit, kCommit, kVote},
                  "commit path");
}

TEST(DynamicallyLoadedDriver, DlopenedMachineMatchesRuntimeExecutor) {
  // The full section 4.3 loop: render source for r=4, compile it to a
  // shared object, mint machines from the loaded factory symbol, and hold
  // the runtime executor to them on the commit paths and random walks.
  MachineCache cache;
  const fsm::StateMachine& machine = cache.machine_for(4);
  fsm::CodeGenOptions options;
  options.class_name = "DynCommit";
  options.base_class = "asa_repro::fsm::DynamicFsmBase";
  options.action_style = fsm::CodeGenOptions::ActionStyle::kSink;
  options.implement_api = true;
  options.emit_factory = true;
  options.includes = {"core/generated_api.hpp"};
  const std::string source = fsm::CodeRenderer(options).render(machine);

  fsm::DynamicCompiler::Options copts;
  copts.include_dir = ASA_SRC_DIR;
  fsm::DynamicCompiler compiler(copts);
  if (!compiler.available()) GTEST_SKIP() << "no compiler on host";
  fsm::DynamicCompiler::Result loaded = compiler.compile_and_load(source);
  ASSERT_TRUE(loaded.fsm.has_value()) << loaded.error;

  const auto table = CommitTable::for_machine(machine);
  std::vector<std::vector<fsm::MessageId>> walks = random_walks(6, 200, 24);
  for (const auto& path : commit_paths(4)) walks.push_back(path);
  for (std::size_t w = 0; w < walks.size(); ++w) {
    expect_conforms(
        [&] { return std::make_unique<RuntimeExecutor>(table); },
        [&] {
          return std::make_unique<GeneratedApiOracle>(
              loaded.fsm->create_instance());
        },
        walks[w], "dlopen walk " + std::to_string(w));
  }
}

TEST(RuntimeExecutor, MatchesMachineSemantics) {
  MachineCache cache;
  RuntimeExecutor executor(CommitTable::for_machine(cache.machine_for(4)));
  EXPECT_EQ(executor.deliver(kUpdate), (fsm::ActionList{"vote", "not_free"}));
  EXPECT_FALSE(executor.finished());
  // Inapplicable: empty.
  EXPECT_TRUE(executor.deliver(kUpdate).empty());

  // Across family members beyond the checked-in artefact's r=4, the
  // runtime matches the interpreter on the commit paths and random walks,
  // and every action id decodes to the PeerAction its name denotes.
  for (std::uint32_t r : {4u, 5u, 7u, 10u}) {
    const fsm::StateMachine& machine = cache.machine_for(r);
    const auto table = CommitTable::for_machine(machine);
    const std::vector<std::string>& names = table->machine().action_names();
    for (std::size_t id = 0; id < names.size(); ++id) {
      const PeerAction want = names[id] == kActionVote     ? PeerAction::kVote
                              : names[id] == kActionCommit ? PeerAction::kCommit
                              : names[id] == kActionFree   ? PeerAction::kFree
                              : names[id] == kActionNotFree
                                  ? PeerAction::kNotFree
                                  : PeerAction::kNone;
      EXPECT_EQ(table->action(static_cast<std::uint16_t>(id)), want)
          << names[id];
    }
    std::vector<std::vector<fsm::MessageId>> walks =
        random_walks(r, 100, 6 * r);
    for (const auto& path : commit_paths(r)) walks.push_back(path);
    for (std::size_t w = 0; w < walks.size(); ++w) {
      expect_conforms(
          [&] { return std::make_unique<RuntimeExecutor>(table); },
          [&] { return std::make_unique<InterpreterOracle>(machine); },
          walks[w], "r=" + std::to_string(r) + " walk " + std::to_string(w));
    }
  }
}

TEST(RuntimeExecutor, CacheCompilesOneSharedTable) {
  // Peers over a cached machine share the table compiled beside it; a
  // machine from elsewhere gets a private compile per request.
  MachineCache cache;
  const fsm::StateMachine& cached = cache.machine_for(4);
  EXPECT_EQ(CommitTable::for_machine(cached),
            CommitTable::for_machine(cached));
  const fsm::StateMachine own = CommitModel(4).generate_state_machine();
  EXPECT_NE(CommitTable::for_machine(own), CommitTable::for_machine(own));
}

TEST(RuntimeExecutor, PeerSetCommitsEndToEnd) {
  // One update through an r=4 peer set running the runtime executor.
  MachineCache cache;
  const fsm::StateMachine& machine = cache.machine_for(4);
  sim::Scheduler sched;
  sim::Network network(sched, sim::Rng(6), sim::LatencyModel{500, 2'000});
  std::vector<sim::NodeAddr> addrs{0, 1, 2, 3};
  std::vector<std::unique_ptr<CommitPeer>> peers;
  for (sim::NodeAddr a : addrs) {
    peers.push_back(std::make_unique<CommitPeer>(network, a, addrs, machine));
  }
  const WireMessage update{WireMessage::Kind::kUpdate, 3, 500, 500, 42};
  for (sim::NodeAddr a : addrs) network.send(99, a, update.serialize());
  sched.run();
  for (const auto& p : peers) {
    ASSERT_EQ(p->history(3).size(), 1u);
    EXPECT_EQ(p->history(3)[0].payload, 42u);
    EXPECT_EQ(p->live_instances(3), 0u);
  }
}

}  // namespace
}  // namespace asa_repro::commit
