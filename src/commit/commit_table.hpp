// The commit runtime's executor table (paper section 4.3: the generated
// machine is the deployed implementation).
//
// Every peer-set member runs its machine instances as fsm::CompiledInstance
// over one shared, immutable fsm::CompiledMachine — a dense [state][event]
// dispatch table with 16-bit action ids. CommitTable pairs that table with
// the ids decoded once into PeerAction, so a delivery costs one table load
// and a switch, with no string compare and no allocation.
//
// commit::MachineCache compiles the table once per machine, beside the
// StateMachine it caches, and publishes it here; a peer finds it through
// for_machine(). A machine that did not come from a live cache (a test's or
// a checker's own) is compiled privately for the asking peer.
//
// The interpreter, the checked-in generated switch code and dlopen-loaded
// generated code are not runtime options: they are the conformance oracles
// the test suite holds this executor to (tests/test_driver.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/compiled_machine.hpp"
#include "core/state_machine.hpp"

namespace asa_repro::commit {

/// A commit-machine action as the peer executes it. Action names outside
/// the commit vocabulary decode to kNone and are ignored.
enum class PeerAction : std::uint8_t { kNone, kVote, kCommit, kFree, kNotFree };

class CommitTable {
 public:
  /// Compile `machine` (throws std::invalid_argument as
  /// fsm::CompiledMachine::compile does).
  explicit CommitTable(const fsm::StateMachine& machine);

  [[nodiscard]] const fsm::CompiledMachine& machine() const {
    return compiled_;
  }
  [[nodiscard]] PeerAction action(std::uint16_t id) const {
    return actions_[id];
  }

  /// The table published for `machine` by a live commit::MachineCache, or
  /// else a freshly compiled one owned by the caller.
  [[nodiscard]] static std::shared_ptr<const CommitTable> for_machine(
      const fsm::StateMachine& machine);

  /// Make `table` the one for_machine() returns for `machine`, until
  /// withdrawn. The publisher guarantees `machine` lives until then.
  static void publish(const fsm::StateMachine& machine,
                      std::shared_ptr<const CommitTable> table);
  static void withdraw(const fsm::StateMachine& machine);

 private:
  fsm::CompiledMachine compiled_;
  std::vector<PeerAction> actions_;  // By action id.
};

}  // namespace asa_repro::commit
