#include "commit/commit_table.hpp"

#include <mutex>
#include <string_view>
#include <unordered_map>

#include "commit/commit_model.hpp"

namespace asa_repro::commit {

namespace {

PeerAction decode(std::string_view name) {
  if (name == kActionVote) return PeerAction::kVote;
  if (name == kActionCommit) return PeerAction::kCommit;
  if (name == kActionFree) return PeerAction::kFree;
  if (name == kActionNotFree) return PeerAction::kNotFree;
  return PeerAction::kNone;
}

/// Tables published by live machine caches, keyed by machine address. A
/// cache withdraws its entries before its machines die, so a key never
/// outlives the machine it names.
struct Published {
  std::mutex mutex;
  std::unordered_map<const fsm::StateMachine*,
                     std::shared_ptr<const CommitTable>>
      tables;
};

/// Never destroyed: caches with static storage withdraw their tables
/// during static destruction, in no fixed order relative to this.
Published& published() {
  static auto* const instance = new Published;
  return *instance;
}

}  // namespace

CommitTable::CommitTable(const fsm::StateMachine& machine)
    : compiled_(fsm::CompiledMachine::compile(machine)) {
  actions_.reserve(compiled_.action_names().size());
  for (const std::string& name : compiled_.action_names()) {
    actions_.push_back(decode(name));
  }
}

std::shared_ptr<const CommitTable> CommitTable::for_machine(
    const fsm::StateMachine& machine) {
  {
    Published& p = published();
    const std::lock_guard lock(p.mutex);
    const auto it = p.tables.find(&machine);
    if (it != p.tables.end()) return it->second;
  }
  return std::make_shared<const CommitTable>(machine);
}

void CommitTable::publish(const fsm::StateMachine& machine,
                          std::shared_ptr<const CommitTable> table) {
  Published& p = published();
  const std::lock_guard lock(p.mutex);
  p.tables[&machine] = std::move(table);
}

void CommitTable::withdraw(const fsm::StateMachine& machine) {
  Published& p = published();
  const std::lock_guard lock(p.mutex);
  p.tables.erase(&machine);
}

}  // namespace asa_repro::commit
