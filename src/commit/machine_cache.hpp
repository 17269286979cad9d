// Generation-policy support (paper section 4.2) for the commit protocol.
//
// One immutable StateMachine per replication factor, generated on first use
// and shared by every peer instance thereafter. This is a thin
// model-specific wrapper over the generic fsm::MachineCache, which adds the
// (model id, parameter, code version) key and optional on-disk persistence
// of the XML artefact; constructing with a directory makes repeated
// deployments of the same family member O(1) across processes. Beside each
// machine it keeps the runtime's compiled executor table (CommitTable),
// compiled once and published for every peer constructed over the machine.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <utility>

#include "check/structural.hpp"
#include "commit/commit_model.hpp"
#include "commit/commit_table.hpp"
#include "core/machine_cache.hpp"

namespace asa_repro::commit {

class MachineCache {
 public:
  /// Memory-only cache (one generation per factor per process).
  MachineCache() = default;

  /// Cache persisted under `directory`; see fsm::MachineCache. Disk entries
  /// are structurally linted on load (check/structural.hpp): a cached XML
  /// artefact that parses but fails the lints — e.g. hand-edited into an
  /// unreachable-state or nondeterministic shape — is discarded and the
  /// machine regenerated, exactly like a parse failure.
  explicit MachineCache(std::filesystem::path directory)
      : cache_(std::move(directory)) {
    cache_.set_validator(check::structural_validator());
  }

  /// The merged commit FSM for replication factor `r`, generating it on
  /// first request (with `jobs` generation lanes; 1 = serial, 0 = hardware
  /// concurrency — the artefact is identical either way). The returned
  /// reference is stable for the cache's lifetime.
  const fsm::StateMachine& machine_for(std::uint32_t r, unsigned jobs = 1) {
    const fsm::StateMachine& machine =
        cache_.machine_for("commit", r, [r, jobs] {
          fsm::GenerationOptions options;
          options.jobs = jobs;
          return CommitModel(r).generate_state_machine(options);
        });
    if (published_.emplace(r, &machine).second) {
      CommitTable::publish(machine,
                           std::make_shared<const CommitTable>(machine));
    }
    return machine;
  }

  MachineCache(const MachineCache&) = delete;
  MachineCache& operator=(const MachineCache&) = delete;

  /// Withdraws the published tables before the machines die.
  ~MachineCache() {
    for (const auto& [r, machine] : published_) {
      CommitTable::withdraw(*machine);
    }
  }

  [[nodiscard]] std::size_t size() const { return cache_.size(); }
  [[nodiscard]] bool contains(std::uint32_t r) const {
    return cache_.contains("commit", r);
  }
  [[nodiscard]] const fsm::MachineCacheStats& stats() const {
    return cache_.stats();
  }

 private:
  fsm::MachineCache cache_;
  std::map<std::uint32_t, const fsm::StateMachine*> published_;
};

}  // namespace asa_repro::commit
