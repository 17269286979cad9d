// A node's durable commit state: write-ahead journal + periodic snapshot.
//
// Write-ahead discipline (the contract with commit::CommitPeer):
//
//   journal append succeeds  →  in-memory history append  →  ack sent
//
// A commit whose journal append fails is neither recorded nor
// acknowledged — the client's retry (same request id) drives a fresh
// attempt. So every *acknowledged* commit is on the medium before any
// client learns of it, which is exactly what makes crash recovery by
// replay sound.
//
// Record payloads (framed by journal.hpp; integers little-endian):
//
//   kCommit      guid u64, update_id u64, request_id u64, payload u64
//   kImport      guid u64, count u32, count × (update u64, request u64,
//                payload u64) — the node's COMPLETE post-adoption history
//                for the GUID; replay replaces, not merges, so a
//                reconciliation that reorders history stays authoritative
//                across the next crash.
//   kMembership  joined u8, node id u64
//
// Replay applies records in journal order, deduplicating commits by
// update id per GUID — a journal that survived a failed post-snapshot
// truncate replays over the snapshot without double-applying.
//
// Snapshots: every `snapshot_every` commit records the full per-GUID
// image is atomically written to the snapshot file (as kImport frames)
// and the journal truncated to zero. A failed snapshot write keeps the
// journal; a corrupt snapshot at recovery is flagged and its intact
// frames still applied.
//
// Write cost: a commit encodes its 46-byte frame on the stack and finds
// its GUID once in the image (dedupe scans that GUID's history). It
// allocates only the image entry of a new GUID and the growth of the
// history vector. A snapshot
// costs O(changed) encoding plus one copy of the image's bytes: commits
// and imports mark their GUID dirty, the snapshot encodes and checksums
// only the dirty GUIDs and copies every other frame, in runs, from the
// previous encoded snapshot kept in memory. recover(), and more dirty
// marks than GUIDs, make the next snapshot encode every GUID.
//
// Sync watermark: commit records are acknowledged, so they are "synced" —
// the watermark advances past them and a partial flush (kFlushDrop chaos
// fault) can never cut into them. Import/membership records written since
// the last commit form the unsynced tail; drop_unsynced_tail removes
// whole trailing records from that tail only, modelling un-fsynced page
// cache loss without ever violating the write-ahead guarantee.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "durable/journal.hpp"
#include "durable/storage_medium.hpp"

namespace asa_repro::durable {

/// One committed history entry (mirrors commit::CommitPeer's view).
struct Entry {
  std::uint64_t update_id;
  std::uint64_t request_id;
  std::uint64_t payload;
};

using GuidHistories = std::map<std::uint64_t, std::vector<Entry>>;

/// What recovery found, for metrics / traces / test assertions.
struct RecoveryStats {
  bool snapshot_loaded = false;   // Snapshot file present with ≥1 frame.
  bool snapshot_corrupt = false;  // Snapshot had skipped/torn frames.
  std::uint64_t replayed_records = 0;   // Valid journal records applied.
  std::uint64_t skipped_crc = 0;        // Journal records dropped (bit-rot).
  std::uint64_t truncated_bytes = 0;    // Torn tail cut from the journal.
  std::uint64_t membership_records = 0;
  std::uint64_t entries_recovered = 0;  // History entries in the image.
  std::uint64_t reconciled = 0;  // Entries adopted from peers afterwards
                                 // (filled by the cluster, not recover()).
};

/// Writer-side accounting.
struct WriterStats {
  std::uint64_t commits_recorded = 0;
  std::uint64_t imports_recorded = 0;
  std::uint64_t membership_recorded = 0;
  std::uint64_t append_failures = 0;  // Refused/torn appends (no ack sent).
  std::uint64_t tail_repairs = 0;     // Pre-append torn-tail truncations.
  std::uint64_t snapshots_written = 0;
  std::uint64_t snapshot_failures = 0;
  std::uint64_t tail_records_dropped = 0;  // Via drop_unsynced_tail.
};

class DurableLog {
 public:
  /// `medium` must outlive the log. Files are "<name>.journal" and
  /// "<name>.snapshot". `snapshot_every` == 0 disables snapshots.
  DurableLog(StorageMedium& medium, std::string name,
             std::size_t snapshot_every);

  DurableLog(const DurableLog&) = delete;
  DurableLog& operator=(const DurableLog&) = delete;

  /// Write-ahead one acknowledged commit. True only when the record is
  /// durably framed on the medium; on false the caller MUST NOT record
  /// or acknowledge the commit.
  bool record_commit(std::uint64_t guid, std::uint64_t update_id,
                     std::uint64_t request_id, std::uint64_t payload);

  /// Journal the node's complete history for `guid` after a wholesale
  /// adoption (bootstrap import or peer reconciliation). Best-effort:
  /// a false return (stalled disk) only delays durability until the
  /// next recovery re-reconciles.
  bool record_import(std::uint64_t guid, const std::vector<Entry>& entries);

  /// Journal a ring membership change observed by this node.
  bool record_membership(bool joined, std::uint64_t node_id);

  /// Three-phase-local recovery: load + apply the snapshot, scan the
  /// journal (torn-tail truncation, CRC-skip), apply surviving records,
  /// then physically truncate the journal's torn tail so subsequent
  /// appends extend a well-framed prefix.
  RecoveryStats recover();

  /// Drop up to `max_records` whole records from the unsynced tail
  /// (partial flush / page-cache loss). Never cuts acknowledged commit
  /// records. Returns records dropped: 0 when the medium refuses the
  /// truncate, and the records stay droppable by a later call.
  std::size_t drop_unsynced_tail(std::size_t max_records);

  /// The journaled per-GUID history image (what replay reconstructed
  /// plus everything recorded since).
  [[nodiscard]] const GuidHistories& histories() const { return image_; }

  [[nodiscard]] const WriterStats& writer_stats() const { return writer_; }
  [[nodiscard]] std::size_t journal_size() const {
    return medium_.size(journal_file_);
  }
  [[nodiscard]] const std::string& journal_file() const {
    return journal_file_;
  }
  [[nodiscard]] const std::string& snapshot_file() const {
    return snapshot_file_;
  }

 private:
  /// A GUID whose history changed since the last snapshot was encoded.
  struct Dirty {
    std::uint64_t guid;
    const std::vector<Entry>* history;  // Its image entry (map nodes are
                                        // stable until recover()).
  };

  /// Repair any torn tail, then append one frame. Updates valid_size_.
  bool append_frame(std::string_view frame);
  void apply_commit(std::string_view payload);
  void apply_import(std::string_view payload);
  /// `history` (the image entry of `guid`) changed.
  void mark_dirty(std::uint64_t guid, const std::vector<Entry>& history);
  /// Re-encode snapshot_ for the current image: dirty GUIDs are encoded
  /// afresh, every other frame is copied from the previous snapshot_.
  void encode_snapshot();
  void maybe_snapshot();

  StorageMedium& medium_;
  std::string journal_file_;
  std::string snapshot_file_;
  std::size_t snapshot_every_;

  GuidHistories image_;

  std::string snapshot_;      // The last encoded snapshot.
  std::string scratch_;       // Import frames; the next snapshot.
  std::vector<Dirty> dirty_;  // Changed since snapshot_; may repeat.
  bool all_dirty_ = true;     // The next snapshot encodes every GUID.

  std::size_t valid_size_ = 0;        // Well-framed journal prefix length.
  std::size_t synced_watermark_ = 0;  // Journal size after last commit.
  std::vector<std::pair<std::size_t, std::size_t>>
      tail_records_;  // (offset, size) of records past the watermark.
  std::size_t commits_since_snapshot_ = 0;
  WriterStats writer_;
};

}  // namespace asa_repro::durable
