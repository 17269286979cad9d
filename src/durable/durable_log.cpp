#include "durable/durable_log.hpp"

#include <algorithm>

#include "durable/crc32.hpp"

namespace asa_repro::durable {

namespace {

constexpr std::size_t kCommitPayloadSize = 32;
constexpr std::size_t kImportHeadSize = 12;  // guid u64, count u32.
constexpr std::size_t kEntrySize = 24;

bool holds(const std::vector<Entry>& history, std::uint64_t update_id) {
  // Newest first: a duplicate is almost always a recent retry.
  return std::any_of(history.rbegin(), history.rend(),
                     [update_id](const Entry& e) {
                       return e.update_id == update_id;
                     });
}

/// Append `guid`'s kImport frame (its complete history) to `out`.
void append_import_frame(std::string& out, std::uint64_t guid,
                         const std::vector<Entry>& entries) {
  const std::size_t start = out.size();
  const std::size_t payload_size =
      kImportHeadSize + entries.size() * kEntrySize;
  out.resize(start + kFrameHeaderSize + payload_size);
  char* const frame = out.data() + start;
  char* p = frame + kFrameHeaderSize;
  store_u64(p, guid);
  store_u32(p + 8, static_cast<std::uint32_t>(entries.size()));
  p += kImportHeadSize;
  for (const Entry& e : entries) {
    store_u64(p, e.update_id);
    store_u64(p + 8, e.request_id);
    store_u64(p + 16, e.payload);
    p += kEntrySize;
  }
  write_frame_header(
      frame, RecordType::kImport, static_cast<std::uint32_t>(payload_size),
      crc32(std::string_view(frame + kFrameHeaderSize, payload_size)));
}

}  // namespace

DurableLog::DurableLog(StorageMedium& medium, std::string name,
                       std::size_t snapshot_every)
    : medium_(medium),
      journal_file_(name + ".journal"),
      snapshot_file_(name + ".snapshot"),
      snapshot_every_(snapshot_every) {}

bool DurableLog::append_frame(std::string_view frame) {
  // Self-repair: a previous torn append may have left garbage past the
  // last well-framed record. Appending after it would desynchronise the
  // frame stream, so cut back to the known-good prefix first.
  if (medium_.size(journal_file_) != valid_size_) {
    if (!medium_.truncate(journal_file_, valid_size_)) {
      ++writer_.append_failures;
      return false;
    }
    ++writer_.tail_repairs;
  }
  if (!medium_.append(journal_file_, frame)) {
    ++writer_.append_failures;
    return false;
  }
  valid_size_ += frame.size();
  return true;
}

void DurableLog::mark_dirty(std::uint64_t guid,
                            const std::vector<Entry>& history) {
  if (snapshot_every_ == 0 || all_dirty_) return;
  if (!dirty_.empty() && dirty_.back().guid == guid) return;
  if (dirty_.size() >= image_.size()) {
    // More marks than GUIDs: encode everything next time rather than let
    // the list outgrow the image.
    all_dirty_ = true;
    dirty_.clear();
    return;
  }
  dirty_.push_back(Dirty{guid, &history});
}

bool DurableLog::record_commit(std::uint64_t guid, std::uint64_t update_id,
                               std::uint64_t request_id,
                               std::uint64_t payload) {
  auto it = image_.lower_bound(guid);
  const bool known = it != image_.end() && it->first == guid;
  if (known && holds(it->second, update_id)) return true;  // Already durable.

  char frame[kFrameHeaderSize + kCommitPayloadSize];
  char* const body = frame + kFrameHeaderSize;
  store_u64(body, guid);
  store_u64(body + 8, update_id);
  store_u64(body + 16, request_id);
  store_u64(body + 24, payload);
  write_frame_header(frame, RecordType::kCommit, kCommitPayloadSize,
                     crc32(std::string_view(body, kCommitPayloadSize)));
  if (!append_frame(std::string_view(frame, sizeof frame))) return false;

  if (!known) it = image_.emplace_hint(it, guid, std::vector<Entry>{});
  it->second.push_back(Entry{update_id, request_id, payload});
  mark_dirty(guid, it->second);
  ++writer_.commits_recorded;
  // An acknowledged commit is synced: the partial-flush fault may never
  // drop it, and any earlier unsynced tail records are now covered too.
  synced_watermark_ = valid_size_;
  tail_records_.clear();
  ++commits_since_snapshot_;
  maybe_snapshot();
  return true;
}

bool DurableLog::record_import(std::uint64_t guid,
                               const std::vector<Entry>& entries) {
  scratch_.clear();
  append_import_frame(scratch_, guid, entries);
  const std::size_t offset = valid_size_;
  if (!append_frame(scratch_)) return false;
  tail_records_.emplace_back(offset, scratch_.size());
  std::vector<Entry>& history = image_[guid];
  history = entries;
  mark_dirty(guid, history);
  ++writer_.imports_recorded;
  return true;
}

bool DurableLog::record_membership(bool joined, std::uint64_t node_id) {
  std::string payload;
  payload.push_back(joined ? '\1' : '\0');
  put_u64(payload, node_id);
  const std::string frame = encode_frame(RecordType::kMembership, payload);
  const std::size_t offset = valid_size_;
  if (!append_frame(frame)) return false;
  tail_records_.emplace_back(offset, frame.size());
  ++writer_.membership_recorded;
  return true;
}

void DurableLog::apply_commit(std::string_view payload) {
  if (payload.size() < kCommitPayloadSize) return;
  const std::uint64_t guid = get_u64(payload, 0);
  const std::uint64_t update_id = get_u64(payload, 8);
  std::vector<Entry>& history = image_[guid];
  if (holds(history, update_id)) return;  // Snapshot overlap.
  history.push_back(
      Entry{update_id, get_u64(payload, 16), get_u64(payload, 24)});
}

void DurableLog::apply_import(std::string_view payload) {
  if (payload.size() < kImportHeadSize) return;
  const std::uint64_t guid = get_u64(payload, 0);
  const std::uint32_t count = get_u32(payload, 8);
  if (payload.size() <
      kImportHeadSize + static_cast<std::size_t>(count) * kEntrySize) {
    return;
  }
  // An import is the node's complete adopted history: replace, so a
  // reconciliation that reordered history stays authoritative.
  std::vector<Entry>& history = image_[guid];
  history.clear();
  history.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t base =
        kImportHeadSize + static_cast<std::size_t>(i) * kEntrySize;
    history.push_back(Entry{get_u64(payload, base),
                            get_u64(payload, base + 8),
                            get_u64(payload, base + 16)});
  }
}

RecoveryStats DurableLog::recover() {
  RecoveryStats stats;
  image_.clear();
  tail_records_.clear();
  // The image is rebuilt from the medium: the next snapshot encodes every
  // GUID.
  dirty_.clear();
  all_dirty_ = true;

  if (const auto snapshot = medium_.read(snapshot_file_);
      snapshot.has_value() && !snapshot->empty()) {
    const ScanResult scan = scan_journal(*snapshot);
    stats.snapshot_loaded = !scan.records.empty();
    stats.snapshot_corrupt =
        scan.skipped_crc > 0 || scan.truncated_bytes > 0;
    for (const JournalRecord& record : scan.records) {
      if (record.type == RecordType::kImport) apply_import(record.payload);
    }
  }

  const std::string journal = medium_.read(journal_file_).value_or("");
  const ScanResult scan = scan_journal(journal);
  stats.skipped_crc = scan.skipped_crc;
  stats.truncated_bytes = scan.truncated_bytes;
  for (const JournalRecord& record : scan.records) {
    switch (record.type) {
      case RecordType::kCommit:
        apply_commit(record.payload);
        break;
      case RecordType::kImport:
        apply_import(record.payload);
        break;
      case RecordType::kMembership:
        ++stats.membership_records;
        break;
    }
  }
  stats.replayed_records = scan.records.size();
  for (const auto& [guid, entries] : image_) {
    stats.entries_recovered += entries.size();
  }

  // Physically cut the torn tail so future appends extend a well-framed
  // prefix (best-effort: a stalled disk leaves the repair to append time).
  if (scan.truncated_bytes > 0) {
    medium_.truncate(journal_file_, scan.valid_size);
  }
  valid_size_ = scan.valid_size;
  synced_watermark_ = valid_size_;
  commits_since_snapshot_ = 0;
  return stats;
}

std::size_t DurableLog::drop_unsynced_tail(std::size_t max_records) {
  std::size_t dropped = 0;
  std::size_t new_size = valid_size_;
  for (auto it = tail_records_.rbegin();
       dropped < max_records && it != tail_records_.rend(); ++it) {
    const auto [offset, size] = *it;
    if (offset + size != new_size) break;  // Not the physical tail.
    new_size = offset;
    ++dropped;
  }
  // Forget the records only once the medium has cut them: a refused
  // truncate leaves them on the medium, where a later flush may still
  // lose them.
  if (dropped == 0 || !medium_.truncate(journal_file_, new_size)) return 0;
  tail_records_.resize(tail_records_.size() - dropped);
  valid_size_ = new_size;
  writer_.tail_records_dropped += dropped;
  return dropped;
}

void DurableLog::encode_snapshot() {
  scratch_.clear();
  if (all_dirty_) {
    for (const auto& [guid, entries] : image_) {
      append_import_frame(scratch_, guid, entries);
    }
  } else {
    // Merge the sorted dirty GUIDs into the previous snapshot's frames
    // (GUID-ascending, as encoded here): copy the unchanged runs between
    // them, and encode each dirty GUID in place of its old frame, or where
    // a new GUID belongs.
    std::sort(dirty_.begin(), dirty_.end(),
              [](const Dirty& a, const Dirty& b) { return a.guid < b.guid; });
    std::size_t grown = 0;
    for (const Dirty& d : dirty_) {
      grown += kFrameHeaderSize + kImportHeadSize +
               d.history->size() * kEntrySize;
    }
    scratch_.reserve(snapshot_.size() + grown);
    const char* const old = snapshot_.data();
    const auto guid_at = [old](std::size_t at) {
      return load_u64(old + at + kFrameHeaderSize);
    };
    const auto size_at = [old](std::size_t at) {
      return kFrameHeaderSize + load_u32(old + at + 2);
    };
    std::size_t at = 0;   // Next frame of snapshot_ not yet passed.
    std::size_t run = 0;  // Start of the run not yet copied.
    for (auto d = dirty_.cbegin(); d != dirty_.cend(); ++d) {
      if (d != dirty_.cbegin() && (d - 1)->guid == d->guid) continue;
      while (at < snapshot_.size() && guid_at(at) < d->guid) at += size_at(at);
      scratch_.append(snapshot_, run, at - run);
      if (at < snapshot_.size() && guid_at(at) == d->guid) at += size_at(at);
      run = at;
      append_import_frame(scratch_, d->guid, *d->history);
    }
    scratch_.append(snapshot_, run, snapshot_.size() - run);
  }
  snapshot_.swap(scratch_);
  // Free the previous bytes: one allocation per snapshot costs less than
  // keeping a second snapshot-sized buffer per node.
  std::string().swap(scratch_);
  dirty_.clear();
  all_dirty_ = false;
}

void DurableLog::maybe_snapshot() {
  if (snapshot_every_ == 0 || commits_since_snapshot_ < snapshot_every_) {
    return;
  }
  commits_since_snapshot_ = 0;
  // snapshot_ describes the image whether or not the write below
  // succeeds, so the next snapshot may copy from it either way.
  encode_snapshot();
  if (!medium_.replace(snapshot_file_, snapshot_)) {
    ++writer_.snapshot_failures;  // Journal still covers everything.
    return;
  }
  ++writer_.snapshots_written;
  // Replay dedupes by update id, so a failed truncate (journal replaying
  // over the snapshot) is safe — just larger.
  if (medium_.truncate(journal_file_, 0)) {
    valid_size_ = 0;
    synced_watermark_ = 0;
    tail_records_.clear();
  }
}

}  // namespace asa_repro::durable
