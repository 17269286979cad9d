#include "durable/journal.hpp"

#include "durable/crc32.hpp"

namespace asa_repro::durable {

void put_u32(std::string& out, std::uint32_t value) {
  char bytes[4];
  store_u32(bytes, value);
  out.append(bytes, sizeof bytes);
}

void put_u64(std::string& out, std::uint64_t value) {
  char bytes[8];
  store_u64(bytes, value);
  out.append(bytes, sizeof bytes);
}

std::uint32_t get_u32(std::string_view bytes, std::size_t offset) {
  if (offset + 4 > bytes.size()) return 0;
  return load_u32(bytes.data() + offset);
}

std::uint64_t get_u64(std::string_view bytes, std::size_t offset) {
  if (offset + 8 > bytes.size()) return 0;
  return load_u64(bytes.data() + offset);
}

void write_frame_header(char* out, RecordType type,
                        std::uint32_t payload_size, std::uint32_t payload_crc) {
  out[0] = kJournalMagic;
  out[1] = static_cast<char>(type);
  store_u32(out + 2, payload_size);
  store_u32(out + 6, payload_crc);
  store_u32(out + 10, crc32(std::string_view(out, 10)));
}

std::string encode_frame(RecordType type, std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  frame.resize(kFrameHeaderSize);
  write_frame_header(frame.data(), type,
                     static_cast<std::uint32_t>(payload.size()),
                     crc32(payload));
  frame.append(payload);
  return frame;
}

ScanResult scan_journal(std::string_view bytes) {
  ScanResult result;
  std::size_t offset = 0;
  bool in_gap = false;  // Scanning byte-wise for the next valid header.
  while (offset + kFrameHeaderSize <= bytes.size()) {
    const std::string_view header = bytes.substr(offset, kFrameHeaderSize);
    const bool header_ok =
        header[0] == kJournalMagic &&
        get_u32(header, 10) == crc32(header.substr(0, 10));
    const std::uint32_t len = get_u32(header, 2);
    if (!header_ok || offset + kFrameHeaderSize + len > bytes.size()) {
      // Untrustworthy frame boundary: resynchronise by scanning forward
      // for the next valid header (the header CRC makes a false match
      // vanishingly unlikely). If none exists this is the torn tail and
      // the loop ends with the remainder counted as truncated.
      in_gap = true;
      ++offset;
      continue;
    }
    if (in_gap) {
      // A corrupt region bounded by valid frames: one record lost to
      // header bit-rot, not a tear — later records are intact.
      ++result.skipped_crc;
      in_gap = false;
    }
    const std::string_view payload =
        bytes.substr(offset + kFrameHeaderSize, len);
    if (crc32(payload) == get_u32(header, 6)) {
      result.records.push_back(JournalRecord{
          static_cast<RecordType>(static_cast<std::uint8_t>(header[1])),
          std::string(payload)});
    } else {
      ++result.skipped_crc;  // Isolated payload bit-rot: skip one record.
    }
    offset += kFrameHeaderSize + len;
    result.valid_size = offset;
  }
  result.truncated_bytes = bytes.size() - result.valid_size;
  return result;
}

}  // namespace asa_repro::durable
