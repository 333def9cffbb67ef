#ifndef FIELDSWAP_DOC_FORMATS_RECORD_FILE_H_
#define FIELDSWAP_DOC_FORMATS_RECORD_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/hash.h"

namespace fieldswap {
namespace doc {
namespace formats {

/// The native corpus container (ISSUE 10): a length-prefixed record file
/// with an FNV-checksummed body and a random-access offset index, built on
/// the same hostile-input discipline as serve/flat — every offset and size
/// is validated before use, so a truncated or bit-flipped file yields a
/// clean error, never UB (tests/corpus_test.cc holds this under
/// ASan/UBSan). This layer stores opaque byte records; the Document codec
/// lives one layer up in doc/corpus.{h,cc}.
///
/// Layout (all integers little-endian, the only byte order this repo
/// targets):
///
///   [0]  u32 magic            'FSCR' (0x52435346)
///   [4]  u32 format_version   1 — readers reject versions they don't know
///   [8]  u64 file_size        total bytes; must equal the on-disk size
///   [16] u64 checksum         FNV-1a over bytes [kRecordHeaderSize, size)
///   [24] u64 record_count
///   [32] u64 index_offset     record_count x u64 absolute record offsets
///   [40] u64 index_size       bytes (== record_count * 8)
///   [48] u64 records_offset   first record byte (== kRecordHeaderSize)
///   [56] u64 records_size     bytes of the record region
///
/// Records are packed back to back: [u32 payload_len][payload bytes]. The
/// index makes random access O(1) and lets the reader derive every
/// record's extent from consecutive offsets without touching the record
/// bytes at open.
///
/// Writes are streaming and atomic: records go to a temp sibling as they
/// arrive (the checksum accumulates incrementally, only the 8-byte-per-
/// record index is buffered in memory), then Finish() appends the index,
/// patches the header, and renames the temp into place — a concurrent
/// reader opens either the old complete file or the new one, never a torn
/// write.

inline constexpr uint32_t kRecordMagic = 0x52435346;  // 'FSCR'
inline constexpr uint32_t kRecordFormatVersion = 1;
inline constexpr size_t kRecordHeaderSize = 64;

/// Streams records into `<path>.tmp`; Finish() lands the file atomically.
class RecordFileWriter {
 public:
  /// Opens the temp sibling for writing. Null with the reason in `*error`
  /// on I/O failure.
  static std::unique_ptr<RecordFileWriter> Create(const std::string& path,
                                                  std::string* error);

  /// Removes the temp file if Finish() was never reached.
  ~RecordFileWriter();
  RecordFileWriter(const RecordFileWriter&) = delete;
  RecordFileWriter& operator=(const RecordFileWriter&) = delete;

  /// Appends one record. False on I/O failure (reason in error()); further
  /// calls after a failure are no-ops.
  bool Append(std::string_view payload);

  /// Writes index + header and renames the temp into place. Idempotent;
  /// false on failure with the reason in error().
  bool Finish();

  const std::string& error() const { return error_; }
  uint64_t record_count() const { return offsets_.size(); }

  /// Bytes of the record region written so far (header/index excluded).
  uint64_t payload_bytes_written() const { return cursor_ - kRecordHeaderSize; }

 private:
  RecordFileWriter(std::string path, std::string tmp_path, int fd)
      : path_(std::move(path)), tmp_path_(std::move(tmp_path)), fd_(fd) {}

  bool WriteRaw(const void* data, size_t size);
  bool Fail(const std::string& reason);

  std::string path_;
  std::string tmp_path_;
  int fd_ = -1;
  uint64_t cursor_ = kRecordHeaderSize;  // next write position
  uint64_t checksum_ = kFnv1a64Basis;
  std::vector<uint64_t> offsets_;
  std::string error_;
  bool finished_ = false;
};

/// Random-access reader. Open() validates the header, the body checksum
/// (one streaming pass), and the full index (monotone, in-bounds,
/// gap-free); Read() is stateless pread, safe to call concurrently from
/// the parallel pool.
class RecordFileReader {
 public:
  /// Null with the reason in `*error` on any validation failure.
  static std::unique_ptr<RecordFileReader> Open(const std::string& path,
                                                std::string* error);

  ~RecordFileReader();
  RecordFileReader(const RecordFileReader&) = delete;
  RecordFileReader& operator=(const RecordFileReader&) = delete;

  size_t size() const { return offsets_.size(); }
  uint64_t file_size() const { return file_size_; }
  uint64_t checksum() const { return checksum_; }
  uint64_t index_offset() const { return index_offset_; }

  /// Absolute offset / payload length of record `i` (i < size()).
  uint64_t offset(size_t i) const { return offsets_[i]; }
  uint64_t payload_length(size_t i) const;

  /// Reads record `i` into `*payload`. False with the reason in `*error`
  /// when the stored length prefix disagrees with the index or the pread
  /// fails. Thread-safe.
  bool Read(size_t i, std::string* payload, std::string* error) const;

 private:
  RecordFileReader(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
  uint64_t file_size_ = 0;
  uint64_t checksum_ = 0;
  uint64_t index_offset_ = 0;
  std::vector<uint64_t> offsets_;
};

}  // namespace formats
}  // namespace doc
}  // namespace fieldswap

#endif  // FIELDSWAP_DOC_FORMATS_RECORD_FILE_H_
