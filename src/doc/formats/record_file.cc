#include "doc/formats/record_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace fieldswap {
namespace doc {
namespace formats {

namespace {

// Header field offsets (bytes). Fixed-size header with room to grow
// (kRecordHeaderSize = 64; unused tail bytes are zero).
constexpr size_t kOffMagic = 0;
constexpr size_t kOffVersion = 4;
constexpr size_t kOffFileSize = 8;
constexpr size_t kOffChecksum = 16;
constexpr size_t kOffRecordCount = 24;
constexpr size_t kOffIndexOffset = 32;
constexpr size_t kOffIndexSize = 40;
constexpr size_t kOffRecordsOffset = 48;
constexpr size_t kOffRecordsSize = 56;

constexpr size_t kChecksumChunk = 1 << 20;  // streaming-verify buffer

void PutU32(uint8_t* buf, size_t offset, uint32_t v) {
  std::memcpy(buf + offset, &v, sizeof(v));
}

void PutU64(uint8_t* buf, size_t offset, uint64_t v) {
  std::memcpy(buf + offset, &v, sizeof(v));
}

/// Full pread (retries short reads). False on error or EOF-short result.
bool PreadAll(int fd, void* out, size_t size, uint64_t offset) {
  uint8_t* dst = static_cast<uint8_t*>(out);
  while (size > 0) {
    ssize_t n = pread(fd, dst, size, static_cast<off_t>(offset));
    if (n <= 0) return false;
    dst += n;
    size -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
  return true;
}

bool FailOpen(std::string* error, const std::string& reason) {
  if (error != nullptr) *error = reason;
  return false;
}

}  // namespace

// ------------------------------------------------------------- writer --

std::unique_ptr<RecordFileWriter> RecordFileWriter::Create(
    const std::string& path, std::string* error) {
  std::string tmp = path + ".tmp";
  int fd = open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    FailOpen(error, "cannot open " + tmp + " for writing");
    return nullptr;
  }
  std::unique_ptr<RecordFileWriter> writer(
      new RecordFileWriter(path, std::move(tmp), fd));
  // Reserve the header region; it is patched in Finish() once the sizes
  // and checksum are known.
  uint8_t zeros[kRecordHeaderSize] = {0};
  writer->cursor_ = 0;
  if (!writer->WriteRaw(zeros, sizeof(zeros))) {
    if (error != nullptr) *error = writer->error_;
    return nullptr;
  }
  return writer;
}

RecordFileWriter::~RecordFileWriter() {
  if (fd_ >= 0) close(fd_);
  if (!finished_) std::remove(tmp_path_.c_str());
}

bool RecordFileWriter::Fail(const std::string& reason) {
  if (error_.empty()) error_ = reason;
  return false;
}

bool RecordFileWriter::WriteRaw(const void* data, size_t size) {
  const uint8_t* src = static_cast<const uint8_t*>(data);
  uint64_t offset = cursor_;
  size_t remaining = size;
  while (remaining > 0) {
    ssize_t n = pwrite(fd_, src, remaining, static_cast<off_t>(offset));
    if (n <= 0) return Fail("short write to " + tmp_path_);
    src += n;
    remaining -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
  cursor_ += size;
  return true;
}

bool RecordFileWriter::Append(std::string_view payload) {
  if (!error_.empty()) return false;
  if (finished_) return Fail("Append after Finish on " + path_);
  if (payload.size() > UINT32_MAX) {
    return Fail("record too large for the u32 length prefix");
  }
  const uint32_t len = static_cast<uint32_t>(payload.size());
  offsets_.push_back(cursor_);
  uint8_t prefix[sizeof(len)];
  std::memcpy(prefix, &len, sizeof(len));
  if (!WriteRaw(prefix, sizeof(prefix))) return false;
  if (!payload.empty() && !WriteRaw(payload.data(), payload.size())) {
    return false;
  }
  checksum_ = Fnv1a64(prefix, sizeof(prefix), checksum_);
  checksum_ = Fnv1a64(payload.data(), payload.size(), checksum_);
  return true;
}

bool RecordFileWriter::Finish() {
  if (finished_) return error_.empty();
  if (!error_.empty()) return false;

  const uint64_t index_offset = cursor_;
  const uint64_t records_size = index_offset - kRecordHeaderSize;
  const uint64_t index_size = offsets_.size() * sizeof(uint64_t);
  if (!offsets_.empty()) {
    const uint8_t* index_bytes =
        reinterpret_cast<const uint8_t*>(offsets_.data());
    if (!WriteRaw(index_bytes, index_size)) return false;
    checksum_ = Fnv1a64(index_bytes, index_size, checksum_);
  }

  uint8_t header[kRecordHeaderSize] = {0};
  PutU32(header, kOffMagic, kRecordMagic);
  PutU32(header, kOffVersion, kRecordFormatVersion);
  PutU64(header, kOffFileSize, cursor_);
  PutU64(header, kOffChecksum, checksum_);
  PutU64(header, kOffRecordCount, offsets_.size());
  PutU64(header, kOffIndexOffset, index_offset);
  PutU64(header, kOffIndexSize, index_size);
  PutU64(header, kOffRecordsOffset, kRecordHeaderSize);
  PutU64(header, kOffRecordsSize, records_size);
  const uint64_t end_cursor = cursor_;
  cursor_ = 0;
  bool ok = WriteRaw(header, sizeof(header));
  cursor_ = end_cursor;
  if (!ok) return false;

  if (fsync(fd_) != 0) return Fail("fsync failed for " + tmp_path_);
  close(fd_);
  fd_ = -1;
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path_.c_str());
    return Fail("cannot rename " + tmp_path_ + " into place");
  }
  finished_ = true;
  return true;
}

// ------------------------------------------------------------- reader --

RecordFileReader::~RecordFileReader() {
  if (fd_ >= 0) close(fd_);
}

uint64_t RecordFileReader::payload_length(size_t i) const {
  const uint64_t next =
      i + 1 < offsets_.size() ? offsets_[i + 1] : index_offset_;
  return next - offsets_[i] - sizeof(uint32_t);
}

std::unique_ptr<RecordFileReader> RecordFileReader::Open(
    const std::string& path, std::string* error) {
  auto fail = [error](const std::string& reason) {
    if (error != nullptr) *error = reason;
    return nullptr;
  };

  int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return fail("cannot open " + path);
  std::unique_ptr<RecordFileReader> reader(new RecordFileReader(path, fd));

  struct stat st;
  if (fstat(fd, &st) != 0) return fail("cannot stat " + path);
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size < kRecordHeaderSize) {
    return fail(path + ": too small for a corpus header (" +
                std::to_string(size) + " bytes)");
  }

  uint8_t header[kRecordHeaderSize];
  if (!PreadAll(fd, header, sizeof(header), 0)) {
    return fail(path + ": cannot read header");
  }
  uint32_t magic = 0, version = 0;
  uint64_t file_size = 0, checksum = 0, record_count = 0, index_offset = 0,
           index_size = 0, records_offset = 0, records_size = 0;
  std::memcpy(&magic, header + kOffMagic, sizeof(magic));
  std::memcpy(&version, header + kOffVersion, sizeof(version));
  std::memcpy(&file_size, header + kOffFileSize, sizeof(file_size));
  std::memcpy(&checksum, header + kOffChecksum, sizeof(checksum));
  std::memcpy(&record_count, header + kOffRecordCount, sizeof(record_count));
  std::memcpy(&index_offset, header + kOffIndexOffset, sizeof(index_offset));
  std::memcpy(&index_size, header + kOffIndexSize, sizeof(index_size));
  std::memcpy(&records_offset, header + kOffRecordsOffset,
              sizeof(records_offset));
  std::memcpy(&records_size, header + kOffRecordsSize, sizeof(records_size));

  if (magic != kRecordMagic) {
    return fail(path + ": not a native corpus file (bad magic)");
  }
  if (version != kRecordFormatVersion) {
    return fail(path + ": corpus format version " + std::to_string(version) +
                " unsupported (reader knows " +
                std::to_string(kRecordFormatVersion) + ")");
  }
  if (file_size != size) {
    return fail(path + ": header claims " + std::to_string(file_size) +
                " bytes but the file has " + std::to_string(size));
  }
  if (records_offset != kRecordHeaderSize) {
    return fail(path + ": record region out of place");
  }
  // All u64 header fields are hostile until proven consistent; every
  // comparison is phrased to avoid overflow.
  if (index_offset < kRecordHeaderSize || index_offset > size ||
      index_size > size - index_offset ||
      index_offset + index_size != size) {
    return fail(path + ": index out of bounds");
  }
  if (record_count > index_size / sizeof(uint64_t) ||
      record_count * sizeof(uint64_t) != index_size) {
    return fail(path + ": index size disagrees with record count");
  }
  if (records_size != index_offset - kRecordHeaderSize) {
    return fail(path + ": record region size disagrees with index offset");
  }

  // One streaming pass verifies the body checksum; a corrupted byte
  // anywhere in records or index is caught here, before any record is
  // trusted.
  {
    std::vector<uint8_t> chunk(kChecksumChunk);
    uint64_t hash = kFnv1a64Basis;
    uint64_t pos = kRecordHeaderSize;
    while (pos < size) {
      const size_t want =
          static_cast<size_t>(std::min<uint64_t>(chunk.size(), size - pos));
      if (!PreadAll(fd, chunk.data(), want, pos)) {
        return fail(path + ": short read while verifying checksum");
      }
      hash = Fnv1a64(chunk.data(), want, hash);
      pos += want;
    }
    if (hash != checksum) {
      return fail(path + ": checksum mismatch (corrupted or torn file)");
    }
  }

  // Load and validate the index: offsets must be strictly increasing,
  // gap-free (each record starts where the previous one ended), and leave
  // room for every length prefix. With that established, record extents
  // derive from consecutive offsets and Read() needs no per-open scan of
  // the record bytes.
  reader->offsets_.resize(record_count);
  if (record_count > 0 &&
      !PreadAll(fd, reader->offsets_.data(), index_size, index_offset)) {
    return fail(path + ": cannot read index");
  }
  uint64_t expected = kRecordHeaderSize;
  for (uint64_t i = 0; i < record_count; ++i) {
    const uint64_t off = reader->offsets_[i];
    if (off != expected) {
      return fail(path + ": index entry " + std::to_string(i) +
                  " breaks the record chain");
    }
    const uint64_t next =
        i + 1 < record_count ? reader->offsets_[i + 1] : index_offset;
    if (next < off + sizeof(uint32_t) || next > index_offset) {
      return fail(path + ": index entry " + std::to_string(i) +
                  " out of bounds");
    }
    expected = next;
  }
  if (expected != index_offset) {
    return fail(path + ": record region has trailing bytes no index entry "
                       "covers");
  }

  reader->file_size_ = size;
  reader->checksum_ = checksum;
  reader->index_offset_ = index_offset;
  return reader;
}

bool RecordFileReader::Read(size_t i, std::string* payload,
                            std::string* error) const {
  if (i >= offsets_.size()) {
    return FailOpen(error, path_ + ": record index out of range");
  }
  const uint64_t off = offsets_[i];
  const uint64_t payload_len = payload_length(i);
  std::string buf(static_cast<size_t>(payload_len) + sizeof(uint32_t), '\0');
  if (!PreadAll(fd_, buf.data(), buf.size(), off)) {
    return FailOpen(error, path_ + ": short read at record " +
                               std::to_string(i));
  }
  uint32_t stored_len = 0;
  std::memcpy(&stored_len, buf.data(), sizeof(stored_len));
  if (stored_len != payload_len) {
    return FailOpen(error, path_ + ": record " + std::to_string(i) +
                               " length prefix disagrees with the index");
  }
  payload->assign(buf.data() + sizeof(uint32_t),
                  static_cast<size_t>(payload_len));
  return true;
}

}  // namespace formats
}  // namespace doc
}  // namespace fieldswap
