#include "serve/flat/format.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/hash.h"
#include "util/logging.h"

namespace fieldswap {
namespace serve {
namespace flat {

namespace {

// Header field offsets (bytes). The header is fixed-size with room to grow
// (kHeaderSize = 64; unused tail bytes are zero).
constexpr size_t kOffMagic = 0;
constexpr size_t kOffVersion = 4;
constexpr size_t kOffFileSize = 8;
constexpr size_t kOffChecksum = 16;
constexpr size_t kOffMetaOffset = 24;
constexpr size_t kOffMetaSize = 32;
constexpr size_t kOffDirOffset = 40;
constexpr size_t kOffDirCount = 48;
constexpr size_t kOffPayloadOffset = 56;

size_t AlignUp(size_t v, size_t align) {
  return (v + align - 1) / align * align;
}

void PutU32(std::string& buf, size_t offset, uint32_t v) {
  std::memcpy(buf.data() + offset, &v, sizeof(v));
}

void PutU64(std::string& buf, size_t offset, uint64_t v) {
  std::memcpy(buf.data() + offset, &v, sizeof(v));
}

void AppendU32(std::string& buf, uint32_t v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendU64(std::string& buf, uint64_t v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendF32(std::string& buf, float v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Bounds-checked reader over the mapped bytes: every Read* returns false
/// instead of touching memory past `size`, which is what makes a truncated
/// or hostile file a clean error rather than UB.
class Cursor {
 public:
  Cursor(const uint8_t* base, size_t size, size_t pos)
      : base_(base), size_(size), pos_(pos) {}

  bool ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadU64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadF32(float* v) { return ReadRaw(v, sizeof(*v)); }

  bool ReadString(size_t len, std::string* out) {
    if (len > size_ || pos_ > size_ - len) return false;
    out->assign(reinterpret_cast<const char*>(base_ + pos_), len);
    pos_ += len;
    return true;
  }

  size_t pos() const { return pos_; }

 private:
  bool ReadRaw(void* out, size_t len) {
    if (len > size_ || pos_ > size_ - len) return false;
    std::memcpy(out, base_ + pos_, len);
    pos_ += len;
    return true;
  }

  const uint8_t* base_;
  size_t size_;
  size_t pos_;
};

bool Fail(std::string* error, const std::string& reason) {
  if (error != nullptr) *error = reason;
  return false;
}

}  // namespace

size_t DTypeSize(DType dtype) {
  switch (dtype) {
    case DType::kF32:
      return sizeof(float);
    case DType::kI8:
      return sizeof(int8_t);
  }
  FS_CHECK(false) << "unknown dtype " << static_cast<uint32_t>(dtype);
  return 0;
}

void FlatWriter::AddF32(const std::string& name, const float* values,
                        int rows, int cols) {
  FS_CHECK(values != nullptr || rows * cols == 0);
  entries_.push_back({name, DType::kF32, rows, cols, 1.0f, values});
}

void FlatWriter::AddI8(const std::string& name, const int8_t* values,
                       int rows, int cols, float scale) {
  FS_CHECK(values != nullptr || rows * cols == 0);
  entries_.push_back({name, DType::kI8, rows, cols, scale, values});
}

bool FlatWriter::Write(const std::string& path, std::string* error) const {
  // Assemble the whole blob in memory (these models are tiny — a few MB at
  // most), then land it atomically: temp sibling + rename means a
  // concurrent reader maps either the old complete file or the new one,
  // never a torn write.
  std::string buf(kHeaderSize, '\0');

  const uint64_t meta_offset = buf.size();
  buf += metadata_;
  const uint64_t meta_size = metadata_.size();

  const uint64_t dir_offset = buf.size();
  // Payload offsets depend on directory size, which is itself variable, so
  // lay out the directory once with placeholder offsets, compute the
  // payload base, then write the real directory.
  size_t dir_bytes = 0;
  for (const Entry& e : entries_) {
    dir_bytes += sizeof(uint32_t) + e.name.size() +  // name
                 3 * sizeof(uint32_t) +              // dtype, rows, cols
                 sizeof(float) +                     // scale
                 2 * sizeof(uint64_t);               // offset, size
  }
  const uint64_t payload_base = AlignUp(dir_offset + dir_bytes, kPayloadAlign);

  std::string dir;
  dir.reserve(dir_bytes);
  std::vector<std::pair<uint64_t, uint64_t>> spans;  // offset, size
  uint64_t cursor = payload_base;
  for (const Entry& e : entries_) {
    const uint64_t bytes = static_cast<uint64_t>(e.rows) *
                           static_cast<uint64_t>(e.cols) *
                           DTypeSize(e.dtype);
    cursor = AlignUp(cursor, kPayloadAlign);
    spans.emplace_back(cursor, bytes);
    AppendU32(dir, static_cast<uint32_t>(e.name.size()));
    dir += e.name;
    AppendU32(dir, static_cast<uint32_t>(e.dtype));
    AppendU32(dir, static_cast<uint32_t>(e.rows));
    AppendU32(dir, static_cast<uint32_t>(e.cols));
    AppendF32(dir, e.scale);
    AppendU64(dir, cursor);
    AppendU64(dir, bytes);
    cursor += bytes;
  }
  FS_CHECK_EQ(dir.size(), dir_bytes);
  buf += dir;
  buf.resize(payload_base, '\0');
  for (size_t i = 0; i < entries_.size(); ++i) {
    buf.resize(spans[i].first, '\0');  // alignment padding
    buf.append(reinterpret_cast<const char*>(entries_[i].data),
               spans[i].second);
  }

  PutU32(buf, kOffMagic, kMagic);
  PutU32(buf, kOffVersion, kFormatVersion);
  PutU64(buf, kOffFileSize, buf.size());
  PutU64(buf, kOffMetaOffset, meta_offset);
  PutU64(buf, kOffMetaSize, meta_size);
  PutU64(buf, kOffDirOffset, dir_offset);
  PutU64(buf, kOffDirCount, entries_.size());
  PutU64(buf, kOffPayloadOffset, payload_base);
  PutU64(buf, kOffChecksum,
         Fnv1a64(buf.data() + kHeaderSize, buf.size() - kHeaderSize));

  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return Fail(error, "cannot open " + tmp + " for writing");
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (!os.good()) return Fail(error, "short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Fail(error, "cannot rename " + tmp + " into place");
  }
  return true;
}

FlatFile::~FlatFile() {
  if (base_ != nullptr) {
    munmap(const_cast<uint8_t*>(base_), size_);
  }
}

std::shared_ptr<const FlatFile> FlatFile::Map(const std::string& path,
                                              std::string* error,
                                              bool verify_checksum) {
  auto fail = [error](const std::string& reason) {
    if (error != nullptr) *error = reason;
    return nullptr;
  };

  const int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return fail("cannot open " + path);
  struct stat st;
  if (fstat(fd, &st) != 0) {
    close(fd);
    return fail("cannot stat " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size < kHeaderSize) {
    close(fd);
    return fail(path + ": too small for a flat header (" +
                std::to_string(size) + " bytes)");
  }
  // MAP_SHARED (not PRIVATE) so every process mapping this file shares one
  // set of physical pages; PROT_READ makes any stray write a fault instead
  // of silent corruption.
  void* mapping = mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  close(fd);  // the mapping keeps its own reference to the file
  if (mapping == MAP_FAILED) return fail("mmap failed for " + path);

  // From here the mapping must be released on every validation failure.
  std::shared_ptr<FlatFile> file(new FlatFile());
  file->base_ = static_cast<const uint8_t*>(mapping);
  file->size_ = size;
  const uint8_t* base = file->base_;

  uint32_t magic = 0, version = 0;
  uint64_t file_size = 0, checksum = 0, meta_offset = 0, meta_size = 0,
           dir_offset = 0, dir_count = 0, payload_offset = 0;
  std::memcpy(&magic, base + kOffMagic, sizeof(magic));
  std::memcpy(&version, base + kOffVersion, sizeof(version));
  std::memcpy(&file_size, base + kOffFileSize, sizeof(file_size));
  std::memcpy(&checksum, base + kOffChecksum, sizeof(checksum));
  std::memcpy(&meta_offset, base + kOffMetaOffset, sizeof(meta_offset));
  std::memcpy(&meta_size, base + kOffMetaSize, sizeof(meta_size));
  std::memcpy(&dir_offset, base + kOffDirOffset, sizeof(dir_offset));
  std::memcpy(&dir_count, base + kOffDirCount, sizeof(dir_count));
  std::memcpy(&payload_offset, base + kOffPayloadOffset,
              sizeof(payload_offset));

  if (magic != kMagic) return fail(path + ": not a flat snapshot (bad magic)");
  if (version != kFormatVersion) {
    return fail(path + ": flat format version " + std::to_string(version) +
                " unsupported (reader knows " +
                std::to_string(kFormatVersion) + ")");
  }
  if (file_size != size) {
    return fail(path + ": header claims " + std::to_string(file_size) +
                " bytes but the file has " + std::to_string(size));
  }
  if (verify_checksum &&
      Fnv1a64(base + kHeaderSize, size - kHeaderSize) != checksum) {
    return fail(path + ": checksum mismatch (corrupted or torn file)");
  }
  if (meta_size > size || meta_offset < kHeaderSize ||
      meta_offset > size - meta_size) {
    return fail(path + ": metadata out of bounds");
  }
  file->metadata_ = std::string_view(
      reinterpret_cast<const char*>(base + meta_offset), meta_size);

  if (dir_offset < kHeaderSize || dir_offset > size) {
    return fail(path + ": directory out of bounds");
  }
  Cursor cursor(base, size, dir_offset);
  file->tensors_.reserve(dir_count);
  for (uint64_t i = 0; i < dir_count; ++i) {
    FlatTensor t;
    uint32_t name_len = 0, dtype = 0, rows = 0, cols = 0;
    uint64_t offset = 0, bytes = 0;
    if (!cursor.ReadU32(&name_len) || !cursor.ReadString(name_len, &t.name) ||
        !cursor.ReadU32(&dtype) || !cursor.ReadU32(&rows) ||
        !cursor.ReadU32(&cols) || !cursor.ReadF32(&t.scale) ||
        !cursor.ReadU64(&offset) || !cursor.ReadU64(&bytes)) {
      return fail(path + ": truncated directory entry " + std::to_string(i));
    }
    if (dtype != static_cast<uint32_t>(DType::kF32) &&
        dtype != static_cast<uint32_t>(DType::kI8)) {
      return fail(path + ": tensor '" + t.name + "' has unknown dtype " +
                  std::to_string(dtype));
    }
    t.dtype = static_cast<DType>(dtype);
    t.rows = static_cast<int>(rows);
    t.cols = static_cast<int>(cols);
    const uint64_t want =
        static_cast<uint64_t>(rows) * cols * DTypeSize(t.dtype);
    if (bytes != want) {
      return fail(path + ": tensor '" + t.name + "' payload size " +
                  std::to_string(bytes) + " != rows*cols*dtype " +
                  std::to_string(want));
    }
    if (bytes > size || offset < payload_offset || offset > size - bytes) {
      return fail(path + ": tensor '" + t.name + "' payload out of bounds");
    }
    if (offset % kPayloadAlign != 0) {
      return fail(path + ": tensor '" + t.name + "' payload misaligned");
    }
    t.data = base + offset;
    file->tensors_.push_back(std::move(t));
  }
  return file;
}

const FlatTensor* FlatFile::Find(std::string_view name) const {
  for (const FlatTensor& t : tensors_) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

}  // namespace flat
}  // namespace serve
}  // namespace fieldswap
