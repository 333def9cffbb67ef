#ifndef FIELDSWAP_SERVE_FLAT_FORMAT_H_
#define FIELDSWAP_SERVE_FLAT_FORMAT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace fieldswap {
namespace serve {
namespace flat {

/// The mmap-able flat container format (ISSUE 8). A flat file is a single
/// contiguous blob a server shard maps PROT_READ/MAP_SHARED and reads in
/// place — no deserialization, no per-process weight copy; N shards mapping
/// the same file share one set of physical pages through the page cache.
///
/// Layout (all integers little-endian, the only byte order this
/// CPU-serving repo targets):
///
///   [0]  u32 magic            'FSFL' (0x4C465346)
///   [4]  u32 format_version   1 — bumped on any layout change; readers
///                             reject versions they do not know
///   [8]  u64 file_size        total bytes; must equal the mapped size
///   [16] u64 checksum         FNV-1a over bytes [kHeaderSize, file_size)
///   [24] u64 metadata_offset  opaque writer-defined bytes (JSON upstairs)
///   [32] u64 metadata_size
///   [40] u64 dir_offset       tensor directory (see below)
///   [48] u64 dir_count        number of directory entries
///   [56] u64 payload_offset   first tensor payload byte
///
/// Directory entry (variable length, packed in file order):
///   u32 name_len, name bytes, u32 dtype (0=f32, 1=i8), u32 rows, u32 cols,
///   f32 scale (i8 dequantization scale; 1.0 for f32), u64 payload offset
///   (absolute, 64-byte aligned), u64 payload size in bytes.
///
/// Every payload is 64-byte aligned so float loads are cache-line aligned
/// and SIMD kernels never straddle a line at a tensor boundary.
///
/// This layer knows nothing about models: it stores named tensors plus one
/// opaque metadata blob. serve/flat_snapshot.{h,cc} (one layer up) maps
/// model snapshots onto it. The reader treats every file as hostile —
/// all offsets/sizes are bounds-checked before use, so a truncated or
/// corrupted file yields a clean error, never UB (tests/property_test.cc
/// holds this under ASan/UBSan).

inline constexpr uint32_t kMagic = 0x4C465346;  // 'FSFL'
inline constexpr uint32_t kFormatVersion = 1;
inline constexpr size_t kHeaderSize = 64;
inline constexpr size_t kPayloadAlign = 64;

enum class DType : uint32_t { kF32 = 0, kI8 = 1 };

/// Bytes per element of a dtype.
size_t DTypeSize(DType dtype);

/// One tensor as seen through the mapping: a name, a shape, and a pointer
/// straight into the mapped (read-only) file bytes.
struct FlatTensor {
  std::string name;
  DType dtype = DType::kF32;
  int rows = 0;
  int cols = 0;
  float scale = 1.0f;       // i8 dequantization scale; 1.0 for f32
  const void* data = nullptr;

  const float* f32() const { return static_cast<const float*>(data); }
  const int8_t* i8() const { return static_cast<const int8_t*>(data); }
};

/// Accumulates named tensors and writes the flat blob. The writer copies
/// nothing until Write(): callers keep payload pointers alive until then.
class FlatWriter {
 public:
  /// `metadata` is opaque to this layer (flat_snapshot stores JSON).
  void SetMetadata(std::string metadata) { metadata_ = std::move(metadata); }

  /// Adds a row-major f32 tensor. `values` must stay valid until Write().
  void AddF32(const std::string& name, const float* values, int rows,
              int cols);

  /// Adds a row-major i8 tensor with its dequantization scale.
  void AddI8(const std::string& name, const int8_t* values, int rows,
             int cols, float scale);

  /// Serializes everything to `path` (atomic: written to a temp sibling and
  /// renamed into place, so a reader never maps a half-written file).
  /// Returns false on I/O failure with the reason in `*error`.
  bool Write(const std::string& path, std::string* error) const;

 private:
  struct Entry {
    std::string name;
    DType dtype;
    int rows;
    int cols;
    float scale;
    const void* data;
  };

  std::string metadata_;
  std::vector<Entry> entries_;
};

/// A mapped flat file: RAII over the mmap (unmapped on destruction), plus
/// the validated directory. All tensor `data` pointers alias the mapping,
/// so the FlatFile must outlive every view into it — loaders keep it alive
/// with a shared_ptr captured in the snapshot's backing.
class FlatFile {
 public:
  /// Maps `path` read-only and validates header, checksum, and every
  /// directory entry's bounds. Returns null on any failure with the reason
  /// in `*error`. `verify_checksum` can be disabled for mappings so large
  /// that the load-time pass matters; the default on: a corrupted weight
  /// byte otherwise silently changes every prediction.
  static std::shared_ptr<const FlatFile> Map(const std::string& path,
                                             std::string* error,
                                             bool verify_checksum = true);

  ~FlatFile();
  FlatFile(const FlatFile&) = delete;
  FlatFile& operator=(const FlatFile&) = delete;

  std::string_view metadata() const { return metadata_; }

  /// Tensors in file (write) order.
  const std::vector<FlatTensor>& tensors() const { return tensors_; }

  /// Tensor by name, or nullptr if absent.
  const FlatTensor* Find(std::string_view name) const;

  size_t file_size() const { return size_; }

 private:
  FlatFile() = default;

  const uint8_t* base_ = nullptr;
  size_t size_ = 0;
  std::string_view metadata_;
  std::vector<FlatTensor> tensors_;
};

}  // namespace flat
}  // namespace serve
}  // namespace fieldswap

#endif  // FIELDSWAP_SERVE_FLAT_FORMAT_H_
