// Byte serialization for sketches. Sites in the distributed-stream setting
// (Sec 1.1) communicate by shipping sketches; this codec defines the wire
// format. A sketch serializes to (parameters, seed, cell contents); the
// receiver validates parameters before merging, because merging sketches
// built from different seeds silently produces garbage.
//
// Format: little-endian fixed-width integers, no alignment, no framing
// (callers frame). Values are written via explicit byte composition so the
// format is portable across hosts.
#ifndef GRAPHSKETCH_SRC_SKETCH_SERDE_H_
#define GRAPHSKETCH_SRC_SKETCH_SERDE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>

namespace gsketch {

/// Append-only byte writer.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }

  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }

  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }

  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }

  /// Appends `len` raw bytes verbatim. Only meaningful for data whose byte
  /// order the caller already controls (see AppendCells in one_sparse.h).
  void Raw(const void* data, size_t len) {
    out_->append(static_cast<const char*>(data), len);
  }

 private:
  std::string* out_;
};

/// Sequential byte reader with bounds checking. All accessors return
/// nullopt (and poison the reader) on truncation.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::string& s) : data_(s.data()), size_(s.size()) {}

  std::optional<uint8_t> U8() {
    if (failed_ || pos_ >= size_) {
      failed_ = true;
      return std::nullopt;
    }
    return static_cast<uint8_t>(data_[pos_++]);
  }

  std::optional<uint32_t> U32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      auto b = U8();
      if (!b.has_value()) return std::nullopt;
      v |= static_cast<uint32_t>(*b) << (8 * i);
    }
    return v;
  }

  std::optional<uint64_t> U64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      auto b = U8();
      if (!b.has_value()) return std::nullopt;
      v |= static_cast<uint64_t>(*b) << (8 * i);
    }
    return v;
  }

  std::optional<int64_t> I64() {
    auto v = U64();
    if (!v.has_value()) return std::nullopt;
    return static_cast<int64_t>(*v);
  }

  /// Copies `len` raw bytes into `out`; false (and poisoned) on truncation.
  bool Raw(void* out, size_t len) {
    if (failed_ || size_ - pos_ < len) {
      failed_ = true;
      return false;
    }
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
    return true;
  }

  /// True once any read has failed.
  bool failed() const { return failed_; }

  /// True iff the whole buffer has been consumed without failure.
  bool AtEnd() const { return !failed_ && pos_ == size_; }

  size_t position() const { return pos_; }

  /// Bytes left to read (0 once failed): the bound any declared size
  /// must be checked against before it is allocated.
  size_t remaining() const { return failed_ ? 0 : size_ - pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_SKETCH_SERDE_H_
