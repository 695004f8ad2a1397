#pragma once
/// \file codec.hpp
/// Binary encode/decode primitives for the checkpoint layer.
///
/// Every serialized quantity goes through these two classes so the on-disk
/// byte layout is uniform (little-endian, fixed-width, doubles as IEEE-754
/// bit patterns — bit-identical round-trips, never printf/scanf rounding)
/// and every malformed read fails loudly with context instead of returning
/// garbage. Keyed tables (maps and sets) are written in ascending key order,
/// so the bytes depend only on a table's contents, never on how a container
/// happens to iterate.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace glr::ckpt {

/// Append-only byte sink. All integers little-endian fixed-width; doubles
/// are stored as their bit pattern so restore is bit-identical.
class Encoder {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { putLe(v); }
  void u32(std::uint32_t v) { putLe(v); }
  void u64(std::uint64_t v) { putLe(v); }
  void i32(std::int32_t v) { putLe(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { putLe(static_cast<std::uint64_t>(v)); }
  void f64(double v) { putLe(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void size(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }

  void str(const std::string& s) {
    u64(s.size());
    out_.insert(out_.end(), s.begin(), s.end());
  }

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    out_.insert(out_.end(), p, p + n);
  }

  [[nodiscard]] const std::vector<unsigned char>& data() const { return out_; }
  [[nodiscard]] std::vector<unsigned char> take() { return std::move(out_); }

 private:
  template <class T>
  void putLe(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_.push_back(static_cast<unsigned char>(v >> (8 * i)));
    }
  }

  std::vector<unsigned char> out_;
};

/// Bounds-checked reader over a byte span. Every overrun or structural
/// mismatch throws std::runtime_error prefixed with the decoder's context
/// (file path + section name), mirroring trace/reader.cpp's discipline.
class Decoder {
 public:
  Decoder(const unsigned char* data, std::size_t size, std::string context)
      : data_(data), size_(size), context_(std::move(context)) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error{"checkpoint " + context_ + ": " + what +
                             " (at byte " + std::to_string(pos_) + ")"};
  }

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return getLe<std::uint16_t>(); }
  std::uint32_t u32() { return getLe<std::uint32_t>(); }
  std::uint64_t u64() { return getLe<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) fail("boolean field holds " + std::to_string(v));
    return v != 0;
  }
  std::size_t size() { return checkedSize(u64(), 0); }

  /// Bounds the ids nodeId() accepts; restore code sets the population
  /// before it reads per-node state.
  void setNodeCount(std::size_t n) { nodeCount_ = n; }
  /// A node id: an i32 in [0, node count). A restored id outside the
  /// population would index past per-node state.
  int nodeId() {
    const std::int32_t id = i32();
    if (id < 0 || static_cast<std::size_t>(id) >= nodeCount_) {
      fail("node id " + std::to_string(id) + " is outside [0, " +
           std::to_string(nodeCount_) + ")");
    }
    return id;
  }

  std::string str() {
    const std::size_t n = checkedSize(u64(), 1);
    const unsigned char* p = take(n);
    return std::string{reinterpret_cast<const char*>(p), n};
  }

  void bytes(void* dst, std::size_t n) { std::memcpy(dst, take(n), n); }

  /// Validates a serialized element count against the bytes actually left:
  /// `n` elements of at least `minBytesPer` bytes each must fit. Catches
  /// corrupted counts before they turn into multi-gigabyte reserves.
  [[nodiscard]] std::size_t checkedSize(std::uint64_t n,
                                        std::size_t minBytesPer) {
    if (minBytesPer != 0 && n > remaining() / minBytesPer) {
      fail("count " + std::to_string(n) + " overruns section (" +
           std::to_string(remaining()) + " bytes left)");
    }
    if (n > size_) {
      fail("size field " + std::to_string(n) + " exceeds section size");
    }
    return static_cast<std::size_t>(n);
  }

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  /// Restore code calls this after consuming a section: trailing bytes mean
  /// writer and reader disagree about the layout — refuse loudly.
  void expectEnd() const {
    if (pos_ != size_) {
      fail(std::to_string(size_ - pos_) + " trailing bytes");
    }
  }

  [[nodiscard]] const std::string& context() const { return context_; }

 private:
  const unsigned char* take(std::size_t n) {
    if (n > remaining()) {
      fail("truncated: need " + std::to_string(n) + " bytes, have " +
           std::to_string(remaining()));
    }
    const unsigned char* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  template <class T>
  T getLe() {
    const unsigned char* p = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(p[i]) << (8 * i)));
    }
    return v;
  }

  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string context_;
  std::size_t nodeCount_ = SIZE_MAX;
};

/// The key of a keyed-table entry: a map entry's `first`, a set's element.
template <class Entry>
const auto& keyOf(const Entry& entry) {
  if constexpr (requires { entry.first; }) {
    return entry.first;
  } else {
    return entry;
  }
}

/// Writes a keyed table (map, set, or id-sorted vector of pairs): the entry
/// count, then `save(e, entry)` per entry in ascending key order.
template <class Table, class Save>
void saveKeyed(Encoder& e, const Table& table, Save&& save) {
  std::vector<const typename Table::value_type*> entries;
  entries.reserve(table.size());
  for (const auto& entry : table) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return keyOf(*a) < keyOf(*b); });
  e.size(entries.size());
  for (const auto* entry : entries) save(e, *entry);
}

/// Reads a table saveKeyed wrote, replacing `table`'s contents: `load(d)`
/// returns one entry, which is inserted as read. Keys must be strictly
/// ascending; anything else is a corrupt file and is refused.
template <class Table, class Load>
void loadKeyed(Decoder& d, Table& table, Load&& load) {
  const std::size_t n = d.checkedSize(d.u64(), 1);
  table.clear();
  std::remove_cvref_t<decltype(keyOf(*table.begin()))> prev{};
  for (std::size_t i = 0; i < n; ++i) {
    auto entry = load(d);
    if (i > 0 && !(prev < keyOf(entry))) {
      d.fail("keyed table entry " + std::to_string(i) +
             " is not after its predecessor in ascending key order");
    }
    prev = keyOf(entry);
    table.insert(table.end(), std::move(entry));
  }
}

}  // namespace glr::ckpt
