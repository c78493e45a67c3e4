// Binary decoder: the reading half of serial/encoder.h.
//
// Every accessor is bounds-checked; a malformed buffer trips the `ok()` flag
// instead of reading out of range, and all subsequent reads return zeros.
// Callers check `ok()` once at the end of a record (monadic style keeps the
// decode functions flat).
#pragma once

#include <cstdint>
#include <string>

#include "util/bytes.h"

namespace corona {

class Decoder {
 public:
  explicit Decoder(BytesView in) : in_(in) {}

  std::uint8_t get_u8() {
    if (!require(1)) return 0;
    return in_[pos_++];
  }
  // A one-byte enum whose enumerators run from 0 to `last`.  A byte past
  // `last` trips ok() like a malformed buffer, so no unnamed value reaches
  // a switch over the enum.
  template <typename E>
  E get_enum(E last) {
    const std::uint8_t v = get_u8();
    if (v > static_cast<std::uint8_t>(last)) ok_ = false;
    return static_cast<E>(v);
  }
  bool get_bool() { return get_u8() != 0; }
  std::uint32_t get_u32() { return static_cast<std::uint32_t>(get_varint()); }
  std::uint64_t get_u64() { return get_varint(); }
  std::int64_t get_i64() {
    const std::uint64_t z = get_varint();
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }
  Bytes get_bytes() {
    const std::uint64_t n = get_varint();
    if (!require(n)) return {};
    Bytes b(in_.begin() + static_cast<std::ptrdiff_t>(pos_),
            in_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return b;
  }
  // A bytes field copied straight from the input into a buffer of its own.
  Payload get_payload() {
    const std::uint64_t n = get_varint();
    if (!require(n)) return {};
    Payload p(in_.subspan(pos_, n));
    pos_ += n;
    return p;
  }
  std::string get_string() {
    const std::uint64_t n = get_varint();
    if (!require(n)) return {};
    std::string s(in_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  in_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return s;
  }

  bool ok() const { return ok_; }
  bool at_end() const { return pos_ == in_.size(); }
  std::size_t remaining() const { return in_.size() - pos_; }

 private:
  bool require(std::uint64_t n) {
    if (!ok_ || n > in_.size() - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::uint64_t get_varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (!require(1)) return 0;
      const std::uint8_t byte = in_[pos_++];
      if (shift >= 64) {  // overlong encoding
        ok_ = false;
        return 0;
      }
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    return v;
  }

  BytesView in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace corona
