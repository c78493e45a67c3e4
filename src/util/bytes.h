// Byte-buffer primitives shared across the code base.
//
// Corona treats every shared object as an opaque byte stream (paper §3.1:
// "the state of a shared object is type-independent"), so a small, explicit
// vocabulary for byte buffers keeps that opacity visible in signatures.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace corona {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

// An immutable, reference-counted byte buffer: the payload of one sequenced
// message.  It is copied out of its frame once, at decode, and from then on
// every record, history entry and delivery that carries it shares the one
// buffer, so a copy costs a reference count, not the bytes.  A payload owns
// exactly its bytes, never a slice of a larger frame, so holding a small
// record never pins a large buffer.  The count is atomic: a replica dropped
// on an application thread may release buffers the loop thread shares.
class Payload {
 public:
  using value_type = std::uint8_t;
  using const_iterator = const std::uint8_t*;

  Payload() = default;
  // Implicit both ways, so code written against Bytes and BytesView reads
  // and builds payloads unchanged.  Building one copies the bytes.
  Payload(BytesView b) : size_(b.size()) {
    if (b.empty()) return;
    // One allocation holds the count and then the bytes.  The head is 8
    // bytes so that a 1000 B payload stays within glibc's per-thread cache
    // (chunks up to 1032 B); a std::shared_ptr control block adds 47.
    void* mem = std::malloc(sizeof(Head) + b.size());
    if (mem == nullptr) throw std::bad_alloc();
    head_ = ::new (mem) Head{};
    std::memcpy(bytes(), b.data(), b.size());
  }
  Payload(const Bytes& b) : Payload(BytesView(b)) {}
  Payload(const Payload& other) noexcept
      : head_(other.head_), size_(other.size_) {
    if (head_ != nullptr) head_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Payload(Payload&& other) noexcept
      : head_(std::exchange(other.head_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  Payload& operator=(Payload other) noexcept {
    std::swap(head_, other.head_);
    std::swap(size_, other.size_);
    return *this;
  }
  ~Payload() {
    if (head_ != nullptr &&
        head_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      head_->~Head();
      std::free(head_);
    }
  }

  operator BytesView() const { return {data(), size_}; }

  const std::uint8_t* data() const {
    return head_ != nullptr ? bytes() : nullptr;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  std::uint8_t operator[](std::size_t i) const { return bytes()[i]; }

  friend bool operator==(const Payload& a, const Payload& b) {
    return a.head_ == b.head_ ? a.size_ == b.size_ : same_bytes(a, b);
  }
  friend bool operator==(const Payload& a, const Bytes& b) {
    return same_bytes(a, b);
  }

 private:
  struct Head {
    std::atomic<std::size_t> refs{1};
  };

  std::uint8_t* bytes() const {
    return reinterpret_cast<std::uint8_t*>(head_ + 1);
  }
  static bool same_bytes(BytesView a, BytesView b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

  Head* head_ = nullptr;
  std::size_t size_ = 0;
};

// Builds a byte buffer from character data; used heavily by examples and
// tests that layer textual payloads on the opaque-object model.
inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

// Interprets a byte buffer as character data. Only meaningful for payloads
// the *application* knows are text; the service itself never does this.
inline std::string to_string(BytesView b) {
  return std::string(b.begin(), b.end());
}

// Payload of `n` bytes with a deterministic fill, for workload generators.
inline Bytes filler_bytes(std::size_t n, std::uint8_t seed = 0x5a) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i * 131u);
  }
  return b;
}

}  // namespace corona
