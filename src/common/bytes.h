// Byte buffer utilities used throughout the system.
//
// `Bytes` is an owning byte vector; `BytesView` a non-owning span.
// `SharedBuf` provides cheap zero-copy slicing of an immutable buffer, used
// on read paths where the same appended data is handed to the WAL, the
// cache and client responses without copies.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/buf_stats.h"

namespace pravega {

using Bytes = std::vector<uint8_t>;
using BytesView = std::span<const uint8_t>;

inline Bytes toBytes(std::string_view s) {
    return Bytes(s.begin(), s.end());
}

inline std::string toString(BytesView b) {
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

class WritableBuf;

/// Immutable, reference-counted buffer with O(1) sub-slicing.
class SharedBuf {
public:
    SharedBuf() = default;

    explicit SharedBuf(Bytes data) {
        auto owner = std::make_shared<const Bytes>(std::move(data));
        const uint8_t* bytes = owner->data();
        size_ = owner->size();
        // Aliasing constructor: points at the vector's bytes, owns the vector.
        storage_ = std::shared_ptr<const uint8_t>(std::move(owner), bytes);
    }

    static SharedBuf copyOf(BytesView view) {
        bufstats::recordCopy(view.size());
        return SharedBuf(Bytes(view.begin(), view.end()));
    }

    /// O(1) sub-slice sharing the same storage. Clamps to bounds.
    SharedBuf slice(size_t offset, size_t len) const;

    BytesView view() const {
        if (!storage_) return {};
        return BytesView(storage_.get() + offset_, size_);
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const uint8_t* data() const { return storage_ ? storage_.get() + offset_ : nullptr; }

private:
    friend class WritableBuf;
    SharedBuf(std::shared_ptr<const uint8_t> storage, size_t size)
        : storage_(std::move(storage)), size_(size) {}

    std::shared_ptr<const uint8_t> storage_;
    size_t offset_ = 0;
    size_t size_ = 0;
};

/// Fresh writable storage that is NOT zero-filled, for producers that
/// overwrite every byte they expose (the LTS codec's block encoder and
/// read-path decoder). `freeze` hands the bytes to a SharedBuf without a
/// copy; the WritableBuf is empty afterwards.
class WritableBuf {
public:
    explicit WritableBuf(size_t size)
        : storage_(std::make_shared_for_overwrite<uint8_t[]>(size)), size_(size) {}

    uint8_t* data() { return storage_.get(); }
    size_t size() const { return size_; }

    /// The first `len` bytes (clamped to size()) as an immutable SharedBuf.
    SharedBuf freeze(size_t len) && {
        const size_t n = len < size_ ? len : size_;
        const uint8_t* bytes = storage_.get();
        size_ = 0;
        return SharedBuf(std::shared_ptr<const uint8_t>(std::move(storage_), bytes), n);
    }

private:
    std::shared_ptr<uint8_t[]> storage_;
    size_t size_ = 0;
};

/// Unaligned little-endian 32-bit load (one plain load on x86-64/arm64).
inline uint32_t loadLe32(const uint8_t* p) {
    uint32_t v = 0;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap32(v);
    return v;
}

/// Unaligned little-endian 64-bit load.
inline uint64_t loadLe64(const uint8_t* p) {
    uint64_t v = 0;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
    return v;
}

/// Appends `src` to `dst`.
inline void append(Bytes& dst, BytesView src) {
    dst.insert(dst.end(), src.begin(), src.end());
}

}  // namespace pravega
