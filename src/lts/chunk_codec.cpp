#include "lts/chunk_codec.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "common/hash.h"
#include "common/serde.h"

namespace pravega::lts {

using sim::Future;
using sim::Unit;

// ------------------------------------------------------------- block codec

namespace {

constexpr uint64_t kByteOnes = 0x0101010101010101ULL;
constexpr uint64_t kByteHighs = 0x8080808080808080ULL;
constexpr size_t kMaxRun = 0x7F + 3;
constexpr size_t kMaxLiteral = 0x7F + 1;

// Length of the run of p[0]'s value starting at p, capped at `limit` (>= 1).
// Eight bytes per step: XOR against the broadcast byte, and the first
// non-zero byte of the difference ends the run.
size_t runLength(const uint8_t* p, size_t limit) {
    const uint64_t pattern = kByteOnes * p[0];
    size_t run = 1;
    for (; run + 8 <= limit; run += 8) {
        const uint64_t diff = loadLe64(p + run) ^ pattern;
        if (diff != 0) return run + static_cast<size_t>(std::countr_zero(diff)) / 8;
    }
    while (run < limit && p[run] == p[0]) ++run;
    return run;
}

// First j in [from, end) where p[j] == p[j+1] == p[j+2] with j+2 < n, or
// `end`. Eight positions per step: byte k of (a^b)|(a^c) over the words at
// j, j+1 and j+2 is zero iff a triple starts at j+k, and the lowest set bit
// of the classic zero-byte mask marks the first such byte exactly (borrows
// only run upward). Word loads stay below n: the last one ends at j+9.
size_t nextTriple(const uint8_t* p, size_t from, size_t end, size_t n) {
    size_t j = from;
    for (; j + 8 <= end && j + 10 <= n; j += 8) {
        const uint64_t a = loadLe64(p + j);
        const uint64_t d = (a ^ loadLe64(p + j + 1)) | (a ^ loadLe64(p + j + 2));
        const uint64_t zero = (d - kByteOnes) & ~d & kByteHighs;
        if (zero != 0) return j + static_cast<size_t>(std::countr_zero(zero)) / 8;
    }
    for (; j < end; ++j) {
        if (j + 2 < n && p[j] == p[j + 1] && p[j] == p[j + 2]) return j;
    }
    return end;
}

// PackBits-encodes in[0, n) into out, writing at most `cap` bytes. Returns
// the encoded length, or cap + 1 as soon as the encoding would not fit.
size_t packBits(const uint8_t* in, size_t n, uint8_t* out, size_t cap) {
    size_t i = 0;
    size_t o = 0;
    while (i < n) {
        const size_t run = runLength(in + i, std::min(n - i, kMaxRun));
        if (run >= 3) {
            if (o + 2 > cap) return cap + 1;
            out[o++] = static_cast<uint8_t>(0x80u | (run - 3));
            out[o++] = in[i];
            i += run;
            continue;
        }
        // Literal stretch: up to 128 bytes, ending where a >=3 repeat
        // starts. Position i itself cannot start one (run < 3).
        const size_t end = nextTriple(in, i + 1, std::min(i + kMaxLiteral, n), n);
        const size_t lit = end - i;
        if (o + 1 + lit > cap) return cap + 1;
        out[o++] = static_cast<uint8_t>(lit - 1);
        std::memcpy(out + o, in + i, lit);
        o += lit;
        i = end;
    }
    return o;
}

}  // namespace

Bytes ChunkCodec::rleEncode(BytesView raw) {
    // Worst case: every 128 input bytes cost one extra control byte.
    Bytes out(raw.size() + (raw.size() + kMaxLiteral - 1) / kMaxLiteral);
    const size_t len = packBits(raw.data(), raw.size(), out.data(), out.size());
    if (len > out.size()) throw std::logic_error("rleEncode: worst-case bound exceeded");
    out.resize(len);
    return out;
}

Status ChunkCodec::rleDecode(BytesView enc, std::span<uint8_t> out) {
    const size_t n = enc.size();
    const size_t rawLen = out.size();
    size_t i = 0;
    size_t o = 0;
    while (i < n) {
        const uint8_t c = enc[i++];
        if (c & 0x80u) {
            if (i >= n) return Status(Err::IoError, "rle: truncated run");
            const size_t run = (c & 0x7Fu) + 3;
            if (run > rawLen - o) return Status(Err::IoError, "rle: output overflow");
            std::memset(out.data() + o, enc[i], run);
            ++i;
            o += run;
        } else {
            const size_t lit = static_cast<size_t>(c) + 1;
            if (lit > n - i) return Status(Err::IoError, "rle: truncated literals");
            if (lit > rawLen - o) return Status(Err::IoError, "rle: output overflow");
            std::memcpy(out.data() + o, enc.data() + i, lit);
            i += lit;
            o += lit;
        }
    }
    if (o != rawLen) return Status(Err::IoError, "rle: output size mismatch");
    return Status::ok();
}

SharedBuf ChunkCodec::encodeBlock(BytesView raw) {
    // Header and body share one buffer. The RLE body may use at most
    // raw.size() - 1 bytes; otherwise the block stores the payload verbatim
    // (method kRaw) so it never expands past the fixed header overhead.
    WritableBuf out(kHeaderBytes + raw.size());
    uint8_t* body = out.data() + kHeaderBytes;
    uint8_t method = kRle;
    size_t encLen = packBits(raw.data(), raw.size(), body, raw.size());
    if (encLen >= raw.size()) {
        method = kRaw;
        encLen = raw.size();
        if (encLen > 0) std::memcpy(body, raw.data(), encLen);
    }
    Bytes header;
    header.reserve(kHeaderBytes);
    BinaryWriter w(header);
    w.u32(kMagic);
    w.u8(kVersion);
    w.u8(method);
    w.u16(0);  // reserved
    w.u32(static_cast<uint32_t>(raw.size()));
    w.u32(static_cast<uint32_t>(encLen));
    w.u32(crc32(raw.data(), raw.size()));
    std::memcpy(out.data(), header.data(), kHeaderBytes);
    return std::move(out).freeze(kHeaderBytes + encLen);
}

Result<ChunkCodec::BlockHeader> ChunkCodec::parseHeader(BytesView stored) {
    BinaryReader r(stored);
    auto magic = r.u32();
    auto version = r.u8();
    auto method = r.u8();
    auto reserved = r.u16();
    auto rawLen = r.u32();
    auto encLen = r.u32();
    auto crc = r.u32();
    if (!magic || !version || !method || !reserved || !rawLen || !encLen || !crc) {
        return Status(Err::ChecksumMismatch, "block header truncated");
    }
    if (magic.value() != kMagic || version.value() != kVersion) {
        return Status(Err::ChecksumMismatch, "bad block magic/version");
    }
    if (kHeaderBytes + static_cast<size_t>(encLen.value()) > stored.size()) {
        return Status(Err::ChecksumMismatch, "block body truncated");
    }
    BlockHeader h;
    h.method = method.value();
    h.rawLen = rawLen.value();
    h.encLen = encLen.value();
    h.crc = crc.value();
    return h;
}

Status ChunkCodec::decodeBlock(BytesView stored, std::span<uint8_t> out) {
    auto hr = parseHeader(stored);
    if (!hr) return hr.status();
    const BlockHeader& h = hr.value();
    if (h.rawLen != out.size()) {
        return Status(Err::ChecksumMismatch, "block raw length mismatch");
    }
    BytesView body = stored.subspan(kHeaderBytes, h.encLen);
    if (h.method == kRaw) {
        if (h.encLen != h.rawLen) {
            return Status(Err::ChecksumMismatch, "raw block length mismatch");
        }
        if (!body.empty()) std::memcpy(out.data(), body.data(), body.size());
    } else if (h.method == kRle) {
        if (!rleDecode(body, out)) return Status(Err::ChecksumMismatch, "corrupt rle body");
    } else {
        return Status(Err::ChecksumMismatch, "unknown codec method");
    }
    if (crc32(out.data(), out.size()) != h.crc) {
        return Status(Err::ChecksumMismatch, "payload crc mismatch");
    }
    return Status::ok();
}

// -------------------------------------------------------- CodecChunkStorage

CodecChunkStorage::CodecChunkStorage(sim::Core& exec, ChunkStorage& inner)
    : exec_(exec),
      inner_(inner),
      cpu_(exec, sim::CpuModel::Config{kCpuLanes, sim::usec(2), kCompressBytesPerSec}),
      mRawBytes_(exec.metrics().counter("lts.codec.raw_bytes")),
      mStoredBytes_(exec.metrics().counter("lts.codec.stored_bytes")),
      mBlocks_(exec.metrics().counter("lts.codec.blocks")),
      mChecksumFailures_(exec.metrics().counter("lts.checksum_failures")),
      mRatio_(exec.metrics().gauge("lts.compression_ratio")),
      mDecodeNs_(exec.metrics().histogram("lts.codec.decode_ns")) {}

Future<Unit> CodecChunkStorage::create(const std::string& name) {
    return inner_.create(name).then([this, name](const Unit& u) {
        chunks_[name];  // start an empty block index
        return u;
    });
}

Future<Unit> CodecChunkStorage::append(const std::string& name, BufChain data) {
    auto it = chunks_.find(name);
    if (it == chunks_.end()) {
        // Chunk predates the codec (mixed stack): pass through untouched.
        return inner_.append(name, std::move(data));
    }
    // A one-fragment chain is encoded straight from its storage.
    const SharedBuf raw = data.linearize();
    const uint64_t rawLen = raw.size();
    SharedBuf block = ChunkCodec::encodeBlock(raw.view());
    const uint64_t storedLen = block.size();

    sim::Promise<Unit> p;
    auto fut = p.future();
    sim::Duration compressTime = sim::transferTime(rawLen, kCompressBytesPerSec);
    cpu_.executeFor(compressTime)
        .onComplete([this, name, rawLen, storedLen, block = std::move(block),
                     p](const Result<Unit>&) mutable {
            inner_.append(name, std::move(block))
                .onComplete([this, name, rawLen, storedLen, p](const Result<Unit>& r) mutable {
                    if (r.isOk()) {
                        auto& ix = chunks_[name];
                        ix.blocks.push_back(
                            Block{ix.rawSize, rawLen, ix.storedSize, storedLen});
                        ix.rawSize += rawLen;
                        ix.storedSize += storedLen;
                        rawBytes_ += rawLen;
                        storedBytes_ += storedLen;
                        mRawBytes_.inc(rawLen);
                        mStoredBytes_.inc(storedLen);
                        mBlocks_.inc();
                        if (storedBytes_ > 0) {
                            mRatio_.set(static_cast<double>(rawBytes_) /
                                        static_cast<double>(storedBytes_));
                        }
                    }
                    p.complete(r);
                });
        });
    return fut;
}

Future<SharedBuf> CodecChunkStorage::read(const std::string& name, uint64_t offset,
                                          uint64_t length) {
    auto it = chunks_.find(name);
    if (it == chunks_.end()) return inner_.read(name, offset, length);
    const ChunkIndex& ix = it->second;
    if (offset > ix.rawSize) {
        return Future<SharedBuf>::failed(Status(Err::BadOffset, name));
    }
    uint64_t n = std::min(length, ix.rawSize - offset);
    if (n == 0) return Future<SharedBuf>::ready(SharedBuf(Bytes{}));

    // Blocks covering [offset, offset+n): contiguous in both address spaces,
    // so the stored fetch is one range read against the backend.
    auto first = std::upper_bound(
        ix.blocks.begin(), ix.blocks.end(), offset,
        [](uint64_t off, const Block& b) { return off < b.rawOff + b.rawLen; });
    std::vector<Block> cover;
    for (auto bit = first; bit != ix.blocks.end() && bit->rawOff < offset + n; ++bit) {
        cover.push_back(*bit);
    }
    if (cover.empty()) {
        return Future<SharedBuf>::failed(Status(Err::IoError, "block index gap"));
    }
    const uint64_t storedStart = cover.front().storedOff;
    const uint64_t storedEnd = cover.back().storedOff + cover.back().storedLen;

    sim::Promise<SharedBuf> p;
    auto fut = p.future();
    sim::TimePoint startedAt = exec_.now();
    inner_.read(name, storedStart, storedEnd - storedStart)
        .onComplete([this, name, offset, n, storedStart, cover = std::move(cover),
                     startedAt, p](const Result<SharedBuf>& r) mutable {
            if (!r.isOk()) {
                p.setError(r.status());
                return;
            }
            BytesView stored = r.value().view();
            // Blocks the range covers whole decode straight into the result;
            // only a partial first or last block goes through a scratch buffer.
            WritableBuf out(static_cast<size_t>(n));
            uint64_t decodedRaw = 0;
            for (const Block& b : cover) {
                uint64_t at = b.storedOff - storedStart;
                if (at + b.storedLen > stored.size()) {
                    mChecksumFailures_.inc();
                    p.setError(Err::ChecksumMismatch, "stored block truncated: " + name);
                    return;
                }
                BytesView block =
                    stored.subspan(static_cast<size_t>(at), static_cast<size_t>(b.storedLen));
                const size_t rawLen = static_cast<size_t>(b.rawLen);
                const uint64_t from = offset > b.rawOff ? offset - b.rawOff : 0;
                const uint64_t to = std::min<uint64_t>(b.rawLen, offset + n - b.rawOff);
                uint8_t* dst = out.data() + (b.rawOff + from - offset);
                Status st;
                if (from == 0 && to == b.rawLen) {
                    st = ChunkCodec::decodeBlock(block, std::span<uint8_t>(dst, rawLen));
                } else {
                    auto scratch = std::make_unique_for_overwrite<uint8_t[]>(rawLen);
                    st = ChunkCodec::decodeBlock(block, std::span<uint8_t>(scratch.get(), rawLen));
                    if (st) std::memcpy(dst, scratch.get() + from, static_cast<size_t>(to - from));
                }
                if (!st) {
                    mChecksumFailures_.inc();
                    p.setError(Err::ChecksumMismatch, "chunk " + name + ": " + st.message());
                    return;
                }
                decodedRaw += b.rawLen;
            }
            mDecodeNs_.record(exec_.now() - startedAt);
            // Decompression charges CPU for every decoded block byte — the
            // read amplification cost of block-granular compression.
            SharedBuf result = std::move(out).freeze(static_cast<size_t>(n));
            cpu_.executeFor(sim::transferTime(decodedRaw, kDecompressBytesPerSec))
                .onComplete([p, result](const Result<Unit>&) mutable { p.setValue(result); });
        });
    return fut;
}

Future<Unit> CodecChunkStorage::remove(const std::string& name) {
    return inner_.remove(name).then([this, name](const Unit& u) {
        chunks_.erase(name);
        return u;
    });
}

Result<ChunkInfo> CodecChunkStorage::stat(const std::string& name) const {
    auto it = chunks_.find(name);
    if (it == chunks_.end()) return inner_.stat(name);
    // Raw length: ChunkRecord offset math and reconciliation live in the
    // segment-byte address space, not the stored one.
    auto inner = inner_.stat(name);
    if (!inner) return inner.status();
    return ChunkInfo{name, it->second.rawSize};
}

}  // namespace pravega::lts
