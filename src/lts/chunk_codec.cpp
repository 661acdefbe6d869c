#include "lts/chunk_codec.h"

#include <algorithm>

#include "common/hash.h"
#include "common/serde.h"

namespace pravega::lts {

using sim::Future;
using sim::Unit;

// ------------------------------------------------------------- block codec

Bytes ChunkCodec::rleEncode(BytesView raw) {
    Bytes out;
    out.reserve(raw.size() / 4 + 16);
    size_t i = 0;
    const size_t n = raw.size();
    while (i < n) {
        size_t run = 1;
        while (i + run < n && raw[i + run] == raw[i] && run < 130) ++run;
        if (run >= 3) {
            out.push_back(static_cast<uint8_t>(0x80u | (run - 3)));
            out.push_back(raw[i]);
            i += run;
            continue;
        }
        // Literal run: up to 128 bytes, stopping where a >=3 repeat starts.
        size_t start = i;
        while (i < n && i - start < 128) {
            if (i + 2 < n && raw[i] == raw[i + 1] && raw[i] == raw[i + 2]) break;
            ++i;
        }
        out.push_back(static_cast<uint8_t>(i - start - 1));
        out.insert(out.end(), raw.begin() + start, raw.begin() + i);
    }
    return out;
}

Result<Bytes> ChunkCodec::rleDecode(BytesView enc, size_t rawLen) {
    Bytes out;
    out.reserve(rawLen);
    size_t i = 0;
    while (i < enc.size()) {
        uint8_t c = enc[i++];
        if (c & 0x80u) {
            if (i >= enc.size()) return Status(Err::IoError, "rle: truncated run");
            out.insert(out.end(), (c & 0x7Fu) + 3, enc[i++]);
        } else {
            size_t lit = static_cast<size_t>(c) + 1;
            if (i + lit > enc.size()) return Status(Err::IoError, "rle: truncated literals");
            out.insert(out.end(), enc.begin() + i, enc.begin() + i + lit);
            i += lit;
        }
        if (out.size() > rawLen) return Status(Err::IoError, "rle: output overflow");
    }
    if (out.size() != rawLen) return Status(Err::IoError, "rle: output size mismatch");
    return out;
}

Bytes ChunkCodec::encodeBlock(BytesView raw) {
    Bytes body = rleEncode(raw);
    uint8_t method = kRle;
    if (body.size() >= raw.size()) {
        // Incompressible: store verbatim so a block never expands past the
        // fixed header overhead.
        body.assign(raw.begin(), raw.end());
        method = kRaw;
    }
    Bytes out;
    out.reserve(kHeaderBytes + body.size());
    BinaryWriter w(out);
    w.u32(kMagic);
    w.u8(kVersion);
    w.u8(method);
    w.u16(0);  // reserved
    w.u32(static_cast<uint32_t>(raw.size()));
    w.u32(static_cast<uint32_t>(body.size()));
    w.u32(crc32(raw.data(), raw.size()));
    w.raw(BytesView(body));
    return out;
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

Result<Bytes> ChunkCodec::decodeBlock(BytesView stored) {
    auto hr = parseHeader(stored);
    if (!hr) return hr.status();
    const BlockHeader& h = hr.value();
    BytesView body = stored.subspan(kHeaderBytes, h.encLen);
    Bytes raw;
    if (h.method == kRaw) {
        if (h.encLen != h.rawLen) {
            return Status(Err::ChecksumMismatch, "raw block length mismatch");
        }
        raw.assign(body.begin(), body.end());
    } else if (h.method == kRle) {
        auto dec = rleDecode(body, h.rawLen);
        if (!dec) return Status(Err::ChecksumMismatch, "corrupt rle body");
        raw = std::move(dec.value());
    } else {
        return Status(Err::ChecksumMismatch, "unknown codec method");
    }
    if (crc32(raw.data(), raw.size()) != h.crc) {
        return Status(Err::ChecksumMismatch, "payload crc mismatch");
    }
    return raw;
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
    Bytes raw = data.toBytes();
    const uint64_t rawLen = raw.size();
    Bytes block = ChunkCodec::encodeBlock(BytesView(raw));
    const uint64_t storedLen = block.size();

    sim::Promise<Unit> p;
    auto fut = p.future();
    sim::Duration compressTime = sim::transferTime(rawLen, kCompressBytesPerSec);
    cpu_.executeFor(compressTime)
        .onComplete([this, name, rawLen, storedLen, block = std::move(block),
                     p](const Result<Unit>&) mutable {
            inner_.append(name, BufChain(std::move(block)))
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
            Bytes out;
            out.reserve(static_cast<size_t>(n));
            uint64_t decodedRaw = 0;
            for (const Block& b : cover) {
                uint64_t at = b.storedOff - storedStart;
                if (at + b.storedLen > stored.size()) {
                    mChecksumFailures_.inc();
                    p.setError(Err::ChecksumMismatch, "stored block truncated: " + name);
                    return;
                }
                auto dec = ChunkCodec::decodeBlock(
                    stored.subspan(static_cast<size_t>(at), static_cast<size_t>(b.storedLen)));
                if (!dec || dec.value().size() != b.rawLen) {
                    mChecksumFailures_.inc();
                    p.setError(Err::ChecksumMismatch,
                               "chunk " + name + ": " + dec.status().message());
                    return;
                }
                decodedRaw += b.rawLen;
                uint64_t from = offset > b.rawOff ? offset - b.rawOff : 0;
                uint64_t to = std::min<uint64_t>(b.rawLen, offset + n - b.rawOff);
                pravega::append(out, BytesView(dec.value().data() + from,
                                               static_cast<size_t>(to - from)));
            }
            mDecodeNs_.record(exec_.now() - startedAt);
            // Decompression charges CPU for every decoded block byte — the
            // read amplification cost of block-granular compression.
            SharedBuf result{std::move(out)};
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
