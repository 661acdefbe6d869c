// Event wire framing. Pravega does not track event boundaries internally
// (§2.1); the client library frames each event as [u32 length][payload]
// when appending and parses the same framing when reading.
//
// Decoding distinguishes three outcomes: Ok (a whole event parsed),
// Partial (more bytes needed), and Corrupt (the length prefix exceeds the
// max-frame bound — garbage, not an incomplete event). The max-frame check
// runs BEFORE any additive bounds arithmetic: `pos + header + len` can wrap
// on 32-bit size_t for a hostile `len`, silently turning corruption into a
// forever-"partial" event.
#pragma once

#include <cstdint>
#include <cstring>

#include "common/buf_chain.h"
#include "common/buf_stats.h"
#include "common/bytes.h"

namespace pravega::client {

constexpr size_t kEventHeaderBytes = 4;

/// Upper bound on a single framed event's payload. Far above anything the
/// client writes (batches cap at kMaxBatchBytes, single events are KBs), so
/// a larger prefix can only be a corrupt or misaligned frame.
constexpr uint32_t kMaxEventBytes = 16u * 1024 * 1024;

enum class DecodeStatus { Ok, Partial, Corrupt };

/// The one client-side payload copy of the append path (DESIGN.md §11):
/// frames `payload` into the open block's batch buffer.
inline void encodeEvent(Bytes& out, BytesView payload) {
    uint32_t len = static_cast<uint32_t>(payload.size());
    size_t pos = out.size();
    out.resize(pos + kEventHeaderBytes + payload.size());
    std::memcpy(out.data() + pos, &len, kEventHeaderBytes);
    if (!payload.empty()) {
        std::memcpy(out.data() + pos + kEventHeaderBytes, payload.data(), payload.size());
    }
    bufstats::recordCopy(payload.size());
}

/// Parses one event starting at `pos`. On Ok, sets `payload` and advances
/// `pos`; on Partial/Corrupt leaves both untouched.
inline DecodeStatus decodeEventEx(BytesView buffer, size_t& pos, BytesView& payload) {
    if (pos > buffer.size() || buffer.size() - pos < kEventHeaderBytes) {
        return DecodeStatus::Partial;
    }
    uint32_t len = 0;
    std::memcpy(&len, buffer.data() + pos, kEventHeaderBytes);
    if (len > kMaxEventBytes) return DecodeStatus::Corrupt;
    // Wrap-safe remaining-bytes test (subtraction, never addition).
    if (buffer.size() - pos - kEventHeaderBytes < len) return DecodeStatus::Partial;
    payload = buffer.subspan(pos + kEventHeaderBytes, len);
    pos += kEventHeaderBytes + len;
    return DecodeStatus::Ok;
}

/// Chain-front variant for streaming readers: classifies the event at the
/// head of `buffer` and reports its payload length on Ok. The caller
/// extracts with copyOut and consumes with trimFront.
inline DecodeStatus peekEvent(const BufChain& buffer, uint32_t& len) {
    if (!buffer.peekU32(0, len)) return DecodeStatus::Partial;
    if (len > kMaxEventBytes) return DecodeStatus::Corrupt;
    if (buffer.size() - kEventHeaderBytes < len) return DecodeStatus::Partial;
    return DecodeStatus::Ok;
}

}  // namespace pravega::client
