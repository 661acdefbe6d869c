#include "segmentstore/read_index.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "common/logging.h"

namespace pravega::segmentstore {

ReadIndex::ReadIndex(BlockCache& cache, Config cfg) : cache_(cache), cfg_(cfg) {}

ReadIndex::~ReadIndex() {
    std::vector<SegmentId> ids;
    ids.reserve(segments_.size());
    for (const auto& [id, idx] : segments_) ids.push_back(id);
    for (SegmentId id : ids) removeSegment(id);
}

void ReadIndex::addSegment(SegmentId segment) {
    segments_.try_emplace(segment);
}

void ReadIndex::removeSegment(SegmentId segment) {
    auto it = segments_.find(segment);
    if (it == segments_.end()) return;
    it->second.entries.forEach([&](const int64_t&, Entry& e) {
        if (e.address != kInvalidAddress) cache_.remove(e.address);
        indexedBytes_ -= static_cast<uint64_t>(e.length);
        return true;
    });
    segments_.erase(it);
}

Status ReadIndex::append(SegmentId segment, int64_t offset, const BufChain& data) {
    auto it = segments_.find(segment);
    if (it == segments_.end()) return Status(Err::NotFound, "segment not in read index");
    SegmentIndex& idx = it->second;

    // Fast path: extend the last entry in place when contiguous and small
    // enough — this is the O(1) append the block-chained cache enables.
    auto last = idx.entries.lastEntry();
    if (last.first && *last.first + last.second->length == offset &&
        last.second->address != kInvalidAddress &&
        last.second->length + static_cast<int64_t>(data.size()) <= cfg_.maxEntryLength) {
        auto newAddr = cache_.append(last.second->address, data);
        if (newAddr) {
            last.second->address = newAddr.value();
            last.second->length += static_cast<int64_t>(data.size());
            last.second->lastUsedGeneration = generation_;
            indexedBytes_ += data.size();
            return Status::ok();
        }
        if (newAddr.code() != Err::CacheFull) return newAddr.status();
        // Cache full mid-append: the entry was partially extended; bring the
        // index in sync with whatever the cache now holds, evict, retry once.
        auto len = cache_.entryLength(last.second->address);
        if (len) {
            indexedBytes_ += len.value() - static_cast<uint64_t>(last.second->length);
            last.second->length = static_cast<int64_t>(len.value());
        }
        applyCachePolicy();
        int64_t done = *last.first + last.second->length - offset;
        if (done >= static_cast<int64_t>(data.size())) return Status::ok();
        return insertEntry(idx, offset + done,
                           data.share(static_cast<size_t>(done),
                                      data.size() - static_cast<size_t>(done)));
    }
    return insertEntry(idx, offset, data);
}

Status ReadIndex::insertEntry(SegmentIndex& idx, int64_t offset, BufChain data) {
    // Split oversized payloads into maxEntryLength pieces (zero-copy
    // slices; the only byte movement is the block-granularity copy inside
    // the cache).
    while (!data.empty()) {
        size_t n = std::min<size_t>(data.size(), static_cast<size_t>(cfg_.maxEntryLength));
        BufChain piece = data.share(0, n);
        auto addr = cache_.insert(piece);
        if (!addr && addr.code() == Err::CacheFull) {
            applyCachePolicy();
            addr = cache_.insert(piece);
        }
        if (!addr) return addr.status();
        Entry e;
        e.length = static_cast<int64_t>(n);
        e.address = addr.value();
        e.lastUsedGeneration = generation_;
        idx.entries.insert(offset, e);
        indexedBytes_ += n;
        offset += static_cast<int64_t>(n);
        data.trimFront(n);
    }
    return Status::ok();
}

Status ReadIndex::insertFromStorage(SegmentId segment, int64_t offset, BufChain data) {
    auto it = segments_.find(segment);
    if (it == segments_.end()) return Status(Err::NotFound, "segment not in read index");
    SegmentIndex& idx = it->second;
    // Avoid double-indexing: an entry may overlap the fetched range from
    // EITHER side. A floor entry overlapping `offset` happens when part of
    // the range was re-indexed (tail append or another fetch) while this
    // fetch was in flight; ceiling entries bound how far we may insert.
    // Walk the range, skipping covered bytes and inserting only the gaps.
    while (!data.empty()) {
        auto floor = idx.entries.floorEntry(offset);
        if (floor.first && *floor.first + floor.second->length > offset) {
            // Front of the range is already indexed: skip past it.
            int64_t skip = *floor.first + floor.second->length - offset;
            if (skip >= static_cast<int64_t>(data.size())) break;
            offset += skip;
            data.trimFront(static_cast<size_t>(skip));
            continue;
        }
        auto ceiling = idx.entries.ceilingEntry(offset);
        int64_t limit = ceiling.first ? *ceiling.first : offset + static_cast<int64_t>(data.size());
        int64_t usable = std::min<int64_t>(static_cast<int64_t>(data.size()), limit - offset);
        if (usable > 0) {
            Status s = insertEntry(idx, offset, data.share(0, static_cast<size_t>(usable)));
            if (!s) return s;
            offset += usable;
            data.trimFront(static_cast<size_t>(usable));
        }
        // usable == 0 means a ceiling entry starts exactly at `offset`; the
        // next iteration's floor check skips over it.
    }
    checkSegmentInvariants(idx);
    return Status::ok();
}

void ReadIndex::checkSegmentInvariants(SegmentIndex& idx) {
#ifndef NDEBUG
    int64_t prevEnd = INT64_MIN;
    idx.entries.forEach([&](const int64_t& off, Entry& e) {
        assert(e.length > 0 && "read-index entry must hold bytes");
        assert(off >= prevEnd && "read-index entries must not overlap");
        prevEnd = off + e.length;
        return true;
    });
#else
    (void)idx;
#endif
}

int64_t ReadIndex::contiguousEnd(SegmentId segment, int64_t offset, int64_t limit) {
    auto it = segments_.find(segment);
    if (it == segments_.end()) return offset;
    SegmentIndex& idx = it->second;
    int64_t end = offset;
    while (end < limit) {
        auto floor = idx.entries.floorEntry(end);
        if (!floor.first || *floor.first + floor.second->length <= end) break;
        end = *floor.first + floor.second->length;
    }
    return std::min(end, limit);
}

Result<ReadOutcome> ReadIndex::read(SegmentId segment, int64_t offset, int64_t maxBytes,
                                    int64_t segmentLength, int64_t startOffset) {
    auto it = segments_.find(segment);
    if (it == segments_.end()) return Status(Err::NotFound, "segment not in read index");
    if (offset < startOffset) return Status(Err::Truncated, "offset before truncation point");
    if (offset > segmentLength) return Status(Err::BadOffset, "offset beyond segment end");
    if (offset == segmentLength) return ReadOutcome{ReadAtTail{}};

    maxBytes = std::min(maxBytes, segmentLength - offset);
    SegmentIndex& idx = it->second;

    auto floor = idx.entries.floorEntry(offset);
    if (floor.first && *floor.first + floor.second->length > offset) {
        // Cache hit: serve from this entry (possibly fewer than maxBytes;
        // the iterator semantics let callers continue from the new offset).
        Entry& e = *floor.second;
        e.lastUsedGeneration = generation_;
        int64_t within = offset - *floor.first;
        int64_t n = std::min<int64_t>(e.length - within, maxBytes);
        // Ranged get: only the requested bytes are copied out of cache
        // blocks (the old full-entry get + re-slice copied twice).
        auto part = cache_.get(e.address, static_cast<uint64_t>(within),
                               static_cast<uint64_t>(n));
        if (!part) return part.status();
        return ReadOutcome{ReadHit{std::move(part.value())}};
    }

    // Miss: compute the gap to fetch from LTS — up to the next indexed
    // entry or the requested size, whichever is nearer.
    auto ceiling = idx.entries.ceilingEntry(offset);
    int64_t gapEnd = ceiling.first ? std::min(*ceiling.first, offset + maxBytes)
                                   : offset + maxBytes;
    return ReadOutcome{ReadMiss{offset, gapEnd - offset}};
}

void ReadIndex::truncate(SegmentId segment, int64_t newStartOffset) {
    auto it = segments_.find(segment);
    if (it == segments_.end()) return;
    SegmentIndex& idx = it->second;
    std::vector<int64_t> toRemove;
    idx.entries.forEach([&](const int64_t& off, Entry& e) {
        if (off + e.length <= newStartOffset) toRemove.push_back(off);
        return off < newStartOffset;  // stop once past the truncation point
    });
    for (int64_t off : toRemove) {
        Entry* e = idx.entries.find(off);
        if (e->address != kInvalidAddress) cache_.remove(e->address);
        indexedBytes_ -= static_cast<uint64_t>(e->length);
        idx.entries.erase(off);
    }
}

void ReadIndex::setStorageLength(SegmentId segment, int64_t storageLength) {
    auto it = segments_.find(segment);
    if (it != segments_.end()) {
        it->second.storageLength = std::max(it->second.storageLength, storageLength);
    }
}

int ReadIndex::applyCachePolicy() {
    ++generation_;
    if (cache_.utilization() < cfg_.evictionThreshold) return 0;

    // Collect eviction candidates: entries fully below their segment's
    // storage watermark (anything above it is not yet durable in LTS and
    // must stay resident for the storage writer / tail readers).
    struct Candidate {
        uint64_t gen;
        SegmentId segment;
        int64_t offset;
        int64_t length;
    };
    std::vector<Candidate> candidates;
    for (auto& [segId, idx] : segments_) {
        idx.entries.forEach([&](const int64_t& off, Entry& e) {
            if (off + e.length <= idx.storageLength && e.address != kInvalidAddress) {
                candidates.push_back({e.lastUsedGeneration, segId, off, e.length});
            }
            return true;
        });
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) { return a.gen < b.gen; });

    int evicted = 0;
    uint64_t capacity = cache_.capacityBytes();
    for (const auto& c : candidates) {
        if (static_cast<double>(cache_.storedBytes()) / static_cast<double>(capacity) <=
            cfg_.evictionTarget) {
            break;
        }
        SegmentIndex& idx = segments_[c.segment];
        Entry* e = idx.entries.find(c.offset);
        if (!e) continue;
        cache_.remove(e->address);
        indexedBytes_ -= static_cast<uint64_t>(e->length);
        idx.entries.erase(c.offset);
        ++evicted;
    }
    if (evictionCounter_ != nullptr && evicted > 0) {
        evictionCounter_->inc(static_cast<uint64_t>(evicted));
    }
    return evicted;
}

uint64_t ReadIndex::entryCount() const {
    uint64_t n = 0;
    for (const auto& [id, idx] : segments_) n += idx.entries.size();
    return n;
}

}  // namespace pravega::segmentstore
