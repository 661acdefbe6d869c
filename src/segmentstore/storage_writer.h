// The storage writer (§4.3): de-multiplexes operations written to WAL,
// groups them by segment, aggregates small appends into larger writes, and
// applies them to LTS as chunks. After a flush it records chunk metadata in
// the container's system table segment (conditional updates, as the paper
// prescribes) and advances the WAL truncation watermark.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "lts/chunk_storage.h"
#include "obs/metrics.h"
#include "segmentstore/types.h"
#include "sim/machine.h"
#include "sim/future.h"

namespace pravega::segmentstore {

class SegmentContainer;

struct StorageWriterConfig {
    /// Flush a segment's pending data once it reaches this size...
    uint64_t flushSizeBytes = 4 * 1024 * 1024;
    /// ...or once its oldest pending byte is this old.
    sim::Duration flushTimeout = sim::msec(500);
    /// Chunks roll over at this size; historical reads fetch chunks in
    /// parallel (§5.7), so the chunk size bounds read parallelism grain.
    uint64_t maxChunkBytes = 16 * 1024 * 1024;
    /// How often the writer scans for flush-ready segments.
    sim::Duration scanInterval = sim::msec(50);
    /// Chunk compaction: merge a run of >= 2 adjacent flushed chunks each
    /// smaller than this into one chunk (timeout-driven flushes of a slow
    /// segment otherwise litter LTS with tiny objects). 0 disables
    /// compaction (the default).
    uint64_t compactMinChunkBytes = 0;
    /// How often the compactor scans chunk metadata for merge candidates.
    sim::Duration compactInterval = sim::sec(2);
};

/// Chunk metadata record stored in the container's system table.
struct ChunkRecord {
    std::string name;
    int64_t startOffset = 0;
    int64_t length = 0;

    Bytes serialize() const;
    static Result<ChunkRecord> deserialize(BytesView data);
};

class StorageWriter {
public:
    StorageWriter(sim::Core& exec, SegmentContainer& container, lts::ChunkStorage& storage,
                  StorageWriterConfig cfg);
    ~StorageWriter() { *alive_ = false; }

    void start();
    void stop();

    /// Called by the container for every applied append (and during WAL
    /// replay). Appends already durable in LTS are dropped here.
    void queueAppend(SegmentId segment, int64_t offset, SharedBuf data, int64_t walSequence);

    void notifyDeleted(SegmentId segment);

    /// Reconciles a recovered segment against LTS: chunk metadata is
    /// authoritative, except that a chunk longer than its record means a
    /// flush completed whose metadata update was lost — adopt the actual
    /// chunk length (the bytes are identical, appends replay verbatim).
    Result<int64_t> reconcileSegment(SegmentId segment);

    /// All chunks overlapping [offset, offset+length), in offset order.
    /// Lets the read pipeline fetch a multi-chunk range in parallel instead
    /// of discovering chunks one fetch-retry round at a time (§5.7).
    std::vector<ChunkRecord> findChunks(SegmentId segment, int64_t offset,
                                        int64_t length) const;

    /// Highest WAL sequence S such that every append with sequence <= S is
    /// durable in LTS (drives WAL truncation).
    int64_t flushedWalSequence() const;

    uint64_t pendingBytes() const { return pendingBytes_; }
    uint64_t flushedBytes() const { return flushedBytes_; }
    /// Completed chunk-compaction merges (see compactMinChunkBytes).
    uint64_t compactions() const;

    /// Largest single-segment unflushed backlog. Flushes are serialized per
    /// segment, so this measures how far LTS drain lags ingest for the
    /// hottest segment — the ingest-throttling signal (§4.3).
    uint64_t maxSegmentPendingBytes() const;

private:
    struct PendingAppend {
        int64_t offset;
        SharedBuf data;
        int64_t walSequence;
    };
    struct SegmentState {
        std::deque<PendingAppend> pending;
        uint64_t pendingBytes = 0;
        sim::TimePoint oldestPending = 0;
        int64_t nextChunkIndex = 0;
        bool flushing = false;
        bool deleted = false;
    };

    void scan();
    void flushSegment(SegmentId segment, SegmentState& state);
    void armCompactTimer();
    void compactScan();
    void compactSegment(SegmentId segment, SegmentState& state);
    std::string chunkKey(SegmentId segment, int64_t index) const;
    std::string chunkName(SegmentId segment, int64_t startOffset) const;
    /// Parses the chunk index back out of a metadata key. After compaction
    /// deletes records, `chunks.size() - 1` is NOT the last index — the key
    /// itself is the only truth (new chunks must keep sorting after old).
    static int64_t chunkIndexFromKey(const std::string& key);

    sim::Core& exec_;
    SegmentContainer& container_;
    lts::ChunkStorage& storage_;
    StorageWriterConfig cfg_;

    /// Liveness token captured by the scan/compaction timers: scheduleWeak
    /// callbacks hold a raw `this` and can outlive the writer (the machine
    /// owns them), so a timer firing after destruction must bail before
    /// touching members.
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

    std::map<SegmentId, SegmentState> segments_;
    uint64_t pendingBytes_ = 0;
    uint64_t flushedBytes_ = 0;
    int activeFlushes_ = 0;
    bool running_ = false;
    uint64_t timerEpoch_ = 0;
    int64_t compactGen_ = 0;  // uniquifies merged-chunk names
    bool compactArmed_ = false;
    uint64_t compactEpoch_ = 0;

    /// Best-effort chunk removal with one retry; failures land on the
    /// `lts.orphan_chunks` gauge instead of being silently dropped.
    void removeChunk(const std::string& name, bool isRetry);

    // World-aggregate storage-writer metrics.
    obs::Counter& mFlushes_;
    obs::Counter& mFlushBytes_;
    obs::Counter& mFlushFailures_;
    obs::Counter& mCompactions_;
    obs::Counter& mCompactedBytes_;
    obs::Gauge& mOrphanChunks_;
    obs::LatencyHistogram& mFlushNs_;
    obs::LatencyHistogram& mFlushBatchBytes_;
};

}  // namespace pravega::segmentstore
