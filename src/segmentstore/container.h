// SegmentContainer: the unit of the data plane (§2.2, §4.1).
//
// Every request that modifies a segment becomes an Operation queued for
// processing. A container has a single dedicated WAL log to which ALL of
// its segments' operations are multiplexed — the crucial design feature
// that lets Pravega support enormous segment counts without per-segment
// physical resources. Operations are aggregated into data frames whose
// close is governed by the paper's delay formula
//     Delay = RecentLatency * (1 - AvgWriteSize / MaxFrameSize)
// and each acknowledged frame is applied to the in-memory state (read
// index, attributes, tables), acknowledged to clients, and handed to the
// storage writer for tiering.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "lts/chunk_storage.h"
#include "segmentstore/attribute_index.h"
#include "segmentstore/cache.h"
#include "segmentstore/operations.h"
#include "segmentstore/read_index.h"
#include "segmentstore/storage_writer.h"
#include "segmentstore/table_segment.h"
#include "segmentstore/types.h"
#include "sim/machine.h"
#include "sim/future.h"
#include "wal/log_client.h"

namespace pravega::segmentstore {

struct ContainerConfig {
    sim::Duration maxBatchDelay = sim::msec(20);  // bound on the delay formula
    uint64_t checkpointEveryOps = 4000;
    uint64_t checkpointEveryBytes = 32 * 1024 * 1024;
    StorageWriterConfig storage;
    wal::LogClient::Config log;

    /// Ingest throttling (§4.3): appends are delayed proportionally when
    /// either the LTS device backlog (seconds of queued transfers) or the
    /// hottest segment's unflushed backlog (bytes waiting for LTS) exceeds
    /// its start threshold, ramping to `maxThrottleDelay` at the full one.
    double throttleStartSeconds = 1.0;
    double throttleFullSeconds = 10.0;
    uint64_t throttleStartSegmentBytes = 64ULL * 1024 * 1024;
    uint64_t throttleFullSegmentBytes = 256ULL * 1024 * 1024;
    sim::Duration maxThrottleDelay = sim::msec(500);

    /// Storage read pipeline (§4.2, §5.7): coalesced LTS fetches, parallel
    /// multi-chunk demand fetches, and budget-bounded segment readahead for
    /// catch-up readers.
    struct ReadPipelineConfig {
        /// Readahead ablation flag (Fig 12): prefetch the next windows into
        /// the block cache on a miss or a sequential-hit streak.
        bool readahead = true;
        /// Fetch windows the prefetcher keeps in flight ahead of a reader.
        int prefetchWindows = 4;
        /// Size of each prefetch fetch window.
        uint64_t prefetchFetchBytes = 4 * 1024 * 1024;
        /// Sequential depth-0 hits in a row that trigger readahead.
        int sequentialStreak = 2;
    };
    ReadPipelineConfig readPipeline;
};

struct ReadResult {
    Bytes data;
    int64_t offset = 0;
    bool endOfSegment = false;
};

/// Per-segment throughput counters for the control-plane feedback loop
/// (§3.1): the data plane reports rates, the controller reacts.
struct SegmentRate {
    uint64_t bytes = 0;
    uint64_t events = 0;
};

class SegmentContainer {
public:
    SegmentContainer(sim::Core& exec, uint32_t containerId, wal::WalEnv walEnv,
                     sim::HostId host, lts::ChunkStorage& lts, BlockCache& cache,
                     ContainerConfig cfg);
    ~SegmentContainer();

    SegmentContainer(const SegmentContainer&) = delete;
    SegmentContainer& operator=(const SegmentContainer&) = delete;

    /// Recovery + startup (§4.4): fences the WAL, replays checkpoint +
    /// operations, reconciles LTS chunks, starts background work.
    Status start();

    /// Severe-error shutdown: fails pending operations; a future owner (or
    /// this one, via start()) recovers from WAL.
    void shutdown();
    bool isOffline() const { return offline_; }

    uint32_t id() const { return containerId_; }

    // ---- segment API --------------------------------------------------
    sim::Future<sim::Unit> createSegment(SegmentId id, std::string name, bool isTable = false);

    /// Event-writer append with the exactly-once protocol (§3.2): if
    /// `writer` != 0, `eventNumber` must exceed the writer's last recorded
    /// event number; stale appends are acknowledged idempotently without
    /// writing. Completes with the offset at which data was appended.
    sim::Future<int64_t> append(SegmentId id, SharedBuf data, WriterId writer = 0,
                                int64_t eventNumber = -1, uint32_t eventCount = 1);

    /// Compare-and-append at an expected offset (the primitive beneath the
    /// state synchronizer's optimistic concurrency, §3.3).
    sim::Future<int64_t> conditionalAppend(SegmentId id, SharedBuf data, int64_t expectedOffset);

    /// Read with tail semantics: returns immediately-available data, fetches
    /// from LTS on a miss, or waits for new data at the tail (§4.2).
    sim::Future<ReadResult> read(SegmentId id, int64_t offset, int64_t maxBytes);

    sim::Future<sim::Unit> seal(SegmentId id);
    sim::Future<sim::Unit> truncate(SegmentId id, int64_t newStartOffset);
    sim::Future<sim::Unit> deleteSegment(SegmentId id);

    Result<SegmentProperties> getInfo(SegmentId id) const;

    /// Writer-reconnect handshake: last event number recorded for `writer`
    /// on this segment (kNullValue when none).
    int64_t getWriterLastEventNumber(SegmentId id, WriterId writer) const;

    // ---- table API (metadata KV, §4.3) --------------------------------
    sim::Future<std::vector<int64_t>> tableUpdate(SegmentId id, std::vector<TableUpdate> batch);
    Result<TableValue> tableGet(SegmentId id, const std::string& key) const;
    std::vector<std::pair<std::string, TableValue>> tableScan(SegmentId id,
                                                              const std::string& prefix) const;

    /// The container's own metadata table segment (chunk records etc.).
    SegmentId systemTableSegment() const { return systemTable_; }

    // ---- feedback / observability -------------------------------------
    /// Drains per-segment rate counters accumulated since the last call.
    std::map<SegmentId, SegmentRate> drainRates();

    /// Monotonic ingest totals since this container instance started
    /// (replay excluded). Unlike drainRates() these are not destructive,
    /// so the rebalancer and the quota manager can take window deltas
    /// without stealing the auto-scaler's feedback signal. A container
    /// that moves to another store restarts from zero — consumers treat a
    /// decrease as a fresh instance.
    uint64_t totalBytesIn() const { return cumBytes_; }
    uint64_t totalEventsIn() const { return cumEvents_; }
    const std::map<SegmentId, SegmentRate>& cumulativeRates() const { return cumRates_; }

    std::vector<SegmentId> listSegments() const;
    uint64_t appliedOps() const { return appliedOps_; }
    int64_t lastAppliedSequence() const { return lastAppliedSeq_; }
    uint64_t walTruncations() const { return walTruncations_; }
    uint64_t checkpointsWritten() const { return checkpointsWritten_; }
    sim::Duration currentBatchDelay() const;
    lts::ChunkStorage& ltsStorage() { return lts_; }
    StorageWriter& storageWriter() { return *storageWriter_; }
    wal::LogClient& walLog() { return *log_; }
    ReadIndex& readIndex() { return readIndex_; }

    // ---- used by StorageWriter ----------------------------------------
    void onSegmentFlushed(SegmentId id, int64_t newStorageLength);
    void onStorageProgress();

private:
    struct SegmentMeta {
        SegmentProperties props;
        int64_t appliedLength = 0;  // readable prefix (apply-time)
        TableIndex table;           // only for isTable segments
    };
    struct PendingFrame {
        std::vector<Operation> ops;
        std::vector<std::function<void(Result<int64_t>)>> completions;
        uint64_t bytes = 0;
        sim::TimePoint openedAt = 0;  // first op's enqueue time (trace stage)
    };
    struct TailWaiter {
        int64_t offset;
        sim::Promise<sim::Unit> wake;
    };
    /// A read parked on an in-flight LTS fetch (the original misser and any
    /// coalesced riders); re-attempted when the fetch lands.
    struct PendingRead {
        int64_t offset;
        int64_t maxBytes;
        sim::Promise<ReadResult> promise;
        int depth;
        bool counted;  // hit/miss already attributed (first resolution)
    };
    /// One outstanding LTS fetch for [start, end) of a segment, possibly
    /// split into parallel per-chunk piece reads.
    struct InflightFetch {
        int64_t end = 0;
        bool prefetch = false;
        int piecesRemaining = 0;
        sim::TimePoint startedAt = 0;
        Status failure;  // first piece failure, if any
        std::vector<PendingRead> waiters;
    };
    /// Per-segment readahead state.
    struct SegmentReadState {
        int64_t lastReadEnd = -1;
        int streak = 0;
        std::map<int64_t, int64_t> prefetched;  // inserted, unconsumed ranges
    };

    SegmentMeta* findSegment(SegmentId id);
    const SegmentMeta* findSegment(SegmentId id) const;

    /// Admission gate: serializes op processing and applies throttling.
    void admit(std::function<void()> fn);
    sim::Duration throttleDelay() const;

    void enqueueOp(Operation op, std::function<void(Result<int64_t>)> completion);
    void closeFrame();
    void scheduleFrameTimer();
    void applyFrame(std::vector<Operation> ops,
                    std::vector<std::function<void(Result<int64_t>)>> completions,
                    int64_t walSequence);
    void applyOp(Operation& op, int64_t walSequence, bool replay);
    void maybeCheckpoint();
    Bytes serializeCheckpoint() const;
    Status restoreCheckpoint(BytesView snapshot);
    void wakeTailWaiters(SegmentId id);
    void failAllPending(Status error);
    void attemptRead(SegmentId id, int64_t offset, int64_t maxBytes,
                     sim::Promise<ReadResult> promise, int depth, bool counted);
    /// Starts an LTS fetch for [start, end) (parallel per-chunk pieces,
    /// capped at kMaxParallelChunkFetches). `demand` (when non-null) becomes
    /// the fetch's first waiter; on setup failure its promise is failed.
    /// Returns the end of the range actually being fetched (`start` when no
    /// fetch could be started, e.g. no chunks cover the range yet).
    int64_t startFetch(SegmentId id, int64_t start, int64_t end, bool prefetch,
                       PendingRead* demand);
    void finishFetchPiece(SegmentId id, int64_t start, Status st);
    void maybePrefetch(SegmentId id, int64_t from, const SegmentMeta& meta);
    void noteSequentialHit(SegmentId id, int64_t offset, int64_t readEnd,
                           const SegmentMeta& meta);
    bool consumePrefetched(SegmentId id, int64_t offset, int64_t readEnd);
    void chargeWastedPrefetch(SegmentId id, int64_t missStart, int64_t missEnd);
    void startCachePolicyTimer();
    void truncateWalIfPossible();

    sim::Core& exec_;
    uint32_t containerId_;
    sim::HostId host_;
    lts::ChunkStorage& lts_;
    BlockCache& cache_;
    ContainerConfig cfg_;

    std::unique_ptr<wal::LogClient> log_;
    ReadIndex readIndex_;
    AttributeIndex attributes_;
    std::unique_ptr<StorageWriter> storageWriter_;

    std::map<SegmentId, SegmentMeta> segments_;
    SegmentId systemTable_;

    // Open frame + in-flight frames.
    PendingFrame openFrame_;
    uint64_t frameTimerEpoch_ = 0;
    bool frameTimerArmed_ = false;
    uint64_t inFlightFrames_ = 0;

    // Delay-formula inputs (EWMAs, §4.1).
    double recentWalLatencyNs_ = 1.0e6;  // start at 1 ms
    double avgWriteSizeBytes_ = 0.0;

    // Admission gate (ordering + throttle).
    sim::TimePoint admitCursor_ = 0;

    // Checkpoint / truncation bookkeeping.
    uint64_t opsSinceCheckpoint_ = 0;
    uint64_t bytesSinceCheckpoint_ = 0;
    std::deque<int64_t> checkpointSeqs_;  // applied checkpoint WAL sequences
    int64_t lastAppliedSeq_ = -1;
    int64_t lastTruncatedSeq_ = -1;
    bool checkpointPending_ = false;
    uint64_t walTruncations_ = 0;
    uint64_t checkpointsWritten_ = 0;

    std::map<SegmentId, std::vector<TailWaiter>> tailWaiters_;
    std::map<SegmentId, SegmentRate> rates_;
    std::map<SegmentId, SegmentRate> cumRates_;
    uint64_t cumBytes_ = 0;
    uint64_t cumEvents_ = 0;

    // Storage read pipeline: in-flight fetch table (fetch start offset ->
    // fetch) and per-segment readahead state.
    std::map<SegmentId, std::map<int64_t, InflightFetch>> inflightFetches_;
    std::map<SegmentId, SegmentReadState> readStates_;
    uint64_t prefetchInflightBytes_ = 0;
    uint64_t fetchEpoch_ = 0;  // invalidates piece completions on shutdown

    uint64_t appliedOps_ = 0;
    bool offline_ = true;  // start() brings the container online
    uint64_t cacheTimerEpoch_ = 0;
    /// Liveness token for the cache-policy timer (scheduleWeak holds a raw
    /// `this` inside the machine, which can outlive this container).
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

    // World-aggregate container metrics (cached registry instruments).
    obs::Counter& mOpsEnqueued_;
    obs::Counter& mFramesClosed_;
    obs::Counter& mThrottleCount_;
    obs::Counter& mThrottleNs_;
    obs::Counter& mCacheHits_;
    obs::Counter& mCacheMisses_;
    obs::Counter& mCacheEvictions_;
    obs::Counter& mTailWaits_;
    obs::Counter& mReadCoalesced_;
    obs::Counter& mLtsFetches_;
    obs::Counter& mPrefetchIssued_;
    obs::Counter& mPrefetchHits_;
    obs::Counter& mPrefetchWasted_;
    obs::Gauge& mQueueDepth_;
    obs::LatencyHistogram& mFrameBytes_;
    obs::LatencyHistogram& mFrameOps_;
    obs::LatencyHistogram& mStoreQueueNs_;
    obs::LatencyHistogram& mWalCommitNs_;
    obs::LatencyHistogram& mDemandFetchNs_;
    obs::LatencyHistogram& mPrefetchFetchNs_;
};

}  // namespace pravega::segmentstore
