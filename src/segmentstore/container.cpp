#include "segmentstore/container.h"

#include <algorithm>
#include <cassert>

#include "common/buf_chain.h"
#include "common/logging.h"

namespace pravega::segmentstore {

namespace {
constexpr const char* kLog = "container";

/// Frame size cap in the delay formula (paper §4.1: e.g. 1 MB frames).
constexpr uint64_t kMaxFrameBytes = 1024 * 1024;
/// Cache policy cadence (read-index eviction).
constexpr sim::Duration kCachePolicyInterval = sim::msec(250);
/// Cap on in-flight prefetch bytes per container.
constexpr uint64_t kPrefetchBudgetBytes = 32 * 1024 * 1024;
/// Prefetch stops above this cache utilization so readahead can never push
/// the cache into evicting the live tail (§4.2 policy evicts only below the
/// storage watermark; this margin keeps prefetch from forcing those
/// evictions either).
constexpr double kPrefetchMaxCacheUtilization = 0.75;
/// Fan-out bound for one demand miss spanning chunk boundaries.
constexpr int kMaxParallelChunkFetches = 8;

SegmentId systemTableIdFor(uint32_t containerId) {
    return makeSegmentId(0xFFFFFFFFu, containerId);
}
}  // namespace

SegmentContainer::SegmentContainer(sim::Core& exec, uint32_t containerId, wal::WalEnv walEnv,
                                   sim::HostId host, lts::ChunkStorage& lts, BlockCache& cache,
                                   ContainerConfig cfg)
    : exec_(exec),
      containerId_(containerId),
      host_(host),
      lts_(lts),
      cache_(cache),
      cfg_(cfg),
      log_(std::make_unique<wal::LogClient>(walEnv, host, containerId, cfg.log)),
      readIndex_(cache),
      systemTable_(systemTableIdFor(containerId)),
      mOpsEnqueued_(exec.metrics().counter("store.ops.enqueued")),
      mFramesClosed_(exec.metrics().counter("store.frames.closed")),
      mThrottleCount_(exec.metrics().counter("store.throttle.count")),
      mThrottleNs_(exec.metrics().counter("store.throttle.ns")),
      mCacheHits_(exec.metrics().counter("store.cache.read_hits")),
      mCacheMisses_(exec.metrics().counter("store.cache.read_misses")),
      mCacheEvictions_(exec.metrics().counter("store.cache.evictions")),
      mTailWaits_(exec.metrics().counter("store.read.tail_waits")),
      mReadCoalesced_(exec.metrics().counter("store.read.coalesced")),
      mLtsFetches_(exec.metrics().counter("store.read.lts_fetches")),
      mPrefetchIssued_(exec.metrics().counter("store.prefetch.issued")),
      mPrefetchHits_(exec.metrics().counter("store.prefetch.hits")),
      mPrefetchWasted_(exec.metrics().counter("store.prefetch.wasted_bytes")),
      mQueueDepth_(exec.metrics().gauge("store.op_queue.depth")),
      mFrameBytes_(exec.metrics().histogram("store.frame.bytes")),
      mFrameOps_(exec.metrics().histogram("store.frame.ops")),
      mStoreQueueNs_(exec.metrics().histogram("trace.write.1_store_queue_ns")),
      mWalCommitNs_(exec.metrics().histogram("trace.write.2_wal_commit_ns")),
      mDemandFetchNs_(exec.metrics().histogram("trace.read.1_lts_fetch_ns")),
      mPrefetchFetchNs_(exec.metrics().histogram("trace.read.2_prefetch_fetch_ns")) {
    readIndex_.setEvictionCounter(&mCacheEvictions_);
    storageWriter_ = std::make_unique<StorageWriter>(exec, *this, lts, cfg.storage);
}

SegmentContainer::~SegmentContainer() {
    if (!offline_) shutdown();
    *alive_ = false;
}

SegmentContainer::SegmentMeta* SegmentContainer::findSegment(SegmentId id) {
    auto it = segments_.find(id);
    return it == segments_.end() || it->second.props.deleted ? nullptr : &it->second;
}

const SegmentContainer::SegmentMeta* SegmentContainer::findSegment(SegmentId id) const {
    auto it = segments_.find(id);
    return it == segments_.end() || it->second.props.deleted ? nullptr : &it->second;
}

// --------------------------------------------------------------- startup

Status SegmentContainer::start() {
    auto recovered = log_->recover();
    if (!recovered) return recovered.status();

    for (auto& [addr, frame] : recovered.value()) {
        auto ops = deserializeFrame(frame.view());
        if (!ops) return ops.status();
        for (auto& op : ops.value()) applyOp(op, addr.sequence, /*replay=*/true);
        lastAppliedSeq_ = addr.sequence;
    }
    offline_ = false;

    // Reconcile recovered segments against LTS (chunk metadata is in the
    // system table, which the replay above restored).
    for (auto& [id, meta] : segments_) {
        if (meta.props.isTable || meta.props.deleted) continue;
        auto len = storageWriter_->reconcileSegment(id);
        if (len) {
            meta.props.storageLength = len.value();
            readIndex_.setStorageLength(id, len.value());
        }
        meta.appliedLength = meta.props.length;
    }
    for (auto& [id, meta] : segments_) meta.appliedLength = meta.props.length;

    if (!segments_.contains(systemTable_)) {
        createSegment(systemTable_, "_system/container_" + std::to_string(containerId_), true);
    }

    storageWriter_->start();
    startCachePolicyTimer();
    PLOG_INFO(kLog, "container %u online, %zu segments recovered", containerId_,
              segments_.size());
    return Status::ok();
}

void SegmentContainer::shutdown() {
    if (offline_) return;
    offline_ = true;
    storageWriter_->stop();
    ++cacheTimerEpoch_;  // cancels the cache policy timer
    failAllPending(Status(Err::ContainerOffline, "container shut down"));
    PLOG_WARN(kLog, "container %u shut down", containerId_);
}

void SegmentContainer::failAllPending(Status error) {
    auto frame = std::move(openFrame_);
    openFrame_ = PendingFrame{};
    for (auto& c : frame.completions) c(error);
    auto waiters = std::move(tailWaiters_);
    tailWaiters_.clear();
    for (auto& [seg, list] : waiters) {
        for (auto& w : list) w.wake.setError(error);
    }
    // Drain the in-flight fetch table; late piece completions are dropped
    // by the epoch bump.
    ++fetchEpoch_;
    auto fetches = std::move(inflightFetches_);
    inflightFetches_.clear();
    for (auto& [seg, perSeg] : fetches) {
        for (auto& [start, fetch] : perSeg) {
            for (auto& w : fetch.waiters) w.promise.setError(error);
        }
    }
    prefetchInflightBytes_ = 0;
    readStates_.clear();
}

void SegmentContainer::startCachePolicyTimer() {
    uint64_t epoch = cacheTimerEpoch_;
    // The liveness token must be checked before the epoch: the timer (owned
    // by the machine) can fire after this container was destroyed, and even
    // the epoch comparison would then read freed memory.
    exec_.scheduleWeak(kCachePolicyInterval, [this, epoch, alive = alive_]() {
        if (!*alive) return;
        if (epoch != cacheTimerEpoch_ || offline_) return;
        readIndex_.applyCachePolicy();
        startCachePolicyTimer();
    });
}

// ------------------------------------------------------------- admission

sim::Duration SegmentContainer::throttleDelay() const {
    double f = 0.0;
    double backlog = lts_.backlogSeconds();
    if (backlog > cfg_.throttleStartSeconds) {
        f = (backlog - cfg_.throttleStartSeconds) /
            (cfg_.throttleFullSeconds - cfg_.throttleStartSeconds);
    }
    uint64_t segPending = storageWriter_->maxSegmentPendingBytes();
    if (segPending > cfg_.throttleStartSegmentBytes) {
        double g = static_cast<double>(segPending - cfg_.throttleStartSegmentBytes) /
                   static_cast<double>(cfg_.throttleFullSegmentBytes -
                                       cfg_.throttleStartSegmentBytes);
        f = std::max(f, g);
    }
    f = std::clamp(f, 0.0, 1.0);
    return static_cast<sim::Duration>(f * static_cast<double>(cfg_.maxThrottleDelay));
}

void SegmentContainer::admit(std::function<void()> fn) {
    sim::Duration d = throttleDelay();
    sim::TimePoint at = std::max(exec_.now() + d, admitCursor_);
    if (at <= exec_.now()) {
        fn();
        return;
    }
    // LTS-backpressure accounting: how long admission held this op back.
    mThrottleCount_.inc();
    mThrottleNs_.inc(static_cast<uint64_t>(at - exec_.now()));
    admitCursor_ = at;
    exec_.schedule(at - exec_.now(), std::move(fn));
}

// ------------------------------------------------------------ public API

sim::Future<sim::Unit> SegmentContainer::createSegment(SegmentId id, std::string name,
                                                       bool isTable) {
    if (offline_) return sim::Future<sim::Unit>::failed(Status(Err::ContainerOffline, ""));
    if (segments_.contains(id) && !segments_[id].props.deleted) {
        return sim::Future<sim::Unit>::failed(Status(Err::AlreadyExists, name));
    }
    auto& meta = segments_[id];
    meta = SegmentMeta{};
    meta.props.id = id;
    meta.props.name = name;
    meta.props.isTable = isTable;
    readIndex_.addSegment(id);
    attributes_.addSegment(id);

    Operation op;
    op.type = OpType::Create;
    op.segment = id;
    op.name = std::move(name);
    op.isTable = isTable;

    sim::Promise<sim::Unit> p;
    auto fut = p.future();
    enqueueOp(std::move(op), [p](const Result<int64_t>& r) mutable {
        if (r.isOk()) {
            p.setValue(sim::Unit{});
        } else {
            p.setError(r.status());
        }
    });
    return fut;
}

sim::Future<int64_t> SegmentContainer::append(SegmentId id, SharedBuf data, WriterId writer,
                                              int64_t eventNumber, uint32_t eventCount) {
    if (offline_) return sim::Future<int64_t>::failed(Status(Err::ContainerOffline, ""));
    sim::Promise<int64_t> p;
    auto fut = p.future();
    admit([this, id, data = std::move(data), writer, eventNumber, eventCount, p]() mutable {
        if (offline_) {
            p.setError(Err::ContainerOffline);
            return;
        }
        SegmentMeta* meta = findSegment(id);
        if (!meta) {
            p.setError(Err::NotFound, "no such segment");
            return;
        }
        if (meta->props.sealed) {
            p.setError(Err::Sealed, "segment is sealed");
            return;
        }
        if (writer != 0) {
            // Exactly-once: stale event numbers are duplicates from a
            // writer retry; acknowledge without appending (§3.2).
            int64_t last = attributes_.get(id, writer);
            if (last != AttributeIndex::kNullValue && eventNumber <= last) {
                p.setValue(-1);
                return;
            }
            attributes_.set(id, writer, eventNumber);
        }
        Operation op;
        op.type = OpType::Append;
        op.segment = id;
        op.offset = meta->props.length;
        op.writer = writer;
        op.eventNumber = eventNumber;
        op.eventCount = eventCount;
        op.data = std::move(data);
        meta->props.length += static_cast<int64_t>(op.data.size());
        enqueueOp(std::move(op), [p](const Result<int64_t>& r) mutable { p.complete(r); });
    });
    return fut;
}

sim::Future<int64_t> SegmentContainer::conditionalAppend(SegmentId id, SharedBuf data,
                                                         int64_t expectedOffset) {
    if (offline_) return sim::Future<int64_t>::failed(Status(Err::ContainerOffline, ""));
    SegmentMeta* meta = findSegment(id);
    if (!meta) return sim::Future<int64_t>::failed(Status(Err::NotFound, ""));
    if (meta->props.sealed) return sim::Future<int64_t>::failed(Status(Err::Sealed, ""));
    if (meta->props.length != expectedOffset) {
        return sim::Future<int64_t>::failed(Status(Err::BadOffset, "conditional append lost"));
    }
    Operation op;
    op.type = OpType::Append;
    op.segment = id;
    op.offset = meta->props.length;
    op.eventCount = 1;
    op.data = std::move(data);
    meta->props.length += static_cast<int64_t>(op.data.size());

    sim::Promise<int64_t> p;
    auto fut = p.future();
    enqueueOp(std::move(op), [p](const Result<int64_t>& r) mutable { p.complete(r); });
    return fut;
}

sim::Future<sim::Unit> SegmentContainer::seal(SegmentId id) {
    if (offline_) return sim::Future<sim::Unit>::failed(Status(Err::ContainerOffline, ""));
    SegmentMeta* meta = findSegment(id);
    if (!meta) return sim::Future<sim::Unit>::failed(Status(Err::NotFound, ""));
    if (meta->props.sealed) return sim::Future<sim::Unit>::ready(sim::Unit{});
    meta->props.sealed = true;

    Operation op;
    op.type = OpType::Seal;
    op.segment = id;
    sim::Promise<sim::Unit> p;
    auto fut = p.future();
    enqueueOp(std::move(op), [p](const Result<int64_t>& r) mutable {
        if (r.isOk()) {
            p.setValue(sim::Unit{});
        } else {
            p.setError(r.status());
        }
    });
    return fut;
}

sim::Future<sim::Unit> SegmentContainer::truncate(SegmentId id, int64_t newStartOffset) {
    if (offline_) return sim::Future<sim::Unit>::failed(Status(Err::ContainerOffline, ""));
    SegmentMeta* meta = findSegment(id);
    if (!meta) return sim::Future<sim::Unit>::failed(Status(Err::NotFound, ""));
    if (newStartOffset > meta->props.length) {
        return sim::Future<sim::Unit>::failed(Status(Err::BadOffset, "beyond segment length"));
    }
    meta->props.startOffset = std::max(meta->props.startOffset, newStartOffset);

    Operation op;
    op.type = OpType::Truncate;
    op.segment = id;
    op.offset = newStartOffset;
    sim::Promise<sim::Unit> p;
    auto fut = p.future();
    enqueueOp(std::move(op), [p](const Result<int64_t>& r) mutable {
        if (r.isOk()) {
            p.setValue(sim::Unit{});
        } else {
            p.setError(r.status());
        }
    });
    return fut;
}

sim::Future<sim::Unit> SegmentContainer::deleteSegment(SegmentId id) {
    if (offline_) return sim::Future<sim::Unit>::failed(Status(Err::ContainerOffline, ""));
    SegmentMeta* meta = findSegment(id);
    if (!meta) return sim::Future<sim::Unit>::failed(Status(Err::NotFound, ""));
    meta->props.deleted = true;

    Operation op;
    op.type = OpType::Delete;
    op.segment = id;
    sim::Promise<sim::Unit> p;
    auto fut = p.future();
    enqueueOp(std::move(op), [p](const Result<int64_t>& r) mutable {
        if (r.isOk()) {
            p.setValue(sim::Unit{});
        } else {
            p.setError(r.status());
        }
    });
    return fut;
}

Result<SegmentProperties> SegmentContainer::getInfo(SegmentId id) const {
    const SegmentMeta* meta = findSegment(id);
    if (!meta) return Status(Err::NotFound, "no such segment");
    SegmentProperties props = meta->props;
    // External view: the readable prefix, not yet-unacknowledged appends.
    props.length = meta->appliedLength;
    return props;
}

int64_t SegmentContainer::getWriterLastEventNumber(SegmentId id, WriterId writer) const {
    return attributes_.get(id, writer);
}

sim::Future<std::vector<int64_t>> SegmentContainer::tableUpdate(SegmentId id,
                                                                std::vector<TableUpdate> batch) {
    using Out = std::vector<int64_t>;
    if (offline_) return sim::Future<Out>::failed(Status(Err::ContainerOffline, ""));
    SegmentMeta* meta = findSegment(id);
    if (!meta || !meta->props.isTable) {
        return sim::Future<Out>::failed(Status(Err::NotFound, "no such table segment"));
    }
    // Validate + apply against the (enqueue-time) index so concurrent
    // conditional updates serialize correctly, then make it durable.
    Status valid = meta->table.validate(batch);
    if (!valid) return sim::Future<Out>::failed(valid);
    auto versions = meta->table.apply(batch);

    Bytes serialized;
    BinaryWriter w(serialized);
    TableIndex::serializeBatch(batch, w);

    Operation op;
    op.type = OpType::TableUpdate;
    op.segment = id;
    op.offset = meta->props.length;
    op.data = SharedBuf(std::move(serialized));
    meta->props.length += static_cast<int64_t>(op.data.size());

    sim::Promise<Out> p;
    auto fut = p.future();
    enqueueOp(std::move(op), [p, versions = std::move(versions)](const Result<int64_t>& r) mutable {
        if (r.isOk()) {
            p.setValue(std::move(versions));
        } else {
            p.setError(r.status());
        }
    });
    return fut;
}

Result<TableValue> SegmentContainer::tableGet(SegmentId id, const std::string& key) const {
    const SegmentMeta* meta = findSegment(id);
    if (!meta || !meta->props.isTable) return Status(Err::NotFound, "no such table segment");
    return meta->table.get(key);
}

std::vector<std::pair<std::string, TableValue>> SegmentContainer::tableScan(
    SegmentId id, const std::string& prefix) const {
    const SegmentMeta* meta = findSegment(id);
    if (!meta || !meta->props.isTable) return {};
    return meta->table.scanPrefix(prefix);
}

// ------------------------------------------------------------ frame path

void SegmentContainer::enqueueOp(Operation op, std::function<void(Result<int64_t>)> completion) {
    if (openFrame_.ops.empty()) openFrame_.openedAt = exec_.now();
    openFrame_.bytes += op.serializedSize();
    openFrame_.ops.push_back(std::move(op));
    openFrame_.completions.push_back(std::move(completion));
    mOpsEnqueued_.inc();
    mQueueDepth_.set(static_cast<double>(openFrame_.ops.size()) +
                     static_cast<double>(inFlightFrames_));

    if (openFrame_.bytes >= kMaxFrameBytes) {
        closeFrame();
    } else {
        scheduleFrameTimer();
    }
}

sim::Duration SegmentContainer::currentBatchDelay() const {
    // Delay = RecentLatency * (1 - AvgWriteSize / MaxFrameSize), bounded.
    double fill = avgWriteSizeBytes_ / static_cast<double>(kMaxFrameBytes);
    fill = std::clamp(fill, 0.0, 1.0);
    auto d = static_cast<sim::Duration>(recentWalLatencyNs_ * (1.0 - fill));
    return std::clamp<sim::Duration>(d, 0, cfg_.maxBatchDelay);
}

void SegmentContainer::scheduleFrameTimer() {
    if (frameTimerArmed_) return;
    frameTimerArmed_ = true;
    uint64_t epoch = ++frameTimerEpoch_;
    exec_.schedule(currentBatchDelay(), [this, epoch]() {
        if (epoch != frameTimerEpoch_ || offline_) return;
        frameTimerArmed_ = false;
        if (!openFrame_.ops.empty()) closeFrame();
    });
}

void SegmentContainer::closeFrame() {
    frameTimerArmed_ = false;
    ++frameTimerEpoch_;  // cancel any armed timer
    if (openFrame_.ops.empty()) return;

    auto frame = std::move(openFrame_);
    openFrame_ = PendingFrame{};

    // Serialize every op's header (fixed fields + payload length prefix)
    // into one small buffer, then splice the payloads in as shared
    // fragments: the resulting chain is byte-identical to the old
    // serializeOp stream, but payload bytes ride into the WAL entry by
    // reference instead of being copied a second time.
    Bytes headers;
    BinaryWriter w(headers);
    std::vector<size_t> cuts;
    cuts.reserve(frame.ops.size() + 1);
    for (const auto& op : frame.ops) {
        cuts.push_back(headers.size());
        serializeOpHeader(w, op);
    }
    cuts.push_back(headers.size());
    SharedBuf hbuf{std::move(headers)};
    BufChain serialized;
    for (size_t i = 0; i < frame.ops.size(); ++i) {
        serialized.append(hbuf.slice(cuts[i], cuts[i + 1] - cuts[i]));
        serialized.append(frame.ops[i].data);
    }
    uint64_t frameBytes = serialized.size();

    // EWMA of frame sizes feeds the delay formula.
    avgWriteSizeBytes_ = avgWriteSizeBytes_ * 0.8 + static_cast<double>(frameBytes) * 0.2;

    sim::TimePoint sentAt = exec_.now();
    mFramesClosed_.inc();
    mFrameBytes_.record(static_cast<sim::Duration>(frameBytes));
    mFrameOps_.record(static_cast<sim::Duration>(frame.ops.size()));
    mStoreQueueNs_.record(sentAt - frame.openedAt);
    ++inFlightFrames_;
    log_->append(std::move(serialized))
        .onComplete([this, ops = std::move(frame.ops), completions = std::move(frame.completions),
                     sentAt](const Result<wal::LogAddress>& r) mutable {
            --inFlightFrames_;
            if (!r.isOk()) {
                for (auto& c : completions) c(r.status());
                PLOG_ERROR(kLog, "container %u WAL write failed (%s); shutting down",
                           containerId_, r.status().toString().c_str());
                shutdown();
                return;
            }
            double latency = static_cast<double>(exec_.now() - sentAt);
            recentWalLatencyNs_ = recentWalLatencyNs_ * 0.8 + latency * 0.2;
            mWalCommitNs_.record(exec_.now() - sentAt);
            applyFrame(std::move(ops), std::move(completions), r.value().sequence);
        });
}

void SegmentContainer::applyFrame(std::vector<Operation> ops,
                                  std::vector<std::function<void(Result<int64_t>)>> completions,
                                  int64_t walSequence) {
    assert(ops.size() == completions.size());
    for (size_t i = 0; i < ops.size(); ++i) {
        applyOp(ops[i], walSequence, /*replay=*/false);
        completions[i](ops[i].offset);
    }
    lastAppliedSeq_ = walSequence;
    maybeCheckpoint();
}

void SegmentContainer::applyOp(Operation& op, int64_t walSequence, bool replay) {
    ++appliedOps_;
    ++opsSinceCheckpoint_;
    bytesSinceCheckpoint_ += op.data.size();

    switch (op.type) {
        case OpType::Create: {
            if (replay) {
                auto& meta = segments_[op.segment];
                meta = SegmentMeta{};
                meta.props.id = op.segment;
                meta.props.name = op.name;
                meta.props.isTable = op.isTable;
                readIndex_.addSegment(op.segment);
                attributes_.addSegment(op.segment);
            }
            break;
        }
        case OpType::Append: {
            SegmentMeta* meta = findSegment(op.segment);
            if (!meta) {
                if (!replay) break;
                // Pre-checkpoint tail during replay: materialize a
                // placeholder; a later checkpoint restores authoritative
                // metadata (§4.4 recovery).
                auto& m = segments_[op.segment];
                m.props.id = op.segment;
                readIndex_.addSegment(op.segment);
                attributes_.addSegment(op.segment);
                meta = &m;
            }
            if (replay) {
                meta->props.length = std::max(meta->props.length,
                                              op.offset + static_cast<int64_t>(op.data.size()));
                if (op.writer != 0) attributes_.set(op.segment, op.writer, op.eventNumber);
            }
            readIndex_.append(op.segment, op.offset, BufChain(op.data));
            meta->appliedLength = std::max(meta->appliedLength,
                                           op.offset + static_cast<int64_t>(op.data.size()));
            if (!meta->props.isTable) {
                storageWriter_->queueAppend(op.segment, op.offset, op.data, walSequence);
                if (!replay) {
                    auto& rate = rates_[op.segment];
                    rate.bytes += op.data.size();
                    rate.events += op.eventCount;
                    auto& cum = cumRates_[op.segment];
                    cum.bytes += op.data.size();
                    cum.events += op.eventCount;
                    cumBytes_ += op.data.size();
                    cumEvents_ += op.eventCount;
                }
            }
            if (!replay) wakeTailWaiters(op.segment);
            break;
        }
        case OpType::Seal: {
            SegmentMeta* meta = findSegment(op.segment);
            if (meta) {
                if (replay) meta->props.sealed = true;
                if (!replay) wakeTailWaiters(op.segment);  // waiters see end-of-segment
            }
            break;
        }
        case OpType::Truncate: {
            SegmentMeta* meta = findSegment(op.segment);
            if (meta) {
                if (replay) {
                    meta->props.startOffset = std::max(meta->props.startOffset, op.offset);
                }
                readIndex_.truncate(op.segment, op.offset);
            }
            break;
        }
        case OpType::Delete: {
            auto it = segments_.find(op.segment);
            if (it != segments_.end()) {
                it->second.props.deleted = true;
                readIndex_.removeSegment(op.segment);
                attributes_.removeSegment(op.segment);
                storageWriter_->notifyDeleted(op.segment);
                readStates_.erase(op.segment);
                auto fit = inflightFetches_.find(op.segment);
                if (fit != inflightFetches_.end()) {
                    auto fetches = std::move(fit->second);
                    inflightFetches_.erase(fit);
                    for (auto& [start, fetch] : fetches) {
                        if (fetch.prefetch) {
                            uint64_t bytes = static_cast<uint64_t>(fetch.end - start);
                            prefetchInflightBytes_ -= std::min(prefetchInflightBytes_, bytes);
                        }
                        for (auto& w : fetch.waiters) {
                            w.promise.setError(Status(Err::NotFound, "segment deleted"));
                        }
                    }
                }
                if (!replay) wakeTailWaiters(op.segment);
            }
            break;
        }
        case OpType::TableUpdate: {
            if (replay) {
                SegmentMeta* meta = findSegment(op.segment);
                if (meta) {
                    BinaryReader r(op.data.view());
                    auto batch = TableIndex::deserializeBatch(r);
                    if (batch) {
                        meta->table.apply(batch.value());
                        meta->props.length += static_cast<int64_t>(op.data.size());
                    }
                }
            }
            break;
        }
        case OpType::MetadataCheckpoint: {
            if (replay) {
                restoreCheckpoint(op.data.view());
            } else {
                checkpointSeqs_.push_back(walSequence);
                checkpointPending_ = false;
                ++checkpointsWritten_;
                truncateWalIfPossible();
            }
            break;
        }
    }
}

void SegmentContainer::wakeTailWaiters(SegmentId id) {
    auto it = tailWaiters_.find(id);
    if (it == tailWaiters_.end()) return;
    SegmentMeta* meta = findSegment(id);
    int64_t applied = meta ? meta->appliedLength : INT64_MAX;
    bool closed = !meta || meta->props.sealed;

    std::vector<TailWaiter> ready;
    auto& list = it->second;
    for (auto wit = list.begin(); wit != list.end();) {
        if (closed || wit->offset < applied) {
            ready.push_back(std::move(*wit));
            wit = list.erase(wit);
        } else {
            ++wit;
        }
    }
    if (list.empty()) tailWaiters_.erase(it);
    for (auto& w : ready) w.wake.setValue(sim::Unit{});
}

// ----------------------------------------------------------- checkpoints

void SegmentContainer::maybeCheckpoint() {
    if (checkpointPending_ || offline_) return;
    if (opsSinceCheckpoint_ < cfg_.checkpointEveryOps &&
        bytesSinceCheckpoint_ < cfg_.checkpointEveryBytes) {
        return;
    }
    checkpointPending_ = true;
    opsSinceCheckpoint_ = 0;
    bytesSinceCheckpoint_ = 0;

    Operation op;
    op.type = OpType::MetadataCheckpoint;
    op.data = SharedBuf(serializeCheckpoint());
    enqueueOp(std::move(op), [](const Result<int64_t>&) {});
}

Bytes SegmentContainer::serializeCheckpoint() const {
    Bytes out;
    BinaryWriter w(out);
    uint64_t live = 0;
    for (const auto& [id, meta] : segments_) {
        if (!meta.props.deleted) ++live;
    }
    w.varint(live);
    for (const auto& [id, meta] : segments_) {
        if (meta.props.deleted) continue;
        w.u64(id);
        w.str(meta.props.name);
        w.u8(meta.props.isTable ? 1 : 0);
        w.u8(meta.props.sealed ? 1 : 0);
        w.i64(meta.props.length);
        w.i64(meta.props.startOffset);
        w.i64(meta.props.storageLength);
        attributes_.serialize(id, w);
        if (meta.props.isTable) meta.table.serialize(w);
    }
    return out;
}

Status SegmentContainer::restoreCheckpoint(BytesView snapshot) {
    BinaryReader r(snapshot);
    auto count = r.varint();
    if (!count) return count.status();

    std::map<SegmentId, SegmentMeta> restored;
    for (uint64_t i = 0; i < count.value(); ++i) {
        auto id = r.u64();
        auto name = r.str();
        auto isTable = r.u8();
        auto sealed = r.u8();
        auto length = r.i64();
        auto startOffset = r.i64();
        auto storageLength = r.i64();
        if (!id || !name || !isTable || !sealed || !length || !startOffset || !storageLength) {
            return Status(Err::IoError, "corrupt checkpoint");
        }
        SegmentMeta meta;
        meta.props.id = id.value();
        meta.props.name = std::move(name.value());
        meta.props.isTable = isTable.value() != 0;
        meta.props.sealed = sealed.value() != 0;
        meta.props.length = length.value();
        meta.props.startOffset = startOffset.value();
        meta.props.storageLength = storageLength.value();
        meta.appliedLength = meta.props.length;
        Status attrs = attributes_.deserialize(id.value(), r);
        if (!attrs) return attrs;
        if (meta.props.isTable) {
            Status table = meta.table.deserialize(r);
            if (!table) return table;
        }
        readIndex_.addSegment(id.value());
        restored.emplace(id.value(), std::move(meta));
    }
    // Preserve read-index contents (replayed appends); metadata resets to
    // the snapshot, which is authoritative at this point in the log.
    segments_ = std::move(restored);
    return Status::ok();
}

void SegmentContainer::truncateWalIfPossible() {
    int64_t flushed = storageWriter_->flushedWalSequence();
    int64_t candidate = -1;
    while (!checkpointSeqs_.empty() && checkpointSeqs_.front() <= flushed) {
        candidate = checkpointSeqs_.front();
        checkpointSeqs_.pop_front();
    }
    if (candidate > lastTruncatedSeq_ + 1) {
        log_->truncate(wal::LogAddress{0, 0, candidate - 1});
        lastTruncatedSeq_ = candidate - 1;
        ++walTruncations_;
    }
}

void SegmentContainer::onSegmentFlushed(SegmentId id, int64_t newStorageLength) {
    SegmentMeta* meta = findSegment(id);
    if (!meta) return;
    meta->props.storageLength = std::max(meta->props.storageLength, newStorageLength);
    readIndex_.setStorageLength(id, meta->props.storageLength);
}

void SegmentContainer::onStorageProgress() {
    if (!offline_) truncateWalIfPossible();
}

// ------------------------------------------------------------- read path

sim::Future<ReadResult> SegmentContainer::read(SegmentId id, int64_t offset, int64_t maxBytes) {
    if (offline_) return sim::Future<ReadResult>::failed(Status(Err::ContainerOffline, ""));
    sim::Promise<ReadResult> p;
    auto fut = p.future();
    attemptRead(id, offset, maxBytes, std::move(p), 0, /*counted=*/false);
    return fut;
}

void SegmentContainer::attemptRead(SegmentId id, int64_t offset, int64_t maxBytes,
                                   sim::Promise<ReadResult> promise, int depth, bool counted) {
    SegmentMeta* meta = findSegment(id);
    if (!meta) {
        promise.setError(Err::NotFound, "no such segment");
        return;
    }
    auto outcome = readIndex_.read(id, offset, maxBytes, meta->appliedLength,
                                   meta->props.startOffset);
    if (!outcome) {
        promise.setError(outcome.status());
        return;
    }
    if (auto* hit = std::get_if<ReadHit>(&outcome.value())) {
        // Hit/miss accounting is by *first resolution*: a read counts once,
        // at the first attempt that resolves to data-in-cache (hit) or
        // needs-LTS (miss). Tail-woken reads land here uncounted and count
        // as hits; fetch retries arrive with counted=true and count nothing.
        if (!counted) mCacheHits_.inc();
        ReadResult res;
        res.data = std::move(hit->data);
        res.offset = offset;
        res.endOfSegment =
            meta->props.sealed &&
            offset + static_cast<int64_t>(res.data.size()) >= meta->appliedLength;
        int64_t readEnd = offset + static_cast<int64_t>(res.data.size());
        consumePrefetched(id, offset, readEnd);
        noteSequentialHit(id, offset, readEnd, *meta);
        promise.setValue(std::move(res));
        return;
    }
    if (std::holds_alternative<ReadAtTail>(outcome.value())) {
        if (meta->props.sealed) {
            ReadResult res;
            res.offset = offset;
            res.endOfSegment = true;
            promise.setValue(std::move(res));
            return;
        }
        // Register a tail waiter; retry when new data is applied (§4.2:
        // "return a future that will be completed when new data is added").
        // The wait itself is neither a hit nor a miss — `counted` rides
        // along so the woken retry attributes the read at its resolution.
        mTailWaits_.inc();
        TailWaiter waiter;
        waiter.offset = offset;
        auto wake = waiter.wake.future();
        tailWaiters_[id].push_back(std::move(waiter));
        wake.onComplete([this, id, offset, maxBytes, promise, depth,
                         counted](const Result<sim::Unit>& r) mutable {
            if (!r.isOk()) {
                promise.setError(r.status());
                return;
            }
            attemptRead(id, offset, maxBytes, std::move(promise), depth + 1, counted);
        });
        return;
    }

    // Cache miss: fetch the gap from LTS, index it, retry (§4.2).
    if (!counted) {
        mCacheMisses_.inc();
        counted = true;
    }
    auto miss = std::get<ReadMiss>(outcome.value());
    if (depth > 8) {
        promise.setError(Err::IoError, "read did not converge");
        return;
    }
    // A demand miss over a range we prefetched means the prefetch was
    // evicted before use — charge it as waste.
    chargeWastedPrefetch(id, miss.offset, miss.offset + miss.length);

    // Coalesce onto an in-flight fetch already covering the miss offset:
    // this reader rides that fetch instead of issuing its own.
    auto sit = inflightFetches_.find(id);
    if (sit != inflightFetches_.end()) {
        auto next = sit->second.upper_bound(miss.offset);
        if (next != sit->second.begin()) {
            auto prev = std::prev(next);
            if (prev->second.end > miss.offset) {
                mReadCoalesced_.inc();
                prev->second.waiters.push_back(
                    PendingRead{offset, maxBytes, std::move(promise), depth, counted});
                return;
            }
        }
    }

    int64_t start = miss.offset;
    int64_t end = miss.offset + miss.length;
    // Clip against the next in-flight fetch so fetched ranges never overlap.
    if (sit != inflightFetches_.end()) {
        auto next = sit->second.upper_bound(start);
        if (next != sit->second.end() && next->first < end) end = next->first;
    }
    PendingRead demand{offset, maxBytes, std::move(promise), depth, counted};
    int64_t fetched = startFetch(id, start, end, /*prefetch=*/false, &demand);
    if (cfg_.readPipeline.readahead && fetched > start) {
        if (SegmentMeta* m = findSegment(id)) maybePrefetch(id, fetched, *m);
    }
}

int64_t SegmentContainer::startFetch(SegmentId id, int64_t start, int64_t end, bool prefetch,
                                     PendingRead* demand) {
    auto chunks = storageWriter_->findChunks(id, start, end - start);
    // Build contiguous per-chunk pieces covering [start, ...), bounded by
    // the parallel-fetch fan-out cap. A gap (or a range past the flushed
    // chunks) stops coverage; demand readers on a gap get a hard error so
    // the inconsistency surfaces instead of looping.
    struct Piece {
        std::string name;
        uint64_t within = 0;
        uint64_t length = 0;
    };
    std::vector<Piece> pieces;
    int64_t cursor = start;
    for (const auto& c : chunks) {
        if (c.startOffset > cursor) break;  // gap in chunk coverage
        int64_t pieceEnd = std::min(end, c.startOffset + c.length);
        if (pieceEnd <= cursor) continue;
        pieces.push_back(Piece{c.name, static_cast<uint64_t>(cursor - c.startOffset),
                               static_cast<uint64_t>(pieceEnd - cursor)});
        cursor = pieceEnd;
        if (cursor >= end) break;
        if (static_cast<int>(pieces.size()) >= kMaxParallelChunkFetches) break;
    }
    if (pieces.empty()) {
        if (demand) {
            demand->promise.setError(Err::IoError, "chunk metadata inconsistent with read index");
        }
        return start;
    }
    int64_t fetchEnd = cursor;

    auto& entry = inflightFetches_[id][start];
    entry.end = fetchEnd;
    entry.prefetch = prefetch;
    entry.piecesRemaining = static_cast<int>(pieces.size());
    entry.startedAt = exec_.now();
    // The demand waiter must be registered BEFORE any piece is issued: a
    // synchronous backend completes reads inline, which would drain the
    // entry before the waiter existed.
    if (demand) entry.waiters.push_back(std::move(*demand));

    if (prefetch) {
        mPrefetchIssued_.inc();
        prefetchInflightBytes_ += static_cast<uint64_t>(fetchEnd - start);
    }
    uint64_t epoch = fetchEpoch_;
    int64_t pieceOffset = start;
    for (auto& piece : pieces) {
        int64_t insertAt = pieceOffset;
        pieceOffset += static_cast<int64_t>(piece.length);
        mLtsFetches_.inc();
        lts_.read(piece.name, piece.within, piece.length)
            .onComplete([this, id, start, insertAt, epoch](const Result<SharedBuf>& r) {
                if (epoch != fetchEpoch_ || offline_) return;
                Status st;
                if (r.isOk()) {
                    readIndex_.insertFromStorage(id, insertAt, r.value());
                } else {
                    st = r.status();
                }
                finishFetchPiece(id, start, st);
            });
    }
    return fetchEnd;
}

void SegmentContainer::finishFetchPiece(SegmentId id, int64_t start, Status st) {
    auto sit = inflightFetches_.find(id);
    if (sit == inflightFetches_.end()) return;
    auto eit = sit->second.find(start);
    if (eit == sit->second.end()) return;
    InflightFetch& entry = eit->second;
    if (!st && entry.failure) entry.failure = st;  // keep the first failure
    if (--entry.piecesRemaining > 0) return;

    // Fetch complete: detach the entry before waking waiters — their
    // retries may start new fetches on this segment.
    InflightFetch done = std::move(entry);
    sit->second.erase(eit);
    if (sit->second.empty()) inflightFetches_.erase(sit);

    if (done.prefetch) {
        uint64_t bytes = static_cast<uint64_t>(done.end - start);
        prefetchInflightBytes_ -= std::min(prefetchInflightBytes_, bytes);
        mPrefetchFetchNs_.record(exec_.now() - done.startedAt);
        if (done.failure) {
            // Record the landed range so later hits count as prefetch hits
            // and eviction-before-use lands on the waste counter.
            auto& pf = readStates_[id].prefetched;
            int64_t s = start;
            int64_t e = done.end;
            auto it = pf.lower_bound(s);
            if (it != pf.begin()) {
                auto prev = std::prev(it);
                if (prev->second >= s) {
                    s = prev->first;
                    e = std::max(e, prev->second);
                    pf.erase(prev);
                }
            }
            while (it != pf.end() && it->first <= e) {
                e = std::max(e, it->second);
                it = pf.erase(it);
            }
            pf[s] = e;
        }
    } else {
        mDemandFetchNs_.record(exec_.now() - done.startedAt);
    }

    for (auto& w : done.waiters) {
        if (done.failure) {
            attemptRead(id, w.offset, w.maxBytes, std::move(w.promise), w.depth + 1, w.counted);
        } else {
            w.promise.setError(done.failure);
        }
    }
}

void SegmentContainer::maybePrefetch(SegmentId id, int64_t from, const SegmentMeta& meta) {
    const auto& rp = cfg_.readPipeline;
    if (!rp.readahead || offline_) return;
    // Only flushed data has chunks to prefetch from; the unflushed tail is
    // already in cache (and the eviction policy protects it — prefetch must
    // not change that, hence the utilization margin below).
    int64_t horizon = std::min(
        meta.props.storageLength,
        from + static_cast<int64_t>(rp.prefetchWindows) *
                   static_cast<int64_t>(rp.prefetchFetchBytes));
    int64_t cursor = from;
    while (cursor < horizon) {
        cursor = readIndex_.contiguousEnd(id, cursor, horizon);  // skip cached runs
        if (cursor >= horizon) break;
        if (cache_.utilization() >= kPrefetchMaxCacheUtilization) break;
        if (prefetchInflightBytes_ >= kPrefetchBudgetBytes) break;
        int64_t end = std::min(horizon, cursor + static_cast<int64_t>(rp.prefetchFetchBytes));
        // Skip past (or clip against) fetches already in flight.
        bool covered = false;
        auto sit = inflightFetches_.find(id);
        if (sit != inflightFetches_.end()) {
            auto next = sit->second.upper_bound(cursor);
            if (next != sit->second.begin()) {
                auto prev = std::prev(next);
                if (prev->second.end > cursor) {
                    cursor = prev->second.end;
                    covered = true;
                }
            }
            if (!covered && next != sit->second.end() && next->first < end) end = next->first;
        }
        if (covered) continue;
        if (end <= cursor) break;
        int64_t got = startFetch(id, cursor, end, /*prefetch=*/true, nullptr);
        if (got <= cursor) break;  // no chunk coverage yet: stop
        cursor = got;
    }
}

void SegmentContainer::noteSequentialHit(SegmentId id, int64_t offset, int64_t readEnd,
                                         const SegmentMeta& meta) {
    auto& state = readStates_[id];
    state.streak = offset == state.lastReadEnd ? state.streak + 1 : 1;
    state.lastReadEnd = readEnd;
    if (state.streak >= cfg_.readPipeline.sequentialStreak) {
        maybePrefetch(id, readEnd, meta);
    }
}

bool SegmentContainer::consumePrefetched(SegmentId id, int64_t offset, int64_t readEnd) {
    auto rit = readStates_.find(id);
    if (rit == readStates_.end()) return false;
    auto& pf = rit->second.prefetched;
    bool any = false;
    auto it = pf.lower_bound(offset);
    if (it != pf.begin()) {
        auto prev = std::prev(it);
        if (prev->second > offset) it = prev;
    }
    while (it != pf.end() && it->first < readEnd) {
        int64_t a = it->first;
        int64_t b = it->second;
        any = true;
        it = pf.erase(it);
        if (a < offset) pf.emplace(a, offset);
        if (b > readEnd) {
            it = pf.emplace(readEnd, b).first;
            ++it;
        }
    }
    if (any) mPrefetchHits_.inc();
    return any;
}

void SegmentContainer::chargeWastedPrefetch(SegmentId id, int64_t missStart, int64_t missEnd) {
    auto rit = readStates_.find(id);
    if (rit == readStates_.end()) return;
    auto& pf = rit->second.prefetched;
    auto it = pf.lower_bound(missStart);
    if (it != pf.begin()) {
        auto prev = std::prev(it);
        if (prev->second > missStart) it = prev;
    }
    while (it != pf.end() && it->first < missEnd) {
        int64_t a = it->first;
        int64_t b = it->second;
        int64_t overlap = std::min(b, missEnd) - std::max(a, missStart);
        it = pf.erase(it);
        if (overlap > 0) mPrefetchWasted_.inc(static_cast<uint64_t>(overlap));
        if (a < missStart) pf.emplace(a, missStart);
        if (b > missEnd) {
            it = pf.emplace(missEnd, b).first;
            ++it;
        }
    }
}

// ----------------------------------------------------------- observation

std::map<SegmentId, SegmentRate> SegmentContainer::drainRates() {
    auto out = std::move(rates_);
    rates_.clear();
    return out;
}

std::vector<SegmentId> SegmentContainer::listSegments() const {
    std::vector<SegmentId> out;
    for (const auto& [id, meta] : segments_) {
        if (!meta.props.deleted) out.push_back(id);
    }
    return out;
}

}  // namespace pravega::segmentstore
