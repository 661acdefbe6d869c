// Tests for the segment container: the operation pipeline, exactly-once
// writer protocol, reads (cache/LTS/tail), storage tiering with WAL
// truncation, metadata checkpoints, crash recovery, and fencing (§4).
#include <gtest/gtest.h>

#include "lts/chunk_storage.h"
#include "segmentstore/container.h"
#include "sim/network.h"

namespace pravega::segmentstore {
namespace {

struct ContainerFixture : public ::testing::Test {
    sim::Machine exec;
    sim::Network net{exec, sim::Link::Config{}};
    sim::DiskModel::Config diskCfg;
    std::vector<std::unique_ptr<sim::DiskModel>> disks;
    std::vector<std::unique_ptr<wal::Bookie>> bookies;
    wal::LedgerRegistry registry;
    wal::LogMetadataStore logMeta;
    lts::InMemoryChunkStorage lts;
    BlockCache cache{BlockCache::Config{}};

    static constexpr SegmentId kSeg = makeSegmentId(0, 1);

    ContainerFixture() {
        for (int i = 0; i < 3; ++i) {
            disks.push_back(std::make_unique<sim::DiskModel>(exec, diskCfg));
            bookies.push_back(std::make_unique<wal::Bookie>(exec, 100 + i, *disks.back(),
                                                            wal::Bookie::Config{}));
        }
    }

    wal::WalEnv env() {
        std::vector<wal::Bookie*> ptrs;
        for (auto& b : bookies) ptrs.push_back(b.get());
        return wal::WalEnv{exec, net, registry, logMeta, ptrs};
    }

    ContainerConfig fastConfig() {
        ContainerConfig cfg;
        cfg.maxBatchDelay = sim::msec(2);
        cfg.checkpointEveryOps = 50;
        cfg.checkpointEveryBytes = 1024 * 1024;
        cfg.storage.flushTimeout = sim::msec(50);
        cfg.storage.scanInterval = sim::msec(10);
        cfg.storage.flushSizeBytes = 4096;
        return cfg;
    }

    std::unique_ptr<SegmentContainer> makeContainer(uint32_t id = 1,
                                                    ContainerConfig cfg = {},
                                                    lts::ChunkStorage* storage = nullptr) {
        auto c = std::make_unique<SegmentContainer>(exec, id, env(), /*host=*/1,
                                                    storage ? *storage : lts, cache, cfg);
        EXPECT_TRUE(c->start().isOk());
        return c;
    }

    SharedBuf payload(const std::string& s) { return SharedBuf(toBytes(s)); }

    /// Appends and runs the sim until the append is durable.
    int64_t appendSync(SegmentContainer& c, SegmentId seg, const std::string& data,
                       WriterId writer = 0, int64_t eventNumber = -1) {
        auto fut = c.append(seg, payload(data), writer, eventNumber, 1);
        exec.runUntilIdle();
        EXPECT_TRUE(fut.isReady());
        EXPECT_TRUE(fut.result().isOk()) << fut.result().status().toString();
        return fut.result().isOk() ? fut.result().value() : -999;
    }

    Bytes readSync(SegmentContainer& c, SegmentId seg, int64_t offset, int64_t maxBytes) {
        auto fut = c.read(seg, offset, maxBytes);
        exec.runUntilIdle();
        EXPECT_TRUE(fut.isReady());
        EXPECT_TRUE(fut.result().isOk()) << fut.result().status().toString();
        return fut.result().isOk() ? fut.result().value().data : Bytes{};
    }
};

TEST_F(ContainerFixture, CreateAppendRead) {
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "scope/stream/segment-0.1");
    exec.runUntilIdle();

    EXPECT_EQ(appendSync(*c, kSeg, "hello "), 0);
    EXPECT_EQ(appendSync(*c, kSeg, "world"), 6);
    EXPECT_EQ(toString(BytesView(readSync(*c, kSeg, 0, 100))), "hello world");

    auto info = c->getInfo(kSeg);
    ASSERT_TRUE(info.isOk());
    EXPECT_EQ(info.value().length, 11);
    EXPECT_EQ(info.value().name, "scope/stream/segment-0.1");
}

TEST_F(ContainerFixture, AppendToMissingSegmentFails) {
    auto c = makeContainer(1, fastConfig());
    auto fut = c->append(kSeg, payload("x"), 0, -1, 1);
    exec.runUntilIdle();
    EXPECT_EQ(fut.result().code(), Err::NotFound);
}

TEST_F(ContainerFixture, DuplicateCreateFails) {
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    auto fut = c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    EXPECT_EQ(fut.result().code(), Err::AlreadyExists);
}

TEST_F(ContainerFixture, ManyAppendsMultiplexIntoFewFrames) {
    auto c = makeContainer(1, fastConfig());
    // Two segments share the container's single WAL log.
    SegmentId segB = makeSegmentId(0, 2);
    c->createSegment(kSeg, "a");
    c->createSegment(segB, "b");
    exec.runUntilIdle();
    int acked = 0;
    for (int i = 0; i < 200; ++i) {
        c->append((i % 2) ? kSeg : segB, payload("0123456789"), 0, -1, 1)
            .onComplete([&](const Result<int64_t>& r) {
                ASSERT_TRUE(r.isOk());
                ++acked;
            });
    }
    exec.runUntilIdle();
    EXPECT_EQ(acked, 200);
    // 200 ops but far fewer WAL entries (frames batch ops together).
    EXPECT_LT(c->walLog().nextSequence(), 60);
    EXPECT_EQ(c->getInfo(kSeg).value().length, 1000);
    EXPECT_EQ(c->getInfo(segB).value().length, 1000);
}

TEST_F(ContainerFixture, WriterDedupIgnoresStaleEventNumbers) {
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();

    constexpr WriterId writer = 77;
    EXPECT_EQ(appendSync(*c, kSeg, "batch-1", writer, 10), 0);
    EXPECT_EQ(c->getWriterLastEventNumber(kSeg, writer), 10);

    // Retransmission of the same batch: acknowledged but NOT appended.
    EXPECT_EQ(appendSync(*c, kSeg, "batch-1", writer, 10), -1);
    EXPECT_EQ(c->getInfo(kSeg).value().length, 7);

    // Newer event number appends normally.
    EXPECT_EQ(appendSync(*c, kSeg, "batch-2", writer, 20), 7);
    EXPECT_EQ(c->getWriterLastEventNumber(kSeg, writer), 20);
    EXPECT_EQ(toString(BytesView(readSync(*c, kSeg, 0, 100))), "batch-1batch-2");
}

TEST_F(ContainerFixture, WritersTrackedIndependently) {
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    appendSync(*c, kSeg, "a", 1, 5);
    appendSync(*c, kSeg, "b", 2, 3);
    EXPECT_EQ(c->getWriterLastEventNumber(kSeg, 1), 5);
    EXPECT_EQ(c->getWriterLastEventNumber(kSeg, 2), 3);
    EXPECT_EQ(c->getWriterLastEventNumber(kSeg, 3), AttributeIndex::kNullValue);
}

TEST_F(ContainerFixture, ConditionalAppend) {
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    auto ok = c->conditionalAppend(kSeg, payload("first"), 0);
    exec.runUntilIdle();
    EXPECT_TRUE(ok.result().isOk());

    auto stale = c->conditionalAppend(kSeg, payload("lost-race"), 0);
    exec.runUntilIdle();
    EXPECT_EQ(stale.result().code(), Err::BadOffset);

    auto next = c->conditionalAppend(kSeg, payload("!"), 5);
    exec.runUntilIdle();
    EXPECT_TRUE(next.result().isOk());
    EXPECT_EQ(toString(BytesView(readSync(*c, kSeg, 0, 100))), "first!");
}

TEST_F(ContainerFixture, SealRejectsAppendsAndEndsReads) {
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    appendSync(*c, kSeg, "data");
    c->seal(kSeg);
    exec.runUntilIdle();

    auto fut = c->append(kSeg, payload("more"), 0, -1, 1);
    exec.runUntilIdle();
    EXPECT_EQ(fut.result().code(), Err::Sealed);

    // Reading past the data returns end-of-segment instead of blocking.
    auto read = c->read(kSeg, 4, 100);
    exec.runUntilIdle();
    ASSERT_TRUE(read.result().isOk());
    EXPECT_TRUE(read.result().value().endOfSegment);
}

TEST_F(ContainerFixture, TailReadCompletesOnAppend) {
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();

    auto read = c->read(kSeg, 0, 100);  // nothing written yet
    exec.runUntilIdle();
    EXPECT_FALSE(read.isReady());  // §4.2: a future completed on new data

    c->append(kSeg, payload("tail-data"), 0, -1, 1);
    exec.runUntilIdle();
    ASSERT_TRUE(read.isReady());
    ASSERT_TRUE(read.result().isOk());
    EXPECT_EQ(toString(BytesView(read.result().value().data)), "tail-data");
}

TEST_F(ContainerFixture, TruncateMovesStartOffset) {
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    appendSync(*c, kSeg, "0123456789");
    c->truncate(kSeg, 4);
    exec.runUntilIdle();

    auto before = c->read(kSeg, 0, 10);
    exec.runUntilIdle();
    EXPECT_EQ(before.result().code(), Err::Truncated);
    EXPECT_EQ(toString(BytesView(readSync(*c, kSeg, 4, 10))), "456789");
    EXPECT_EQ(c->getInfo(kSeg).value().startOffset, 4);
}

TEST_F(ContainerFixture, DeleteSegment) {
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    appendSync(*c, kSeg, "bye");
    c->deleteSegment(kSeg);
    exec.runUntilIdle();
    EXPECT_EQ(c->getInfo(kSeg).code(), Err::NotFound);
    auto fut = c->append(kSeg, payload("x"), 0, -1, 1);
    exec.runUntilIdle();
    EXPECT_EQ(fut.result().code(), Err::NotFound);
}

TEST_F(ContainerFixture, StorageWriterFlushesToLts) {
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    appendSync(*c, kSeg, std::string(10000, 'x'));  // above flushSizeBytes

    exec.runFor(sim::sec(1));  // let the storage writer run
    EXPECT_GT(c->storageWriter().flushedBytes(), 0u);
    EXPECT_EQ(c->getInfo(kSeg).value().storageLength, 10000);
    EXPECT_GT(lts.totalBytes(), 0u);
    // Chunk metadata recorded in the container's system table segment.
    auto chunks = c->tableScan(c->systemTableSegment(), "chunks/");
    EXPECT_FALSE(chunks.empty());
}

TEST_F(ContainerFixture, ChunksRollOver) {
    auto cfg = fastConfig();
    cfg.storage.maxChunkBytes = 4096;
    auto c = makeContainer(1, cfg);
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    appendSync(*c, kSeg, std::string(20000, 'y'));
    exec.runFor(sim::sec(1));
    auto chunks = c->tableScan(c->systemTableSegment(), "chunks/");
    EXPECT_GE(chunks.size(), 5u);  // 20000 / 4096
    EXPECT_EQ(c->getInfo(kSeg).value().storageLength, 20000);
}

TEST_F(ContainerFixture, CompactorMergesSmallChunksAndPreservesOffsets) {
    // Phase 1: a container configured with tiny chunks litters LTS with
    // small objects (the real-world source of small-chunk runs is a raised
    // maxChunkBytes across restarts — reproduced here via recovery).
    {
        auto cfg = fastConfig();
        cfg.storage.maxChunkBytes = 1024;
        auto c = makeContainer(1, cfg);
        c->createSegment(kSeg, "s");
        exec.runUntilIdle();
        appendSync(*c, kSeg, std::string(8192, 'y'));
        exec.runFor(sim::sec(1));
        auto before = c->tableScan(c->systemTableSegment(), "chunks/");
        ASSERT_GE(before.size(), 8u);
    }  // container dies; metadata + chunks survive in lts/WAL

    // Phase 2: successor with bigger chunks and compaction enabled.
    auto cfg = fastConfig();
    cfg.storage.maxChunkBytes = 16 * 1024;
    cfg.storage.compactMinChunkBytes = 4096;  // the 1 KB chunks qualify
    cfg.storage.compactInterval = sim::msec(100);
    auto c = makeContainer(1, cfg);
    exec.runUntilIdle();
    // An append registers the segment with the storage writer's scan.
    appendSync(*c, kSeg, std::string(100, 'z'));
    exec.runFor(sim::sec(2));  // flush + compaction scans run

    auto after = c->tableScan(c->systemTableSegment(), "chunks/");
    ASSERT_FALSE(after.empty());
    EXPECT_LT(after.size(), 8u);  // small-chunk run collapsed
    EXPECT_GT(c->storageWriter().compactions(), 0u);

    // findChunks' invariants: records contiguous from 0, keys in offset
    // order, and every record's chunk exists in LTS at the recorded length.
    int64_t cursor = 0;
    for (const auto& [key, value] : after) {
        auto rec = ChunkRecord::deserialize(BytesView(value.value));
        ASSERT_TRUE(rec.isOk());
        EXPECT_EQ(rec.value().startOffset, cursor) << "gap/overlap at key " << key;
        cursor += rec.value().length;
        auto info = lts.stat(rec.value().name);
        ASSERT_TRUE(info.isOk()) << rec.value().name;
        EXPECT_EQ(static_cast<int64_t>(info.value().length), rec.value().length);
    }
    EXPECT_EQ(cursor, 8192 + 100);

    // Data identical after the merge: every byte of the original run.
    auto merged = ChunkRecord::deserialize(BytesView(after.front().second.value)).value();
    auto data = lts.read(merged.name, 0, static_cast<uint64_t>(merged.length));
    exec.runUntilIdle();
    ASSERT_TRUE(data.result().isOk());
    for (uint8_t b : data.result().value().view()) EXPECT_EQ(b, 'y');

    // Regression (chunk index from KEY, not record count): a post-compaction
    // flush must key its new chunks after the surviving ones.
    appendSync(*c, kSeg, std::string(20000, 'w'));
    exec.runFor(sim::sec(1));
    auto later = c->tableScan(c->systemTableSegment(), "chunks/");
    cursor = 0;
    std::string prevKey;
    for (const auto& [key, value] : later) {
        EXPECT_GT(key, prevKey);
        prevKey = key;
        auto rec = ChunkRecord::deserialize(BytesView(value.value));
        ASSERT_TRUE(rec.isOk());
        EXPECT_EQ(rec.value().startOffset, cursor) << "order broken at " << key;
        cursor += rec.value().length;
    }
    EXPECT_EQ(cursor, 8192 + 100 + 20000);
    EXPECT_EQ(c->getInfo(kSeg).value().storageLength, 8192 + 100 + 20000);
}

TEST_F(ContainerFixture, CompactionSurvivesWriterRestart) {
    // Regression guard: a stop()/start() cycle while the pre-stop compaction
    // timer is still in flight must leave compaction working. start()'s
    // armCompactTimer() used to no-op on the stale armed flag, and the stale
    // timer cleared the flag but bailed on the epoch mismatch without
    // re-arming — compaction then stayed dead until the next start() call
    // happened to re-arm it.
    {
        auto cfg = fastConfig();
        cfg.storage.maxChunkBytes = 1024;
        auto c = makeContainer(1, cfg);
        c->createSegment(kSeg, "s");
        exec.runUntilIdle();
        appendSync(*c, kSeg, std::string(8192, 'y'));
        exec.runFor(sim::sec(1));
    }  // small-chunk litter survives in LTS/WAL

    auto cfg = fastConfig();
    cfg.storage.maxChunkBytes = 16 * 1024;
    cfg.storage.compactMinChunkBytes = 4096;
    cfg.storage.compactInterval = sim::msec(100);
    auto c = makeContainer(1, cfg);
    exec.runUntilIdle();
    // Cycle the writer before the first compactInterval elapses: the timer
    // armed by the initial start() is still pending across this restart.
    c->storageWriter().stop();
    c->storageWriter().start();
    appendSync(*c, kSeg, std::string(100, 'z'));
    exec.runFor(sim::sec(2));  // flush + compaction scans run
    EXPECT_GT(c->storageWriter().compactions(), 0u);
}

TEST_F(ContainerFixture, WalTruncatedAfterFlushAndCheckpoint) {
    auto cfg = fastConfig();
    cfg.checkpointEveryOps = 10;
    cfg.log.rolloverBytes = 8 * 1024;
    auto c = makeContainer(1, cfg);
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    for (int i = 0; i < 100; ++i) {
        c->append(kSeg, payload(std::string(1000, 'z')), 0, -1, 1);
        exec.runFor(sim::msec(20));
    }
    exec.runFor(sim::sec(2));
    EXPECT_GT(c->checkpointsWritten(), 0u);
    EXPECT_GT(c->walTruncations(), 0u);
    // Truncation keeps the ledger count bounded (old ledgers deleted).
    EXPECT_LT(c->walLog().ledgerCount(), 6u);
}

TEST_F(ContainerFixture, RecoveryRestoresDataAndAttributes) {
    auto cfg = fastConfig();
    {
        auto c = makeContainer(1, cfg);
        c->createSegment(kSeg, "recoverable");
        exec.runUntilIdle();
        appendSync(*c, kSeg, "persisted-", 55, 1);
        appendSync(*c, kSeg, "data", 55, 2);
        // NOT shut down cleanly: recovery must come from the WAL alone.
    }
    auto fresh = makeContainer(1, cfg);
    auto info = fresh->getInfo(kSeg);
    ASSERT_TRUE(info.isOk());
    EXPECT_EQ(info.value().length, 14);
    EXPECT_EQ(info.value().name, "recoverable");
    EXPECT_EQ(fresh->getWriterLastEventNumber(kSeg, 55), 2);
    EXPECT_EQ(toString(BytesView(readSync(*fresh, kSeg, 0, 100))), "persisted-data");
}

TEST_F(ContainerFixture, RecoveryAfterCheckpointAndTruncation) {
    auto cfg = fastConfig();
    cfg.checkpointEveryOps = 10;
    {
        auto c = makeContainer(1, cfg);
        c->createSegment(kSeg, "s");
        exec.runUntilIdle();
        for (int i = 0; i < 60; ++i) {
            c->append(kSeg, payload("0123456789"), 0, -1, 1);
            exec.runFor(sim::msec(10));
        }
        exec.runFor(sim::sec(2));  // flush + checkpoint + truncate
        ASSERT_GT(c->walTruncations(), 0u);
    }
    auto fresh = makeContainer(1, cfg);
    auto info = fresh->getInfo(kSeg);
    ASSERT_TRUE(info.isOk());
    EXPECT_EQ(info.value().length, 600);
    // All data readable: the pre-truncation prefix comes from LTS.
    Bytes all = readSync(*fresh, kSeg, 0, 600);
    size_t got = all.size();
    int64_t offset = static_cast<int64_t>(got);
    while (offset < 600) {
        Bytes more = readSync(*fresh, kSeg, offset, 600 - offset);
        ASSERT_FALSE(more.empty());
        offset += static_cast<int64_t>(more.size());
    }
    EXPECT_EQ(offset, 600);
}

TEST_F(ContainerFixture, RecoveryPreservesTables) {
    auto cfg = fastConfig();
    SegmentId table = makeSegmentId(0, 9);
    {
        auto c = makeContainer(1, cfg);
        c->createSegment(table, "meta", /*isTable=*/true);
        exec.runUntilIdle();
        std::vector<TableUpdate> batch(1);
        batch[0].key = "stream/s1";
        batch[0].value = toBytes("config-v1");
        c->tableUpdate(table, std::move(batch));
        exec.runUntilIdle();
    }
    auto fresh = makeContainer(1, cfg);
    auto value = fresh->tableGet(table, "stream/s1");
    ASSERT_TRUE(value.isOk());
    EXPECT_EQ(toString(BytesView(value.value().value)), "config-v1");
}

TEST_F(ContainerFixture, FencingTakesContainerOffline) {
    auto cfg = fastConfig();
    auto old = makeContainer(1, cfg);
    old->createSegment(kSeg, "s");
    exec.runUntilIdle();
    appendSync(*old, kSeg, "before-failover");

    // A new owner starts the same container (crash takeover, §4.4). Its
    // recovery fences the WAL...
    auto fresh = makeContainer(1, cfg);
    EXPECT_EQ(toString(BytesView(readSync(*fresh, kSeg, 0, 100))), "before-failover");

    // ...so the old instance's next WAL write fails and it shuts down.
    auto fut = old->append(kSeg, payload("zombie-write"), 0, -1, 1);
    exec.runUntilIdle();
    EXPECT_FALSE(fut.result().isOk());
    EXPECT_TRUE(old->isOffline());

    // The data written by the zombie never became visible at the new owner.
    EXPECT_EQ(fresh->getInfo(kSeg).value().length, 15);
}

TEST_F(ContainerFixture, ThrottlingDelaysAppendsWhenLtsBacklogged) {
    sim::Machine exec2;
    // An LTS that cannot keep up: 1 MB/s.
    sim::ObjectStoreModel::Config slowCfg;
    slowCfg.perStreamBytesPerSec = 1024 * 1024;
    slowCfg.aggregateBytesPerSec = 1024 * 1024;
    slowCfg.maxConcurrent = 1;
    lts::SimulatedObjectStorage slowLts(exec, slowCfg);

    auto cfg = fastConfig();
    cfg.storage.flushSizeBytes = 1024 * 1024;  // push data to LTS quickly
    cfg.throttleStartSeconds = 0.05;
    cfg.throttleFullSeconds = 1.0;
    cfg.maxThrottleDelay = sim::msec(100);
    auto c = makeContainer(1, cfg, &slowLts);
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();

    // Build a backlog: 8 MB into a 1 MB/s LTS, without draining the sim.
    for (int i = 0; i < 8; ++i) c->append(kSeg, payload(std::string(1024 * 1024, 'b')), 0, -1, 1);
    exec.runFor(sim::msec(300));  // flushes start queueing on the slow LTS
    ASSERT_GT(slowLts.backlogSeconds(), cfg.throttleStartSeconds);

    // Appends now incur a visible admission delay (§4.3 backpressure).
    sim::TimePoint start = exec.now();
    auto fut = c->append(kSeg, payload("throttled"), 0, -1, 1);
    bool done = false;
    fut.onComplete([&](const Result<int64_t>&) { done = true; });
    while (!done) exec.runOne();
    ASSERT_TRUE(fut.result().isOk());
    EXPECT_GT(exec.now() - start, sim::msec(5));
}

TEST_F(ContainerFixture, ReadFromLtsAfterEviction) {
    // A tiny cache forces eviction of flushed data; reads must transparently
    // come back from LTS (§4.2's unified view).
    BlockCache::Config tiny;
    tiny.blockSize = 4096;
    tiny.blocksPerBuffer = 4;
    tiny.maxBuffers = 2;  // 32 KB
    BlockCache smallCache(tiny);
    auto cfg = fastConfig();
    auto c = std::make_unique<SegmentContainer>(exec, 1, env(), 1, lts, smallCache, cfg);
    ASSERT_TRUE(c->start().isOk());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();

    std::string first(16000, 'A');
    std::string second(16000, 'B');
    appendSync(*c, kSeg, first);
    exec.runFor(sim::sec(1));  // flush 'A' region to LTS
    appendSync(*c, kSeg, second);
    exec.runFor(sim::sec(1));  // evicts the 'A' region

    Bytes head = readSync(*c, kSeg, 0, 100);
    ASSERT_FALSE(head.empty());
    EXPECT_EQ(head[0], 'A');
}

TEST_F(ContainerFixture, DrainRatesReportsPerSegmentTraffic) {
    auto c = makeContainer(1, fastConfig());
    SegmentId segB = makeSegmentId(0, 2);
    c->createSegment(kSeg, "a");
    c->createSegment(segB, "b");
    exec.runUntilIdle();
    appendSync(*c, kSeg, "0123456789");
    appendSync(*c, segB, "01234");
    auto rates = c->drainRates();
    EXPECT_EQ(rates[kSeg].bytes, 10u);
    EXPECT_EQ(rates[kSeg].events, 1u);
    EXPECT_EQ(rates[segB].bytes, 5u);
    // Draining resets the counters.
    EXPECT_TRUE(c->drainRates().empty());
}

/// Wraps a chunk store and defers read completion by a fixed virtual-time
/// delay, so concurrent readers can pile onto one in-flight LTS fetch (the
/// in-memory backend completes synchronously, which would hide coalescing).
class DelayedChunkStorage : public lts::ChunkStorage {
public:
    DelayedChunkStorage(sim::Machine& exec, lts::ChunkStorage& inner, sim::Duration readDelay)
        : exec_(exec), inner_(inner), delay_(readDelay) {}

    sim::Future<sim::Unit> create(const std::string& name) override { return inner_.create(name); }
    sim::Future<sim::Unit> append(const std::string& name, BufChain data) override {
        return inner_.append(name, std::move(data));
    }
    sim::Future<SharedBuf> read(const std::string& name, uint64_t offset,
                                uint64_t length) override {
        ++reads_;
        sim::Promise<SharedBuf> p;
        auto fut = p.future();
        exec_.schedule(delay_, [this, name, offset, length, p]() mutable {
            inner_.read(name, offset, length)
                .onComplete([p](const Result<SharedBuf>& r) mutable { p.complete(r); });
        });
        return fut;
    }
    sim::Future<sim::Unit> remove(const std::string& name) override { return inner_.remove(name); }
    Result<lts::ChunkInfo> stat(const std::string& name) const override {
        return inner_.stat(name);
    }
    uint64_t totalBytes() const override { return inner_.totalBytes(); }
    uint64_t readOps() const override { return reads_; }

private:
    sim::Machine& exec_;
    lts::ChunkStorage& inner_;
    sim::Duration delay_;
    uint64_t reads_ = 0;
};

TEST_F(ContainerFixture, ConcurrentMissStormCoalescesIntoOneLtsRead) {
    // N readers miss on the same cold range at once; the in-flight fetch
    // table must issue exactly ONE object-store read and park the rest.
    BlockCache::Config tiny;
    tiny.blockSize = 4096;
    tiny.blocksPerBuffer = 4;
    tiny.maxBuffers = 2;  // 32 KB
    BlockCache smallCache(tiny);
    DelayedChunkStorage slowLts(exec, lts, sim::msec(10));
    auto cfg = fastConfig();
    cfg.readPipeline.readahead = false;  // isolate coalescing from prefetch
    auto c = std::make_unique<SegmentContainer>(exec, 1, env(), 1, slowLts, smallCache, cfg);
    ASSERT_TRUE(c->start().isOk());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();

    appendSync(*c, kSeg, std::string(16000, 'A'));
    exec.runFor(sim::sec(1));  // flush the 'A' region to LTS
    appendSync(*c, kSeg, std::string(16000, 'B'));
    exec.runFor(sim::sec(1));  // cache policy evicts the 'A' region

    uint64_t readsBefore = slowLts.readOps();
    uint64_t coalescedBefore = exec.metrics().counter("store.read.coalesced").value();
    constexpr int kReaders = 8;
    std::vector<sim::Future<ReadResult>> futs;
    for (int i = 0; i < kReaders; ++i) futs.push_back(c->read(kSeg, 0, 100));
    exec.runUntilIdle();

    for (auto& f : futs) {
        ASSERT_TRUE(f.isReady());
        ASSERT_TRUE(f.result().isOk()) << f.result().status().toString();
        ASSERT_FALSE(f.result().value().data.empty());
        EXPECT_EQ(f.result().value().data[0], 'A');
    }
    EXPECT_EQ(slowLts.readOps() - readsBefore, 1u);
    EXPECT_EQ(exec.metrics().counter("store.read.coalesced").value() - coalescedBefore,
              static_cast<uint64_t>(kReaders - 1));
}

TEST_F(ContainerFixture, PrefetchNeverEvictsUnflushedTail) {
    // A catch-up reader with readahead on races through a flushed backlog
    // while an unflushed tail sits in cache. The prefetch budget/utilization
    // guard plus the watermark eviction rule must keep the tail resident:
    // the tail read is a cache hit (it CANNOT come from LTS — no chunks).
    BlockCache::Config tiny;
    tiny.blockSize = 4096;
    tiny.blocksPerBuffer = 4;
    tiny.maxBuffers = 2;  // 32 KB, much smaller than the backlog
    BlockCache smallCache(tiny);
    auto cfg = fastConfig();
    cfg.readPipeline.readahead = true;
    cfg.readPipeline.prefetchFetchBytes = 8192;
    cfg.readPipeline.prefetchWindows = 2;
    cfg.readPipeline.sequentialStreak = 1;
    auto c = std::make_unique<SegmentContainer>(exec, 1, env(), 1, lts, smallCache, cfg);
    ASSERT_TRUE(c->start().isOk());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();

    constexpr int64_t kBacklog = 64000;
    appendSync(*c, kSeg, std::string(kBacklog, 'A'));
    exec.runFor(sim::sec(1));  // backlog flushed to LTS, mostly evicted
    ASSERT_EQ(c->getInfo(kSeg).value().storageLength, kBacklog);
    appendSync(*c, kSeg, std::string(8000, 'B'));  // unflushed tail (no runFor)

    // Catch up sequentially through the backlog; readahead kicks in.
    int64_t offset = 0;
    while (offset < kBacklog) {
        Bytes got = readSync(*c, kSeg, offset, 4000);
        ASSERT_FALSE(got.empty());
        for (uint8_t b : got) ASSERT_EQ(b, 'A');
        offset += static_cast<int64_t>(got.size());
    }
    EXPECT_GT(exec.metrics().counter("store.prefetch.issued").value(), 0u);

    // The tail must still be served from cache: no LTS read can satisfy it
    // (nothing above the watermark has chunks), so success == residency.
    uint64_t ltsReadsBefore = lts.readOps();
    Bytes tail = readSync(*c, kSeg, kBacklog, 4000);
    ASSERT_FALSE(tail.empty());
    for (uint8_t b : tail) ASSERT_EQ(b, 'B');
    EXPECT_EQ(lts.readOps(), ltsReadsBefore);
}

TEST_F(ContainerFixture, OfflineContainerRejectsEverything) {
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    c->shutdown();
    auto a = c->append(kSeg, payload("x"), 0, -1, 1);
    auto r = c->read(kSeg, 0, 10);
    exec.runUntilIdle();
    EXPECT_EQ(a.result().code(), Err::ContainerOffline);
    EXPECT_EQ(r.result().code(), Err::ContainerOffline);
}

}  // namespace
}  // namespace pravega::segmentstore
