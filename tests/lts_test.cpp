// Tests for the LTS chunk-storage backends: semantics shared across all
// four, the codec decorator (compression + checksums), the archive tier,
// plus timing behaviour of the simulated object store and real-file
// persistence of the filesystem backend.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/hash.h"
#include "lts/archive_tier.h"
#include "lts/chunk_codec.h"
#include "lts/chunk_storage.h"
#include "lts/fault_injection.h"
#include "sim/machine.h"

namespace pravega::lts {
namespace {

template <typename T>
T waitValue(sim::Machine& exec, sim::Future<T> fut) {
    exec.runUntilIdle();
    EXPECT_TRUE(fut.isReady());
    EXPECT_TRUE(fut.result().isOk()) << fut.result().status().toString();
    return fut.result().value();
}

template <typename T>
Result<T> waitResult(sim::Machine& exec, sim::Future<T> fut) {
    exec.runUntilIdle();
    EXPECT_TRUE(fut.isReady());
    return fut.result();
}

Status waitStatus(sim::Machine& exec, sim::Future<sim::Unit> fut) {
    exec.runUntilIdle();
    EXPECT_TRUE(fut.isReady());
    return fut.result().status();
}

// Shared semantics across all four backends (parameterized conformance
// suite). NoOp discards payload bytes by design, so content assertions are
// gated on dataFidelity(); every size, error-code, and offset-contract
// assertion applies to it unchanged.
enum class Backend { InMemory, Simulated, FileSystem, NoOp };

class ChunkStorageSemantics : public ::testing::TestWithParam<Backend> {
protected:
    void SetUp() override {
        switch (GetParam()) {
            case Backend::InMemory:
                storage_ = std::make_unique<InMemoryChunkStorage>();
                break;
            case Backend::Simulated:
                storage_ = std::make_unique<SimulatedObjectStorage>(
                    exec_, sim::ObjectStoreModel::Config{});
                break;
            case Backend::FileSystem: {
                root_ = "/tmp/pravega-lts-test-" + std::to_string(::getpid());
                std::filesystem::remove_all(root_);
                storage_ = std::make_unique<FileSystemChunkStorage>(root_);
                break;
            }
            case Backend::NoOp:
                storage_ = std::make_unique<NoOpChunkStorage>();
                break;
        }
    }
    void TearDown() override {
        storage_.reset();
        if (!root_.empty()) std::filesystem::remove_all(root_);
    }

    bool dataFidelity() const { return GetParam() != Backend::NoOp; }

    sim::Machine exec_;
    std::unique_ptr<ChunkStorage> storage_;
    std::string root_;
};

TEST_P(ChunkStorageSemantics, CreateAppendReadRoundTrip) {
    EXPECT_TRUE(waitStatus(exec_, storage_->create("chunk-1")).isOk());
    EXPECT_TRUE(waitStatus(exec_, storage_->append("chunk-1", SharedBuf(toBytes("hello ")))).isOk());
    EXPECT_TRUE(waitStatus(exec_, storage_->append("chunk-1", SharedBuf(toBytes("world")))).isOk());
    auto data = waitValue(exec_, storage_->read("chunk-1", 0, 100));
    EXPECT_EQ(data.size(), 11u);
    auto part = waitValue(exec_, storage_->read("chunk-1", 6, 5));
    EXPECT_EQ(part.size(), 5u);
    if (dataFidelity()) {
        EXPECT_EQ(toString(data.view()), "hello world");
        EXPECT_EQ(toString(part.view()), "world");
    }
}

TEST_P(ChunkStorageSemantics, OutOfRangeReadContract) {
    waitStatus(exec_, storage_->create("c"));
    waitStatus(exec_, storage_->append("c", SharedBuf(toBytes("hello"))));
    // offset == size: empty buffer, success.
    auto atEnd = waitResult(exec_, storage_->read("c", 5, 10));
    ASSERT_TRUE(atEnd.isOk()) << atEnd.status().toString();
    EXPECT_EQ(atEnd.value().size(), 0u);
    // offset > size: BadOffset.
    EXPECT_EQ(waitResult(exec_, storage_->read("c", 6, 1)).code(), Err::BadOffset);
    // length past EOF: clamped short read.
    auto tail = waitResult(exec_, storage_->read("c", 2, 100));
    ASSERT_TRUE(tail.isOk());
    EXPECT_EQ(tail.value().size(), 3u);
    if (dataFidelity()) {
        EXPECT_EQ(toString(tail.value().view()), "llo");
    }
}

TEST_P(ChunkStorageSemantics, ReadMissingChunkFails) {
    EXPECT_EQ(waitResult(exec_, storage_->read("ghost", 0, 1)).code(), Err::NotFound);
}

TEST_P(ChunkStorageSemantics, CreateDuplicateFails) {
    waitStatus(exec_, storage_->create("c"));
    EXPECT_EQ(waitStatus(exec_, storage_->create("c")).code(), Err::AlreadyExists);
}

TEST_P(ChunkStorageSemantics, AppendToMissingChunkFails) {
    EXPECT_EQ(waitStatus(exec_, storage_->append("nope", SharedBuf(toBytes("x")))).code(),
              Err::NotFound);
}

TEST_P(ChunkStorageSemantics, StatReportsLength) {
    waitStatus(exec_, storage_->create("c"));
    waitStatus(exec_, storage_->append("c", SharedBuf(toBytes("12345"))));
    auto info = storage_->stat("c");
    ASSERT_TRUE(info.isOk());
    EXPECT_EQ(info.value().length, 5u);
    EXPECT_EQ(storage_->stat("missing").code(), Err::NotFound);
}

TEST_P(ChunkStorageSemantics, RemoveDeletes) {
    waitStatus(exec_, storage_->create("c"));
    waitStatus(exec_, storage_->append("c", SharedBuf(toBytes("abc"))));
    EXPECT_TRUE(waitStatus(exec_, storage_->remove("c")).isOk());
    EXPECT_EQ(storage_->stat("c").code(), Err::NotFound);
    EXPECT_EQ(waitStatus(exec_, storage_->remove("c")).code(), Err::NotFound);
}

INSTANTIATE_TEST_SUITE_P(Backends, ChunkStorageSemantics,
                         ::testing::Values(Backend::InMemory, Backend::Simulated,
                                           Backend::FileSystem, Backend::NoOp));

TEST(SimulatedObjectStorageTest, TransfersTakeModelTime) {
    sim::Machine exec;
    sim::ObjectStoreModel::Config cfg;
    cfg.opLatency = sim::msec(8);
    SimulatedObjectStorage storage(exec, cfg);
    storage.create("c");
    exec.runUntilIdle();
    sim::TimePoint start = exec.now();
    auto fut = storage.append("c", SharedBuf(Bytes(1024, 0)));
    exec.runUntilIdle();
    EXPECT_TRUE(fut.isReady());
    EXPECT_GE(exec.now() - start, sim::msec(8));
}

TEST(SimulatedObjectStorageTest, ReportsBacklog) {
    sim::Machine exec;
    sim::ObjectStoreModel::Config cfg;
    cfg.perStreamBytesPerSec = 1024 * 1024;
    cfg.aggregateBytesPerSec = 1024 * 1024;
    cfg.maxConcurrent = 1;
    SimulatedObjectStorage storage(exec, cfg);
    storage.create("c");
    exec.runUntilIdle();
    storage.append("c", SharedBuf(Bytes(10 * 1024 * 1024, 0)));
    EXPECT_GT(storage.backlogSeconds(), 5.0);
}

TEST(NoOpChunkStorageTest, DiscardsDataButTracksSizes) {
    sim::Machine exec;
    NoOpChunkStorage storage;
    storage.create("c");
    storage.append("c", SharedBuf(toBytes("hello")));
    exec.runUntilIdle();
    EXPECT_EQ(storage.stat("c").value().length, 5u);
    EXPECT_EQ(storage.totalBytes(), 0u);  // nothing retained
    auto fut = storage.read("c", 0, 5);
    exec.runUntilIdle();
    ASSERT_TRUE(fut.result().isOk());
    EXPECT_EQ(fut.result().value().size(), 5u);  // zero-filled, right size
}

TEST(SimulatedObjectStorageTest, TailReadChargesActualBytesNotRequested) {
    // Regression: read() used to charge the timing model for the REQUESTED
    // length; a tail read near EOF then paid seconds of transfer time for
    // bytes that never existed.
    sim::Machine exec;
    sim::ObjectStoreModel::Config cfg;
    cfg.opLatency = sim::msec(8);
    cfg.perStreamBytesPerSec = 1024;  // 1 KB/s: requested-length bug = ~1 s
    cfg.aggregateBytesPerSec = 1024;
    SimulatedObjectStorage storage(exec, cfg);
    storage.create("c");
    auto wrote = storage.append("c", SharedBuf(Bytes(1024, 7)));
    exec.runUntilIdle();
    ASSERT_TRUE(wrote.result().isOk());

    sim::TimePoint start = exec.now();
    auto fut = storage.read("c", 1024 - 16, 1000);  // only 16 bytes exist
    exec.runUntilIdle();
    ASSERT_TRUE(fut.result().isOk());
    EXPECT_EQ(fut.result().value().size(), 16u);
    // 16 bytes at 1 KB/s ≈ 16 ms (+8 ms op latency); the requested 1000
    // bytes would have cost ~1 s.
    EXPECT_LT(exec.now() - start, sim::msec(200));
}

TEST(FileSystemChunkStorageTest, SlashAndUnderscoreNamesDoNotCollide) {
    // Regression: pathFor() used to mangle '/' to '_', so chunks "a/b" and
    // "a_b" shared one file and silently interleaved their bytes.
    std::string root = "/tmp/pravega-lts-collide-" + std::to_string(::getpid());
    std::filesystem::remove_all(root);
    sim::Machine exec;
    {
        FileSystemChunkStorage storage(root);
        EXPECT_TRUE(waitStatus(exec, storage.create("a/b")).isOk());
        EXPECT_TRUE(waitStatus(exec, storage.create("a_b")).isOk());
        waitStatus(exec, storage.append("a/b", SharedBuf(toBytes("slash"))));
        waitStatus(exec, storage.append("a_b", SharedBuf(toBytes("under"))));
        auto slash = waitValue(exec, storage.read("a/b", 0, 100));
        auto under = waitValue(exec, storage.read("a_b", 0, 100));
        EXPECT_EQ(toString(slash.view()), "slash");
        EXPECT_EQ(toString(under.view()), "under");
        EXPECT_EQ(storage.stat("a/b").value().length, 5u);
        EXPECT_EQ(storage.stat("a_b").value().length, 5u);
    }
    std::filesystem::remove_all(root);
}

// ------------------------------------------------------------ codec tests

TEST(ChunkCodecTest, BlockRoundTripAndRawFallback) {
    Bytes zeros(4096, 0);  // highly compressible
    Bytes block = ChunkCodec::encodeBlock(BytesView(zeros));
    EXPECT_LT(block.size(), zeros.size() / 4);
    auto dec = ChunkCodec::decodeBlock(BytesView(block));
    ASSERT_TRUE(dec.isOk());
    EXPECT_EQ(dec.value(), zeros);

    Bytes noise(1024);  // incompressible: every byte distinct from neighbors
    for (size_t i = 0; i < noise.size(); ++i) noise[i] = static_cast<uint8_t>(i * 131 + 7);
    Bytes rawBlock = ChunkCodec::encodeBlock(BytesView(noise));
    EXPECT_EQ(rawBlock.size(), noise.size() + ChunkCodec::kHeaderBytes);
    auto rawDec = ChunkCodec::decodeBlock(BytesView(rawBlock));
    ASSERT_TRUE(rawDec.isOk());
    EXPECT_EQ(rawDec.value(), noise);
}

TEST(ChunkCodecTest, CorruptionNeverDecodes) {
    Bytes payload(512, 'x');
    payload[100] = 'y';
    Bytes block = ChunkCodec::encodeBlock(BytesView(payload));
    // Flip one bit at every position in turn: header, lengths, CRC, body —
    // every single-bit corruption must surface as ChecksumMismatch.
    for (size_t byte = 0; byte < block.size(); byte += 7) {
        Bytes bad = block;
        bad[byte] ^= 0x10;
        auto dec = ChunkCodec::decodeBlock(BytesView(bad));
        if (dec.isOk()) {
            // The only acceptable "ok" is the payload being bit-identical
            // (a flip in padding that cannot exist in this format).
            EXPECT_EQ(dec.value(), payload) << "corruption at byte " << byte
                                            << " decoded to WRONG data";
        } else {
            EXPECT_EQ(dec.status().code(), Err::ChecksumMismatch);
        }
    }
    // Truncation too.
    Bytes cut(block.begin(), block.begin() + block.size() / 2);
    EXPECT_EQ(ChunkCodec::decodeBlock(BytesView(cut)).status().code(),
              Err::ChecksumMismatch);
}

class CodecStorageTest : public ::testing::Test {
protected:
    sim::Machine exec_;
    InMemoryChunkStorage mem_;
    CodecChunkStorage codec_{exec_, mem_};
};

TEST_F(CodecStorageTest, RoundTripWithCompression) {
    waitStatus(exec_, codec_.create("c"));
    Bytes a(8192, 0);
    Bytes b(4096, 1);
    waitStatus(exec_, codec_.append("c", BufChain(Bytes(a))));
    waitStatus(exec_, codec_.append("c", BufChain(Bytes(b))));
    // Raw addressing: callers see segment bytes.
    auto full = waitValue(exec_, codec_.read("c", 0, 100000));
    ASSERT_EQ(full.size(), a.size() + b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), full.view().begin()));
    EXPECT_TRUE(std::equal(b.begin(), b.end(), full.view().begin() + a.size()));
    // Partial read spanning the block boundary.
    auto span = waitValue(exec_, codec_.read("c", 8000, 400));
    ASSERT_EQ(span.size(), 400u);
    for (size_t i = 0; i < 192; ++i) EXPECT_EQ(span.view()[i], 0);
    for (size_t i = 192; i < 400; ++i) EXPECT_EQ(span.view()[i], 1);
    // stat() reports RAW length; the backend holds fewer stored bytes.
    EXPECT_EQ(codec_.stat("c").value().length, a.size() + b.size());
    EXPECT_LT(mem_.totalBytes(), (a.size() + b.size()) / 4);
    EXPECT_GT(codec_.rawBytes(), codec_.storedBytes());
    EXPECT_EQ(codec_.checksumFailures(), 0u);
}

TEST_F(CodecStorageTest, OutOfRangeContractInRawSpace) {
    waitStatus(exec_, codec_.create("c"));
    waitStatus(exec_, codec_.append("c", BufChain(Bytes(100, 5))));
    auto atEnd = waitResult(exec_, codec_.read("c", 100, 10));
    ASSERT_TRUE(atEnd.isOk());
    EXPECT_EQ(atEnd.value().size(), 0u);
    EXPECT_EQ(waitResult(exec_, codec_.read("c", 101, 1)).code(), Err::BadOffset);
    auto clamped = waitValue(exec_, codec_.read("c", 90, 100));
    EXPECT_EQ(clamped.size(), 10u);
}

TEST(CodecEndToEndTest, InjectedBitFlipSurfacesAsChecksumMismatch) {
    // Full stack: codec(fault(mem)). The fault layer flips one stored bit —
    // silent corruption a backend cannot see. The read must fail with
    // ChecksumMismatch, count on lts.checksum_failures, and NEVER return
    // corrupted bytes as data.
    sim::Machine exec;
    InMemoryChunkStorage mem;
    FaultInjectionChunkStorage fault(exec, mem, FaultInjectionChunkStorage::Config{});
    CodecChunkStorage codec(exec, fault);

    Bytes payload(2048, 'd');
    waitStatus(exec, codec.create("c"));
    waitStatus(exec, codec.append("c", BufChain(Bytes(payload))));

    // Flip a bit deep inside the stored body (past the 20-byte header).
    fault.corruptNextReads(1, /*bitOffset=*/(ChunkCodec::kHeaderBytes + 3) * 8 + 2);
    auto bad = waitResult(exec, codec.read("c", 0, 2048));
    ASSERT_FALSE(bad.isOk());
    EXPECT_EQ(bad.code(), Err::ChecksumMismatch);
    EXPECT_EQ(codec.checksumFailures(), 1u);
    EXPECT_EQ(fault.corruptedReads(), 1u);

    // And a flip in the header (magic) — also ChecksumMismatch, not IoError.
    fault.corruptNextReads(1, /*bitOffset=*/1);
    EXPECT_EQ(waitResult(exec, codec.read("c", 0, 2048)).code(), Err::ChecksumMismatch);
    EXPECT_EQ(codec.checksumFailures(), 2u);

    // The stored bytes were never damaged (corruption was on the read path):
    // a clean retry returns the exact original payload.
    auto good = waitValue(exec, codec.read("c", 0, 2048));
    ASSERT_EQ(good.size(), payload.size());
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), good.view().begin()));
}

// ----------------------------------------------------------- archive tests

class ArchiveTierTest : public ::testing::Test {
protected:
    ArchiveTierTest() : archive_(exec_, mem_, config()) {}
    static ArchiveTierChunkStorage::Config config() {
        ArchiveTierChunkStorage::Config cfg;
        cfg.minIdle = sim::sec(1);
        cfg.scanInterval = 0;  // tests drive scanNow() explicitly
        return cfg;
    }
    sim::Machine exec_;
    InMemoryChunkStorage mem_;
    ArchiveTierChunkStorage archive_;
};

TEST_F(ArchiveTierTest, IdleChunkMigratesAndReadsIdentically) {
    Bytes payload(4096);
    for (size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<uint8_t>(i);
    waitStatus(exec_, archive_.create("seg-1-0"));
    waitStatus(exec_, archive_.append("seg-1-0", BufChain(Bytes(payload))));
    EXPECT_EQ(archive_.archivedChunks(), 0u);

    exec_.runFor(sim::sec(2));  // idle past minIdle
    archive_.scanNow();
    exec_.runUntilIdle();
    EXPECT_EQ(archive_.archivedChunks(), 1u);
    // Primary copy is gone; the chunk is still fully addressable.
    EXPECT_EQ(mem_.stat("seg-1-0").code(), Err::NotFound);
    EXPECT_EQ(archive_.stat("seg-1-0").value().length, payload.size());

    // The migration's tape write mounted the chunk's cartridge (one mount).
    EXPECT_EQ(archive_.tape().mounts(), 1u);

    sim::TimePoint start = exec_.now();
    auto data = waitValue(exec_, archive_.read("seg-1-0", 0, payload.size()));
    ASSERT_EQ(data.size(), payload.size());
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), data.view().begin()));
    // Deep-read first byte: at least the seek (the cartridge is still
    // mounted from the migration write — affinity, no second mount).
    EXPECT_GE(exec_.now() - start, sim::TapeLibraryModel::kSeekLatency);
    EXPECT_EQ(archive_.tape().mounts(), 1u);
    EXPECT_EQ(archive_.archiveReads(), 1u);
}

TEST_F(ArchiveTierTest, HotChunkStaysPrimary) {
    waitStatus(exec_, archive_.create("seg-1-0"));
    waitStatus(exec_, archive_.append("seg-1-0", BufChain(Bytes(100, 1))));
    archive_.scanNow();  // not idle yet
    exec_.runUntilIdle();
    EXPECT_EQ(archive_.archivedChunks(), 0u);
    EXPECT_TRUE(mem_.stat("seg-1-0").isOk());
}

TEST_F(ArchiveTierTest, SizePressureMigratesBeforeIdle) {
    ArchiveTierChunkStorage::Config cfg = config();
    cfg.primaryCapacityBytes = 1024;  // tiny cap
    sim::Machine exec;
    InMemoryChunkStorage mem;
    ArchiveTierChunkStorage arch(exec, mem, cfg);
    waitStatus(exec, arch.create("seg-2-0"));
    waitStatus(exec, arch.append("seg-2-0", BufChain(Bytes(4096, 9))));
    // Not idle enough for the age policy (minIdle 1s) but past the pressure
    // floor: the size policy may take it.
    exec.runFor(sim::msec(200));
    arch.scanNow();  // over capacity
    exec.runUntilIdle();
    EXPECT_EQ(arch.archivedChunks(), 1u);
}

TEST_F(ArchiveTierTest, SizePressurePicksLeastRecentlyAppendedFirst) {
    ArchiveTierChunkStorage::Config cfg = config();
    cfg.primaryCapacityBytes = 1024;
    cfg.maxMigrationsPerScan = 1;  // one victim per scan: exposes ordering
    sim::Machine exec;
    InMemoryChunkStorage mem;
    ArchiveTierChunkStorage arch(exec, mem, cfg);
    // "zz" sorts after "aa" by name but was appended FIRST — the victim must
    // be chosen by last-append age, not by map order.
    waitStatus(exec, arch.create("zz-1-0"));
    waitStatus(exec, arch.append("zz-1-0", BufChain(Bytes(2048, 1))));
    exec.runFor(sim::msec(300));
    waitStatus(exec, arch.create("aa-1-0"));
    waitStatus(exec, arch.append("aa-1-0", BufChain(Bytes(2048, 2))));
    exec.runFor(sim::msec(300));
    arch.scanNow();
    exec.runUntilIdle();
    EXPECT_EQ(arch.archivedChunks(), 1u);
    EXPECT_EQ(mem.stat("zz-1-0").code(), Err::NotFound);  // oldest went first
    EXPECT_TRUE(mem.stat("aa-1-0").isOk());
}

TEST_F(ArchiveTierTest, SizePressureSparesActivelyWrittenChunks) {
    ArchiveTierChunkStorage::Config cfg = config();
    cfg.primaryCapacityBytes = 1024;
    sim::Machine exec;
    InMemoryChunkStorage mem;
    ArchiveTierChunkStorage arch(exec, mem, cfg);
    waitStatus(exec, arch.create("seg-4-0"));
    waitStatus(exec, arch.append("seg-4-0", BufChain(Bytes(4096, 9))));
    // Over capacity, but the chunk was appended this very tick (inside the
    // kPressureMinIdle window): it must not become a migration victim.
    arch.scanNow();
    exec.runUntilIdle();
    EXPECT_EQ(arch.archivedChunks(), 0u);
    EXPECT_TRUE(mem.stat("seg-4-0").isOk());
}

TEST_F(ArchiveTierTest, AppendDuringMigrationIsNotLost) {
    // Regression (lost-write race): an append that lands between the
    // migration's primary-read snapshot and the tape-write completion used
    // to be destroyed — routing flipped to the stale archive copy and the
    // primary copy (holding the new bytes) was removed.
    Bytes first(4096);
    for (size_t i = 0; i < first.size(); ++i) first[i] = static_cast<uint8_t>(i);
    Bytes second(1024);
    for (size_t i = 0; i < second.size(); ++i) second[i] = static_cast<uint8_t>(i + 7);

    waitStatus(exec_, archive_.create("seg-5-0"));
    waitStatus(exec_, archive_.append("seg-5-0", BufChain(Bytes(first))));
    exec_.runFor(sim::sec(2));  // idle past minIdle
    archive_.scanNow();
    // The migration snapshot is taken; its tape write is still in flight.
    // This append routes to the primary tier and must survive.
    auto racing = archive_.append("seg-5-0", BufChain(Bytes(second)));
    exec_.runUntilIdle();
    EXPECT_TRUE(racing.isReady() && racing.result().isOk());
    // The migration aborted: the chunk stays primary with ALL bytes.
    EXPECT_EQ(archive_.archivedChunks(), 0u);
    ASSERT_TRUE(mem_.stat("seg-5-0").isOk());
    EXPECT_EQ(mem_.stat("seg-5-0").value().length, first.size() + second.size());

    // Once quiet again, a later scan migrates the grown chunk whole.
    exec_.runFor(sim::sec(2));
    archive_.scanNow();
    exec_.runUntilIdle();
    EXPECT_EQ(archive_.archivedChunks(), 1u);
    EXPECT_EQ(mem_.stat("seg-5-0").code(), Err::NotFound);
    auto data = waitValue(exec_, archive_.read("seg-5-0", 0, first.size() + second.size()));
    ASSERT_EQ(data.size(), first.size() + second.size());
    EXPECT_TRUE(std::equal(first.begin(), first.end(), data.view().begin()));
    EXPECT_TRUE(std::equal(second.begin(), second.end(),
                           data.view().begin() + first.size()));
}

TEST_F(ArchiveTierTest, SegmentChunksShareACartridge) {
    // Chunks of one segment hash to one cartridge: back-to-back reads pay
    // one mount total (the catch-up read pattern).
    for (int i = 0; i < 3; ++i) {
        std::string name = "seg-7-" + std::to_string(i * 1000);
        waitStatus(exec_, archive_.create(name));
        waitStatus(exec_, archive_.append(name, BufChain(Bytes(512, 3))));
    }
    exec_.runFor(sim::sec(2));
    archive_.scanNow();
    exec_.runUntilIdle();
    ASSERT_EQ(archive_.archivedChunks(), 3u);
    uint64_t mountsAfterMigration = archive_.tape().mounts();
    for (int i = 0; i < 3; ++i) {
        waitValue(exec_, archive_.read("seg-7-" + std::to_string(i * 1000), 0, 512));
    }
    // Same cartridge stays mounted across all three reads.
    EXPECT_EQ(archive_.tape().mounts(), mountsAfterMigration);
}

TEST(ArchiveCodecStackTest, CompressedChunksMigrateAndVerify) {
    // The cluster's stack order: codec(archive(mem)). Chunks migrate in
    // stored (compressed) form; reads decompress + CRC-verify tape bytes.
    sim::Machine exec;
    InMemoryChunkStorage mem;
    ArchiveTierChunkStorage::Config acfg;
    acfg.minIdle = sim::sec(1);
    acfg.scanInterval = 0;
    ArchiveTierChunkStorage arch(exec, mem, acfg);
    CodecChunkStorage codec(exec, arch);

    Bytes payload(16384, 0);
    for (size_t i = 0; i < payload.size(); i += 100) payload[i] = static_cast<uint8_t>(i);
    waitStatus(exec, codec.create("seg-3-0"));
    waitStatus(exec, codec.append("seg-3-0", BufChain(Bytes(payload))));
    exec.runFor(sim::sec(2));
    arch.scanNow();
    exec.runUntilIdle();
    ASSERT_EQ(arch.archivedChunks(), 1u);
    // Tape moved STORED (compressed) bytes, far fewer than raw.
    EXPECT_LT(arch.archivedBytes(), payload.size() / 4);

    auto data = waitValue(exec, codec.read("seg-3-0", 0, payload.size()));
    ASSERT_EQ(data.size(), payload.size());
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), data.view().begin()));
    EXPECT_EQ(codec.checksumFailures(), 0u);
}

TEST(FileSystemChunkStorageTest, PersistsAcrossInstances) {
    std::string root = "/tmp/pravega-lts-persist-" + std::to_string(::getpid());
    std::filesystem::remove_all(root);
    sim::Machine exec;
    {
        FileSystemChunkStorage storage(root);
        storage.create("c");
        storage.append("c", SharedBuf(toBytes("durable")));
        exec.runUntilIdle();
    }
    // A fresh instance does not know the chunk registry (sizes map), but
    // the bytes are on disk; verify via the filesystem.
    bool found = false;
    for (auto& entry : std::filesystem::directory_iterator(root)) {
        if (entry.file_size() == 7) found = true;
    }
    EXPECT_TRUE(found);
    std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace pravega::lts
