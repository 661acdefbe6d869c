// Tests for the client library: adaptive-batching writer, exactly-once
// reconnect protocol, seal re-routing, reader groups with the state
// synchronizer, per-key ordering across scaling, and the KV table client.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "client/event_reader.h"
#include "client/framing.h"
#include "client/kv_table.h"
#include "client/segment_input_stream.h"
#include "cluster/pravega_cluster.h"
#include "common/buf_stats.h"

namespace pravega::client {
namespace {

using cluster::ClusterConfig;
using cluster::PravegaCluster;
using controller::StreamConfig;

struct ClientFixture : public ::testing::Test {
    ClusterConfig clusterCfg() {
        ClusterConfig cfg;
        cfg.ltsKind = cluster::LtsKind::InMemory;
        return cfg;
    }
    PravegaCluster cluster{clusterCfg()};

    void makeStream(int segments = 1) {
        StreamConfig cfg;
        cfg.initialSegments = segments;
        ASSERT_TRUE(cluster.createStream("sc", "st", cfg).isOk());
    }
};

TEST_F(ClientFixture, WriteAndAckEvents) {
    makeStream();
    auto writer = cluster.makeWriter("sc/st");
    int acked = 0;
    for (int i = 0; i < 100; ++i) {
        writer->writeEvent("key-" + std::to_string(i % 7), toBytes("event"), [&](Status s) {
            ASSERT_TRUE(s.isOk());
            ++acked;
        });
    }
    writer->flush();
    cluster.runUntilIdle();
    EXPECT_EQ(acked, 100);
    EXPECT_EQ(writer->eventsWritten(), 100u);
}

TEST_F(ClientFixture, WriterBatchesEvents) {
    makeStream();
    auto writer = cluster.makeWriter("sc/st");
    int acked = 0;
    for (int i = 0; i < 1000; ++i) {
        writer->writeEvent("k", toBytes(std::string(100, 'e')), [&](Status) { ++acked; });
    }
    writer->flush();
    cluster.runUntilIdle();
    EXPECT_EQ(acked, 1000);
    // The segment received far fewer appends than events (client batching
    // + server-side frame batching).
    auto uri = cluster.ctrl().getCurrentSegments("sc/st").value()[0];
    auto* container = uri.store->container(uri.containerId);
    EXPECT_LT(container->walLog().nextSequence(), 200);
}

TEST_F(ClientFixture, EndToEndReadBack) {
    makeStream();
    auto writer = cluster.makeWriter("sc/st");
    for (int i = 0; i < 50; ++i) {
        writer->writeEvent("k", toBytes("event-" + std::to_string(i)));
    }
    writer->flush();
    cluster.runUntilIdle();

    auto group = cluster.makeReaderGroup("g", {"sc/st"});
    ASSERT_TRUE(group.isOk());
    auto reader = group.value()->createReader("r1", cluster.newClientHost());

    std::vector<std::string> got;
    for (int i = 0; i < 50; ++i) {
        auto fut = reader->readNextEvent();
        ASSERT_TRUE(cluster.runUntil([&]() { return fut.isReady(); }, sim::sec(10))) << i;
        ASSERT_TRUE(fut.result().isOk());
        got.push_back(toString(BytesView(fut.result().value().payload)));
    }
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(got[static_cast<size_t>(i)], "event-" + std::to_string(i));
    }
}

TEST_F(ClientFixture, TailReadLowLatency) {
    makeStream();
    auto group = cluster.makeReaderGroup("g", {"sc/st"});
    auto reader = group.value()->createReader("r1", cluster.newClientHost());
    cluster.runFor(sim::sec(1));  // let the reader acquire the segment

    auto writer = cluster.makeWriter("sc/st");
    auto fut = reader->readNextEvent();
    cluster.runFor(sim::msec(10));
    EXPECT_FALSE(fut.isReady());

    sim::TimePoint wrote = cluster.executor().now();
    writer->writeEvent("k", toBytes("live"));
    ASSERT_TRUE(cluster.runUntil([&]() { return fut.isReady(); }, sim::sec(5)));
    EXPECT_EQ(toString(BytesView(fut.result().value().payload)), "live");
    // Tail delivery within tens of milliseconds of virtual time.
    EXPECT_LT(cluster.executor().now() - wrote, sim::msec(50));
}

TEST_F(ClientFixture, ReconnectDoesNotDuplicate) {
    // §3.2: after a connection drop, the writer retransmits unacknowledged
    // blocks and the server dedups by ⟨writer id, event number⟩.
    makeStream();
    auto writer = cluster.makeWriter("sc/st");
    int acked = 0;
    for (int i = 0; i < 200; ++i) {
        writer->writeEvent("k", toBytes("payload-" + std::to_string(i)),
                           [&](Status s) { if (s.isOk()) ++acked; });
        if (i % 50 == 25) writer->simulateReconnect();
    }
    writer->flush();
    cluster.runUntilIdle();
    writer->flush();
    cluster.runUntilIdle();
    EXPECT_EQ(acked, 200);

    // Read everything back: exactly 200 events, in per-writer order.
    auto group = cluster.makeReaderGroup("g", {"sc/st"});
    auto reader = group.value()->createReader("r1", cluster.newClientHost());
    std::vector<std::string> got;
    for (int i = 0; i < 200; ++i) {
        auto fut = reader->readNextEvent();
        ASSERT_TRUE(cluster.runUntil([&]() { return fut.isReady(); }, sim::sec(10))) << i;
        got.push_back(toString(BytesView(fut.result().value().payload)));
    }
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(got[static_cast<size_t>(i)], "payload-" + std::to_string(i)) << i;
    }
    // No 201st event exists.
    auto extra = reader->readNextEvent();
    cluster.runFor(sim::sec(1));
    EXPECT_FALSE(extra.isReady());
}

TEST_F(ClientFixture, PerKeyOrderAcrossManualScale) {
    makeStream(2);
    auto writer = cluster.makeWriter("sc/st");
    const int keys = 10;
    std::map<std::string, int> written;

    auto writeBurst = [&](int count) {
        for (int i = 0; i < count; ++i) {
            std::string key = "key-" + std::to_string(i % keys);
            int seq = written[key]++;
            writer->writeEvent(key, toBytes(key + ":" + std::to_string(seq)));
        }
    };
    writeBurst(300);
    writer->flush();
    cluster.runFor(sim::msec(100));

    // Scale up segment 0 mid-stream (writer keeps writing after).
    auto current = cluster.ctrl().getCurrentSegments("sc/st").value();
    auto scale = cluster.ctrl().scaleStream(
        "sc/st", {current[0].record.id},
        {{current[0].record.keyStart,
          (current[0].record.keyStart + current[0].record.keyEnd) / 2},
         {(current[0].record.keyStart + current[0].record.keyEnd) / 2,
          current[0].record.keyEnd}});
    writeBurst(300);
    writer->flush();
    ASSERT_TRUE(cluster.runUntil([&]() { return scale.isReady(); }, sim::sec(10)));
    writeBurst(300);
    writer->flush();
    cluster.runUntilIdle();

    // Two readers consume everything; per-key sequences must be in order.
    auto group = cluster.makeReaderGroup("g", {"sc/st"});
    auto r1 = group.value()->createReader("r1", cluster.newClientHost());
    auto r2 = group.value()->createReader("r2", cluster.newClientHost());

    std::map<std::string, int> nextExpected;
    int total = 0;
    auto consume = [&](EventReader& reader) {
        auto fut = reader.readNextEvent();
        if (!cluster.runUntil([&]() { return fut.isReady(); }, sim::sec(2))) return false;
        if (!fut.result().isOk()) return false;
        std::string s = toString(BytesView(fut.result().value().payload));
        auto colon = s.find(':');
        std::string key = s.substr(0, colon);
        int seq = std::stoi(s.substr(colon + 1));
        EXPECT_EQ(seq, nextExpected[key]) << "per-key order violated for " << key;
        nextExpected[key] = seq + 1;
        ++total;
        return true;
    };
    while (total < 900) {
        bool progress = consume(*r1) || consume(*r2);
        if (!progress) break;
    }
    EXPECT_EQ(total, 900);
    for (auto& [key, n] : nextExpected) EXPECT_EQ(n, written[key]) << key;
}

TEST_F(ClientFixture, ReaderGroupBalancesSegments) {
    makeStream(8);
    auto writer = cluster.makeWriter("sc/st");
    for (int i = 0; i < 200; ++i) {
        writer->writeEvent("key-" + std::to_string(i), toBytes("x"));
    }
    writer->flush();
    cluster.runUntilIdle();

    auto group = cluster.makeReaderGroup("g", {"sc/st"});
    auto r1 = group.value()->createReader("r1", cluster.newClientHost());
    auto r2 = group.value()->createReader("r2", cluster.newClientHost());
    cluster.runFor(sim::sec(3));  // several sync rounds

    // 8 segments over 2 readers → 4 each (the fairness contract, §3.3).
    EXPECT_EQ(r1->assignedSegments(), 4u);
    EXPECT_EQ(r2->assignedSegments(), 4u);
}

TEST_F(ClientFixture, ReaderGroupNeverDoubleAssigns) {
    makeStream(6);
    auto group = cluster.makeReaderGroup("g", {"sc/st"});
    std::vector<std::unique_ptr<EventReader>> readers;
    for (int i = 0; i < 3; ++i) {
        readers.push_back(group.value()->createReader("r" + std::to_string(i),
                                                      cluster.newClientHost()));
        cluster.runFor(sim::msec(350));
    }
    cluster.runFor(sim::sec(3));

    // Inspect the authoritative shared state through a fresh synchronizer.
    StateSynchronizer<ReaderGroupState> probe(cluster.executor(), cluster.network(),
                                              cluster.newClientHost(),
                                              group.value()->syncUri());
    auto fetch = probe.fetchUpdates();
    cluster.runUntilIdle();
    std::set<SegmentId> seen;
    size_t assigned = 0;
    for (const auto& [reader, segs] : probe.state().assignments) {
        for (SegmentId s : segs) {
            EXPECT_TRUE(seen.insert(s).second) << "segment assigned twice";
            ++assigned;
        }
    }
    EXPECT_EQ(assigned + probe.state().unassigned.size(), 6u);
}

TEST_F(ClientFixture, StateSynchronizerOptimisticConcurrency) {
    makeStream();
    auto uri = cluster.ctrl().createInternalSegment("_sync/test");
    ASSERT_TRUE(uri.isOk());
    cluster.runUntilIdle();

    struct Counter {
        int value = 0;
        void apply(BytesView update) { value += static_cast<int>(update[0]); }
    };
    StateSynchronizer<Counter> a(cluster.executor(), cluster.network(),
                                 cluster.newClientHost(), uri.value());
    StateSynchronizer<Counter> b(cluster.executor(), cluster.network(),
                                 cluster.newClientHost(), uri.value());

    // Both increment concurrently, many times; the total must be exact
    // (lost updates are impossible under compare-and-append).
    int completedA = 0, completedB = 0;
    for (int i = 0; i < 20; ++i) {
        a.updateState([](const Counter&) { return std::optional<Bytes>(Bytes{1}); })
            .onComplete([&](const Result<bool>& r) { completedA += r.isOk() && r.value(); });
        b.updateState([](const Counter&) { return std::optional<Bytes>(Bytes{1}); })
            .onComplete([&](const Result<bool>& r) { completedB += r.isOk() && r.value(); });
    }
    cluster.runUntilIdle();
    EXPECT_EQ(completedA, 20);
    EXPECT_EQ(completedB, 20);
    auto fa = a.fetchUpdates();
    auto fb = b.fetchUpdates();
    cluster.runUntilIdle();
    EXPECT_EQ(a.state().value, 40);
    EXPECT_EQ(b.state().value, 40);
}

TEST_F(ClientFixture, StateSynchronizerAbortsWhenConditionFails) {
    makeStream();
    auto uri = cluster.ctrl().createInternalSegment("_sync/abort");
    cluster.runUntilIdle();
    struct Flag {
        bool set = false;
        void apply(BytesView) { set = true; }
    };
    StateSynchronizer<Flag> a(cluster.executor(), cluster.network(), cluster.newClientHost(),
                              uri.value());
    StateSynchronizer<Flag> b(cluster.executor(), cluster.network(), cluster.newClientHost(),
                              uri.value());
    auto setOnce = [](const Flag& f) -> std::optional<Bytes> {
        if (f.set) return std::nullopt;  // someone else already set it
        return Bytes{1};
    };
    auto fa = a.updateState(setOnce);
    auto fb = b.updateState(setOnce);
    cluster.runUntilIdle();
    ASSERT_TRUE(fa.result().isOk());
    ASSERT_TRUE(fb.result().isOk());
    // Exactly one of them performed the update.
    EXPECT_NE(fa.result().value(), fb.result().value());
}

TEST_F(ClientFixture, KeyValueTableConditionalOps) {
    makeStream();
    auto table = KeyValueTable::create(cluster.executor(), cluster.network(),
                                       cluster.newClientHost(), cluster.ctrl(), "sc/config");
    ASSERT_TRUE(table.isOk());
    cluster.runUntilIdle();
    auto& kv = *table.value();

    auto v1 = kv.put("threshold", toBytes("100"));
    cluster.runUntilIdle();
    ASSERT_TRUE(v1.result().isOk());

    auto got = kv.get("threshold");
    cluster.runUntilIdle();
    ASSERT_TRUE(got.result().isOk());
    EXPECT_EQ(toString(BytesView(got.result().value()->value)), "100");

    // Conditional update with a stale version fails...
    auto stale = kv.put("threshold", toBytes("200"), v1.result().value() + 7);
    cluster.runUntilIdle();
    EXPECT_EQ(stale.result().code(), Err::BadVersion);
    // ...and with the right version succeeds.
    auto fresh = kv.put("threshold", toBytes("200"), v1.result().value());
    cluster.runUntilIdle();
    EXPECT_TRUE(fresh.result().isOk());

    // putIfAbsent semantics.
    auto dup = kv.putIfAbsent("threshold", toBytes("300"));
    cluster.runUntilIdle();
    EXPECT_EQ(dup.result().code(), Err::BadVersion);

    // Missing key reads as nullopt, not an error.
    auto missing = kv.get("unset");
    cluster.runUntilIdle();
    ASSERT_TRUE(missing.result().isOk());
    EXPECT_FALSE(missing.result().value().has_value());

    // Multi-key transaction.
    std::vector<segmentstore::TableUpdate> batch(2);
    batch[0].key = "a";
    batch[0].value = toBytes("1");
    batch[1].key = "b";
    batch[1].value = toBytes("2");
    auto txn = kv.updateAll(std::move(batch));
    cluster.runUntilIdle();
    ASSERT_TRUE(txn.result().isOk());
    EXPECT_EQ(txn.result().value().size(), 2u);
}


// --- framing hardening -------------------------------------------------

TEST(FramingTest, DecodeEventExReportsPartialForShortHeader) {
    Bytes buf{0x01, 0x02};
    size_t pos = 0;
    BytesView payload;
    EXPECT_EQ(decodeEventEx(BytesView(buf), pos, payload), DecodeStatus::Partial);
    EXPECT_EQ(pos, 0u);  // pos untouched on Partial
}

TEST(FramingTest, DecodeEventExRejectsOversizeLengthBeforeArithmetic) {
    // A hostile length prefix near UINT32_MAX: the max-frame bound must be
    // checked BEFORE any additive size test, so 32-bit size_t arithmetic
    // can never wrap into a bogus "enough bytes" conclusion.
    Bytes buf(kEventHeaderBytes);
    uint32_t len = 0xFFFFFFFFu;
    std::memcpy(buf.data(), &len, kEventHeaderBytes);
    size_t pos = 0;
    BytesView payload;
    EXPECT_EQ(decodeEventEx(BytesView(buf), pos, payload), DecodeStatus::Corrupt);
    EXPECT_EQ(pos, 0u);

    // Just above the protocol bound: corrupt. At the bound: merely partial
    // (a legal frame we don't have the bytes for yet).
    len = kMaxEventBytes + 1;
    std::memcpy(buf.data(), &len, kEventHeaderBytes);
    EXPECT_EQ(decodeEventEx(BytesView(buf), pos, payload), DecodeStatus::Corrupt);
    len = kMaxEventBytes;
    std::memcpy(buf.data(), &len, kEventHeaderBytes);
    EXPECT_EQ(decodeEventEx(BytesView(buf), pos, payload), DecodeStatus::Partial);

    // A corrupt frame is reported without advancing the cursor.
    len = 0xFFFFFFFFu;
    std::memcpy(buf.data(), &len, kEventHeaderBytes);
    EXPECT_EQ(decodeEventEx(BytesView(buf), pos, payload), DecodeStatus::Corrupt);
    EXPECT_EQ(pos, 0u);
}

TEST(FramingTest, EncodeDecodeRoundtripAndChainPeek) {
    Bytes wire;
    encodeEvent(wire, BytesView(toBytes("alpha")));
    encodeEvent(wire, BytesView(toBytes("bee")));
    size_t pos = 0;
    BytesView payload;
    ASSERT_EQ(decodeEventEx(BytesView(wire), pos, payload), DecodeStatus::Ok);
    EXPECT_EQ(std::string(payload.begin(), payload.end()), "alpha");
    ASSERT_EQ(decodeEventEx(BytesView(wire), pos, payload), DecodeStatus::Ok);
    EXPECT_EQ(std::string(payload.begin(), payload.end()), "bee");
    EXPECT_EQ(decodeEventEx(BytesView(wire), pos, payload), DecodeStatus::Partial);
    EXPECT_EQ(pos, wire.size());

    // Chain peek sees the same framing across fragment boundaries.
    BufChain chain;
    chain.append(SharedBuf(Bytes(wire.begin(), wire.begin() + 3)));
    chain.append(SharedBuf(Bytes(wire.begin() + 3, wire.end())));
    uint32_t len = 0;
    ASSERT_EQ(peekEvent(chain, len), DecodeStatus::Ok);
    EXPECT_EQ(len, 5u);
}

// --- copy budget ---------------------------------------------------------

// The zero-copy contract of the append path: a payload is copied exactly
// once, at the client framing boundary (encodeEvent into the open block).
// Everything downstream — frozen block, wire append, WAL frame, cache
// block, LTS flush — shares or block-copies outside the buffer
// abstraction. The bufstats counters instrument every buffer-abstraction
// copy boundary, so the delta across a write-only run must equal the
// payload bytes exactly: a second hidden copy anywhere on the path fails
// this test.
TEST_F(ClientFixture, ExactlyOneClientSideCopyPerPayloadByte) {
    makeStream();
    auto writer = cluster.makeWriter("sc/st");
    cluster.runUntilIdle();

    bufstats::reset();
    constexpr size_t kEvents = 300;
    constexpr size_t kBytes = 1024;
    int acked = 0;
    for (size_t i = 0; i < kEvents; ++i) {
        writer->writeEvent("key-" + std::to_string(i % 5), toBytes(std::string(kBytes, 'p')),
                           [&](Status s) {
                               ASSERT_TRUE(s.isOk());
                               ++acked;
                           });
    }
    writer->flush();
    cluster.runUntilIdle();
    // Let the storage writer run full flush cycles (WAL -> cache -> LTS):
    // none of those stages may add a buffer copy.
    cluster.runFor(sim::sec(2));
    cluster.runUntilIdle();

    EXPECT_EQ(acked, static_cast<int>(kEvents));
    EXPECT_EQ(bufstats::bytesCopied, kEvents * kBytes);
    EXPECT_EQ(bufstats::copyOps, kEvents);
    bufstats::reset();
}

// --- reader hardening ------------------------------------------------------

TEST_F(ClientFixture, CorruptFrameFailsTheStreamAndCounts) {
    makeStream();
    auto uri = cluster.ctrl().getCurrentSegments("sc/st").value()[0];
    auto* container = uri.store->container(uri.containerId);
    ASSERT_NE(container, nullptr);
    // Append raw garbage that parses as a frame with an absurd length
    // prefix (> kMaxEventBytes).
    Bytes garbage(kEventHeaderBytes);
    uint32_t len = 0x7FFFFFFFu;
    std::memcpy(garbage.data(), &len, kEventHeaderBytes);
    container->append(uri.record.id, SharedBuf(std::move(garbage)));
    cluster.runUntilIdle();

    SegmentInputStream sis(cluster.executor(), cluster.network(), cluster.newClientHost(),
                           uri, 0, ReaderConfig{}, nullptr);
    cluster.runUntilIdle();
    uint64_t corruptBefore = cluster.machine().metrics().counterValue("client.frame.corrupt");
    EXPECT_FALSE(sis.readNextEvent().has_value());
    EXPECT_TRUE(sis.failed());
    EXPECT_EQ(cluster.machine().metrics().counterValue("client.frame.corrupt"),
              corruptBefore + 1);
    // A failed stream stays failed: no retry loop, no further counting.
    EXPECT_FALSE(sis.readNextEvent().has_value());
    EXPECT_EQ(cluster.machine().metrics().counterValue("client.frame.corrupt"),
              corruptBefore + 1);
}

TEST_F(ClientFixture, TailReadBufferStaysBoundedByBacklog) {
    makeStream();
    auto writer = cluster.makeWriter("sc/st");
    constexpr size_t kEvents = 500;
    for (size_t i = 0; i < kEvents; ++i) {
        writer->writeEvent("k", toBytes(std::string(1024, 'e')));
    }
    writer->flush();
    cluster.runUntilIdle();

    auto uri = cluster.ctrl().getCurrentSegments("sc/st").value()[0];
    ReaderConfig rc;
    rc.fetchBytes = 8 * 1024;
    SegmentInputStream sis(cluster.executor(), cluster.network(), cluster.newClientHost(),
                           uri, 0, rc, nullptr);

    // Lagging consumer: at most one event consumed per simulator step, so
    // fetches outpace consumption. The buffer must stay bounded by the
    // fetch gate (a small multiple of fetchBytes), NOT grow toward the
    // ~500 KB total that the old compact-only-when-fully-parsed buffer
    // accumulated under exactly this pattern.
    size_t events = 0;
    size_t maxBuffered = 0;
    int idleSteps = 0;
    while (events < kEvents && idleSteps < 3) {
        if (!cluster.machine().runOne()) {
            ++idleSteps;
        } else {
            idleSteps = 0;
        }
        if (auto e = sis.readNextEvent()) {
            ++events;
            EXPECT_EQ(e->size(), 1024u);
        }
        maxBuffered = std::max(maxBuffered, sis.bufferedBytes());
    }
    EXPECT_EQ(events, kEvents);
    EXPECT_LE(maxBuffered, static_cast<size_t>(rc.fetchBytes) * 3);
    // Everything consumed: the chain is fully trimmed.
    EXPECT_EQ(sis.bufferedBytes(), 0u);
    EXPECT_EQ(sis.position(), static_cast<int64_t>(kEvents * (1024 + kEventHeaderBytes)));
}

}  // namespace
}  // namespace pravega::client
