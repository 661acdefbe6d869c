// Tests for the control plane: stream metadata (epochs, key ranges,
// successor graph), scale orchestration (Fig 2b's ordering), retention,
// and the container registry / crash redistribution.
#include <gtest/gtest.h>

#include "cluster/pravega_cluster.h"

namespace pravega::controller {
namespace {

using cluster::ClusterConfig;
using cluster::PravegaCluster;
using segmentstore::makeSegmentId;

TEST(StreamRecordTest, InitialEpochCoversKeySpace) {
    StreamConfig cfg;
    cfg.initialSegments = 4;
    StreamRecord rec("s/str", cfg, 1);
    const auto& segments = rec.currentEpoch().segments;
    ASSERT_EQ(segments.size(), 4u);
    EXPECT_DOUBLE_EQ(segments.front().keyStart, 0.0);
    EXPECT_DOUBLE_EQ(segments.back().keyEnd, 1.0);
    for (size_t i = 1; i < segments.size(); ++i) {
        EXPECT_DOUBLE_EQ(segments[i - 1].keyEnd, segments[i].keyStart);
    }
}

TEST(StreamRecordTest, SegmentForKeyFindsOwner) {
    StreamConfig cfg;
    cfg.initialSegments = 2;
    StreamRecord rec("s/str", cfg, 1);
    auto low = rec.segmentForKey(0.25);
    auto high = rec.segmentForKey(0.75);
    ASSERT_TRUE(low.isOk());
    ASSERT_TRUE(high.isOk());
    EXPECT_NE(low.value().id, high.value().id);
}

TEST(StreamRecordTest, SplitCreatesSuccessorsWithPredecessors) {
    // Fig 2a, t1: s1 splits into s2 + s3.
    StreamConfig cfg;
    cfg.initialSegments = 2;
    StreamRecord rec("s/str", cfg, 0);
    SegmentId s1 = rec.currentEpoch().segments[1].id;  // [0.5, 1.0)
    uint32_t next = 10;
    auto created = rec.applyScale({s1}, {{0.5, 0.75}, {0.75, 1.0}}, next);
    ASSERT_TRUE(created.isOk());
    ASSERT_EQ(created.value().size(), 2u);

    EXPECT_EQ(rec.currentEpoch().epoch, 1u);
    EXPECT_EQ(rec.currentEpoch().segments.size(), 3u);

    auto succ = rec.successorsOf(s1);
    ASSERT_EQ(succ.size(), 2u);
    for (const auto& s : succ) {
        ASSERT_EQ(s.predecessors.size(), 1u);
        EXPECT_EQ(s.predecessors[0], s1);
    }
    // The untouched segment has no successors (still active).
    EXPECT_TRUE(rec.successorsOf(rec.currentEpoch().segments[0].id).empty());
}

TEST(StreamRecordTest, MergeCreatesSingleSuccessorWithBothPredecessors) {
    // Fig 2a, t3: two adjacent segments merge.
    StreamConfig cfg;
    cfg.initialSegments = 2;
    StreamRecord rec("s/str", cfg, 0);
    SegmentId a = rec.currentEpoch().segments[0].id;
    SegmentId b = rec.currentEpoch().segments[1].id;
    uint32_t next = 10;
    auto created = rec.applyScale({a, b}, {{0.0, 1.0}}, next);
    ASSERT_TRUE(created.isOk());
    ASSERT_EQ(rec.currentEpoch().segments.size(), 1u);

    auto succA = rec.successorsOf(a);
    ASSERT_EQ(succA.size(), 1u);
    EXPECT_EQ(succA[0].predecessors.size(), 2u);  // merge hold needs both
    auto succB = rec.successorsOf(b);
    ASSERT_EQ(succB.size(), 1u);
    EXPECT_EQ(succA[0].segment.id, succB[0].segment.id);
}

TEST(StreamRecordTest, ScaleValidationRejectsBadRequests) {
    StreamConfig cfg;
    cfg.initialSegments = 2;
    StreamRecord rec("s/str", cfg, 0);
    SegmentId s0 = rec.currentEpoch().segments[0].id;  // [0, 0.5)
    uint32_t next = 10;
    // Range does not cover the sealed key space.
    EXPECT_FALSE(rec.applyScale({s0}, {{0.0, 0.3}}, next).isOk());
    // Range extends outside the sealed key space.
    EXPECT_FALSE(rec.applyScale({s0}, {{0.0, 0.75}}, next).isOk());
    // Overlapping new ranges.
    EXPECT_FALSE(rec.applyScale({s0}, {{0.0, 0.3}, {0.2, 0.5}}, next).isOk());
    // Unknown segment.
    EXPECT_FALSE(rec.applyScale({makeSegmentId(9, 9)}, {{0.0, 0.5}}, next).isOk());
    // Sealed segment from an OLD epoch cannot be scaled again.
    ASSERT_TRUE(rec.applyScale({s0}, {{0.0, 0.25}, {0.25, 0.5}}, next).isOk());
    EXPECT_FALSE(rec.applyScale({s0}, {{0.0, 0.5}}, next).isOk());
}

TEST(StreamRecordTest, KeyRoutingConsistentAcrossScale) {
    // §3.2: between scaling events, a key maps to exactly one segment, and
    // after a scale the key's new segment is a successor of its old one.
    StreamConfig cfg;
    cfg.initialSegments = 1;
    StreamRecord rec("s/str", cfg, 0);
    SegmentId s0 = rec.currentEpoch().segments[0].id;
    double h = 0.6;
    EXPECT_EQ(rec.segmentForKey(h).value().id, s0);

    uint32_t next = 10;
    rec.applyScale({s0}, {{0.0, 0.5}, {0.5, 1.0}}, next);
    SegmentId now = rec.segmentForKey(h).value().id;
    auto succ = rec.successorsOf(s0);
    bool isSuccessor = false;
    for (const auto& s : succ) {
        if (s.segment.id == now) isSuccessor = true;
    }
    EXPECT_TRUE(isSuccessor);
}

TEST(StreamRecordTest, SerializationRoundTrip) {
    StreamConfig cfg;
    cfg.initialSegments = 2;
    cfg.scaling.type = ScaleType::ByRateBytes;
    cfg.scaling.targetRate = 12345;
    cfg.retention.type = RetentionType::Size;
    cfg.retention.limitBytes = 1 << 20;
    StreamRecord rec("scope/stream", cfg, 5);
    uint32_t next = 100;
    rec.applyScale({rec.currentEpoch().segments[0].id}, {{0.0, 0.25}, {0.25, 0.5}}, next);

    Bytes data;
    BinaryWriter w(data);
    rec.serialize(w);
    BinaryReader r{BytesView(data)};
    auto restored = StreamRecord::deserialize(r);
    ASSERT_TRUE(restored.isOk());
    EXPECT_EQ(restored.value().name(), "scope/stream");
    EXPECT_EQ(restored.value().currentEpoch().epoch, 1u);
    EXPECT_EQ(restored.value().currentEpoch().segments.size(), 3u);
    EXPECT_EQ(restored.value().config().scaling.targetRate, 12345);
    EXPECT_EQ(restored.value().successorsOf(rec.epochs()[0].segments[0].id).size(), 2u);
}

// ---------------- Controller orchestration (full cluster) ----------------

struct ControllerFixture : public ::testing::Test {
    ClusterConfig clusterCfg() {
        ClusterConfig cfg;
        cfg.ltsKind = cluster::LtsKind::InMemory;
        return cfg;
    }
    PravegaCluster cluster{clusterCfg()};
};

TEST_F(ControllerFixture, CreateStreamCreatesSegments) {
    StreamConfig cfg;
    cfg.initialSegments = 4;
    ASSERT_TRUE(cluster.createStream("sc", "st", cfg).isOk());
    auto segments = cluster.ctrl().getCurrentSegments("sc/st");
    ASSERT_TRUE(segments.isOk());
    ASSERT_EQ(segments.value().size(), 4u);
    for (const auto& uri : segments.value()) {
        ASSERT_NE(uri.store, nullptr);
        auto* container = uri.store->container(uri.containerId);
        ASSERT_NE(container, nullptr);
        EXPECT_TRUE(container->getInfo(uri.record.id).isOk());
    }
}

TEST_F(ControllerFixture, CreateRequiresScope) {
    auto fut = cluster.ctrl().createStream("nope", "st", StreamConfig{});
    cluster.runUntilIdle();
    EXPECT_EQ(fut.result().code(), Err::NotFound);
}

TEST_F(ControllerFixture, DuplicateStreamRejected) {
    ASSERT_TRUE(cluster.createStream("sc", "st", StreamConfig{}).isOk());
    auto fut = cluster.ctrl().createStream("sc", "st", StreamConfig{});
    cluster.runUntilIdle();
    EXPECT_EQ(fut.result().code(), Err::AlreadyExists);
}

TEST_F(ControllerFixture, ScaleSealsBeforeExposingSuccessors) {
    StreamConfig cfg;
    cfg.initialSegments = 1;
    ASSERT_TRUE(cluster.createStream("sc", "st", cfg).isOk());
    SegmentId s0 = cluster.ctrl().getCurrentSegments("sc/st").value()[0].record.id;

    auto fut = cluster.ctrl().scaleStream("sc/st", {s0}, {{0.0, 0.5}, {0.5, 1.0}});
    ASSERT_TRUE(cluster.runUntil([&]() { return fut.isReady(); }, sim::sec(5)));
    ASSERT_TRUE(fut.result().isOk()) << fut.result().status().toString();

    // The old segment is sealed in its container...
    auto uri = cluster.ctrl().uriOf(s0);
    ASSERT_TRUE(uri.isOk());
    EXPECT_TRUE(uri.value().store->container(uri.value().containerId)
                    ->getInfo(s0)
                    .value()
                    .sealed);
    // ...the successors exist and are writable.
    auto succ = cluster.ctrl().getSuccessors(s0);
    ASSERT_TRUE(succ.isOk());
    EXPECT_EQ(succ.value().size(), 2u);
    EXPECT_EQ(cluster.ctrl().getCurrentSegments("sc/st").value().size(), 2u);
    EXPECT_EQ(cluster.ctrl().scaleEventCount("sc/st"), 1u);
}

TEST_F(ControllerFixture, ConcurrentScaleRejected) {
    StreamConfig cfg;
    cfg.initialSegments = 1;
    ASSERT_TRUE(cluster.createStream("sc", "st", cfg).isOk());
    SegmentId s0 = cluster.ctrl().getCurrentSegments("sc/st").value()[0].record.id;
    auto first = cluster.ctrl().scaleStream("sc/st", {s0}, {{0.0, 0.5}, {0.5, 1.0}});
    auto second = cluster.ctrl().scaleStream("sc/st", {s0}, {{0.0, 1.0}});
    EXPECT_TRUE(second.isReady());
    EXPECT_EQ(second.result().code(), Err::Throttled);
    cluster.runUntil([&]() { return first.isReady(); }, sim::sec(5));
    EXPECT_TRUE(first.result().isOk());
}

TEST_F(ControllerFixture, SealStreamSealsAllSegments) {
    StreamConfig cfg;
    cfg.initialSegments = 2;
    ASSERT_TRUE(cluster.createStream("sc", "st", cfg).isOk());
    auto fut = cluster.ctrl().sealStream("sc/st");
    ASSERT_TRUE(cluster.runUntil([&]() { return fut.isReady(); }, sim::sec(5)));
    auto sealedSegs = cluster.ctrl().getCurrentSegments("sc/st");
    ASSERT_TRUE(sealedSegs.isOk());
    for (const auto& uri : sealedSegs.value()) {
        EXPECT_TRUE(uri.store->container(uri.containerId)->getInfo(uri.record.id).value().sealed);
    }
    // Scaling a sealed stream fails.
    SegmentId s0 = cluster.ctrl().getCurrentSegments("sc/st").value()[0].record.id;
    auto scale = cluster.ctrl().scaleStream("sc/st", {s0}, {{0.0, 0.25}, {0.25, 0.5}});
    cluster.runUntilIdle();
    EXPECT_EQ(scale.result().code(), Err::Sealed);
}

TEST_F(ControllerFixture, DeleteStreamRemovesSegments) {
    ASSERT_TRUE(cluster.createStream("sc", "st", StreamConfig{}).isOk());
    SegmentId s0 = cluster.ctrl().getCurrentSegments("sc/st").value()[0].record.id;
    auto uri = cluster.ctrl().uriOf(s0).value();

    auto denied = cluster.ctrl().deleteStream("sc/st");
    cluster.runUntilIdle();
    EXPECT_FALSE(denied.result().isOk());  // must seal first

    auto seal = cluster.ctrl().sealStream("sc/st");
    cluster.runUntil([&]() { return seal.isReady(); }, sim::sec(5));
    auto del = cluster.ctrl().deleteStream("sc/st");
    cluster.runUntil([&]() { return del.isReady(); }, sim::sec(5));
    EXPECT_TRUE(del.result().isOk());
    EXPECT_FALSE(cluster.ctrl().streamExists("sc/st"));
    EXPECT_EQ(uri.store->container(uri.containerId)->getInfo(s0).code(), Err::NotFound);
}

TEST_F(ControllerFixture, TruncateStreamAppliesCut) {
    ASSERT_TRUE(cluster.createStream("sc", "st", StreamConfig{}).isOk());
    auto writer = cluster.makeWriter("sc/st");
    for (int i = 0; i < 100; ++i) writer->writeEvent("k", toBytes(std::string(100, 'x')));
    writer->flush();
    cluster.runUntilIdle();

    SegmentId s0 = cluster.ctrl().getCurrentSegments("sc/st").value()[0].record.id;
    auto fut = cluster.ctrl().truncateStream("sc/st", {{s0, 500}});
    ASSERT_TRUE(cluster.runUntil([&]() { return fut.isReady(); }, sim::sec(5)));
    auto uri = cluster.ctrl().uriOf(s0).value();
    EXPECT_EQ(uri.store->container(uri.containerId)->getInfo(s0).value().startOffset, 500);
}

TEST_F(ControllerFixture, SizeRetentionTruncatesOldData) {
    StreamConfig cfg;
    cfg.retention.type = RetentionType::Size;
    cfg.retention.limitBytes = 4096;
    ASSERT_TRUE(cluster.createStream("sc", "st", cfg).isOk());
    auto writer = cluster.makeWriter("sc/st");
    for (int i = 0; i < 100; ++i) writer->writeEvent("k", toBytes(std::string(200, 'r')));
    writer->flush();
    cluster.runUntilIdle();
    cluster.runFor(sim::sec(12));  // two retention ticks

    SegmentId s0 = cluster.ctrl().getCurrentSegments("sc/st").value()[0].record.id;
    auto uri = cluster.ctrl().uriOf(s0).value();
    auto info = uri.store->container(uri.containerId)->getInfo(s0).value();
    EXPECT_GT(info.startOffset, 0);
    EXPECT_LE(info.length - info.startOffset, 4096 + 512);
}

TEST_F(ControllerFixture, MetadataPersistedInKvTables) {
    ASSERT_TRUE(cluster.createStream("sc", "st", StreamConfig{}).isOk());
    cluster.runUntilIdle();
    // The stream record is stored in Pravega itself (§2.2): in the metadata
    // container's system table.
    auto* meta = cluster.registry().containerFor(0);
    ASSERT_NE(meta, nullptr);
    auto value = meta->tableGet(meta->systemTableSegment(), "streams/sc/st");
    ASSERT_TRUE(value.isOk());
    BinaryReader r{BytesView(value.value().value)};
    auto rec = StreamRecord::deserialize(r);
    ASSERT_TRUE(rec.isOk());
    EXPECT_EQ(rec.value().name(), "sc/st");
}

TEST_F(ControllerFixture, CrashStoreRedistributesContainers) {
    ASSERT_TRUE(cluster.createStream("sc", "st", StreamConfig{}).isOk());
    auto writer = cluster.makeWriter("sc/st");
    writer->writeEvent("k", toBytes("pre-crash"));
    writer->flush();
    cluster.runUntilIdle();

    size_t containersBefore = 0;
    for (auto* s : cluster.stores()) containersBefore += s->containerIds().size();
    ASSERT_TRUE(cluster.crashStore(0).isOk());
    cluster.runUntilIdle();

    size_t containersAfter = 0;
    for (auto* s : cluster.stores()) containersAfter += s->containerIds().size();
    EXPECT_EQ(containersAfter, containersBefore);
    EXPECT_EQ(cluster.stores().size(), 2u);
    // Every container has exactly one (live) owner.
    for (uint32_t c = 0; c < cluster.config().containerCount; ++c) {
        EXPECT_NE(cluster.registry().containerFor(c), nullptr) << c;
    }
}

// ---------------- AutoScaler hysteresis / boundary behavior ----------------

// These tests feed evaluateAll() synthetic per-segment rate samples (the
// same shape the poll timer drains from the stores) so boundary conditions
// are exact — no traffic jitter, no timer races.
struct AutoScalerFixture : public ControllerFixture {
    static constexpr double kTarget = 100.0;  // events/s

    StreamConfig scalingCfg(int initialSegments = 1) {
        StreamConfig cfg;
        cfg.initialSegments = initialSegments;
        cfg.scaling.type = ScaleType::ByRateEvents;
        cfg.scaling.targetRate = kTarget;
        cfg.scaling.scaleFactor = 2;
        cfg.scaling.minSegments = 1;
        return cfg;
    }

    std::vector<SegmentId> currentSegments(const std::string& scoped) {
        auto uris = cluster.ctrl().getCurrentSegments(scoped);  // keep alive
        std::vector<SegmentId> ids;
        for (const auto& uri : uris.value()) {
            ids.push_back(uri.record.id);
        }
        return ids;
    }

    /// One-second window where every listed segment ingested `eventsPerSec`
    /// events (bytes scaled ×100 so either policy type would agree).
    std::map<SegmentId, segmentstore::SegmentRate> window(
        const std::vector<SegmentId>& segments, double eventsPerSec) {
        std::map<SegmentId, segmentstore::SegmentRate> rates;
        for (SegmentId id : segments) {
            rates[id] = {static_cast<uint64_t>(eventsPerSec * 100),
                         static_cast<uint64_t>(eventsPerSec)};
        }
        return rates;
    }
};

TEST_F(AutoScalerFixture, ExactHotBoundaryNeverSplits) {
    // Hot is strict: rate > kHotFactor × target. A segment pinned exactly AT
    // the target must never split, no matter how long it sustains.
    AutoScaler scaler(cluster.machine(), cluster.ctrl(), cluster.stores());
    ASSERT_TRUE(cluster.createStream("sc", "edge", scalingCfg()).isOk());
    auto segs = currentSegments("sc/edge");
    for (int i = 0; i < 6; ++i) {
        scaler.evaluateAll(window(segs, kTarget), 1.0);
        cluster.runUntilIdle();
    }
    EXPECT_EQ(scaler.splitsIssued(), 0u);
    EXPECT_EQ(currentSegments("sc/edge").size(), 1u);
}

TEST_F(AutoScalerFixture, ExactColdBoundaryNeverMerges) {
    // Cold is strict: rate < kColdFactor × target. Both siblings pinned
    // exactly AT the cold threshold must never merge.
    AutoScaler scaler(cluster.machine(), cluster.ctrl(), cluster.stores());
    ASSERT_TRUE(cluster.createStream("sc", "edge", scalingCfg(2)).isOk());
    auto segs = currentSegments("sc/edge");
    for (int i = 0; i < 6; ++i) {
        scaler.evaluateAll(window(segs, 0.5 * kTarget), 1.0);
        cluster.runUntilIdle();
    }
    EXPECT_EQ(scaler.mergesIssued(), 0u);
    EXPECT_EQ(currentSegments("sc/edge").size(), 2u);
}

TEST_F(AutoScalerFixture, SlightlyOverTargetSplitsOnlyAfterSustainWindows) {
    AutoScaler scaler(cluster.machine(), cluster.ctrl(), cluster.stores());
    ASSERT_TRUE(cluster.createStream("sc", "edge", scalingCfg()).isOk());
    auto segs = currentSegments("sc/edge");

    scaler.evaluateAll(window(segs, kTarget + 1), 1.0);  // window 1 of 2
    cluster.runUntilIdle();
    EXPECT_EQ(scaler.splitsIssued(), 0u);

    scaler.evaluateAll(window(segs, kTarget + 1), 1.0);  // sustained → split
    cluster.runUntilIdle();
    EXPECT_EQ(scaler.splitsIssued(), 1u);
    EXPECT_EQ(currentSegments("sc/edge").size(), 2u);
}

TEST_F(AutoScalerFixture, CooldownBlocksBackToBackScales) {
    AutoScaler scaler(cluster.machine(), cluster.ctrl(), cluster.stores());
    ASSERT_TRUE(cluster.createStream("sc", "edge", scalingCfg()).isOk());
    auto segs = currentSegments("sc/edge");
    scaler.evaluateAll(window(segs, 5 * kTarget), 1.0);
    scaler.evaluateAll(window(segs, 5 * kTarget), 1.0);
    cluster.runUntilIdle();
    ASSERT_EQ(scaler.splitsIssued(), 1u);

    // Still hot, but within the 4 s cooldown: evaluation is suppressed
    // entirely (sustain counters must not even accumulate).
    segs = currentSegments("sc/edge");
    for (int i = 0; i < 4; ++i) {
        scaler.evaluateAll(window(segs, 5 * kTarget), 1.0);
        cluster.runUntilIdle();
    }
    EXPECT_EQ(scaler.splitsIssued(), 1u);

    // Past the cooldown the same pressure scales again — and needs the full
    // sustain count from scratch.
    cluster.runFor(sim::sec(5));
    scaler.evaluateAll(window(segs, 5 * kTarget), 1.0);
    cluster.runUntilIdle();
    EXPECT_EQ(scaler.splitsIssued(), 1u);  // one window is not sustained
    scaler.evaluateAll(window(segs, 5 * kTarget), 1.0);
    cluster.runUntilIdle();
    EXPECT_EQ(scaler.splitsIssued(), 2u);
}

TEST_F(AutoScalerFixture, UnevenSiblingsMergeAcrossFullRange) {
    // Merge partners need contiguity, not equal widths: [0,0.25) + [0.25,1)
    // — products of different split generations — merge back to [0,1).
    AutoScaler scaler(cluster.machine(), cluster.ctrl(), cluster.stores());
    ASSERT_TRUE(cluster.createStream("sc", "edge", scalingCfg()).isOk());
    SegmentId s0 = currentSegments("sc/edge")[0];
    auto fut = cluster.ctrl().scaleStream("sc/edge", {s0}, {{0.0, 0.25}, {0.25, 1.0}});
    ASSERT_TRUE(cluster.runUntil([&]() { return fut.isReady(); }, sim::sec(5)));
    ASSERT_TRUE(fut.result().isOk());
    cluster.runFor(sim::sec(5));  // clear any cooldown concerns

    auto segs = currentSegments("sc/edge");
    ASSERT_EQ(segs.size(), 2u);
    scaler.evaluateAll(window(segs, 0.1 * kTarget), 1.0);
    scaler.evaluateAll(window(segs, 0.1 * kTarget), 1.0);
    cluster.runUntilIdle();
    EXPECT_EQ(scaler.mergesIssued(), 1u);

    const auto& merged = cluster.ctrl().getStream("sc/edge").value()->currentEpoch();
    ASSERT_EQ(merged.segments.size(), 1u);
    EXPECT_DOUBLE_EQ(merged.segments[0].keyStart, 0.0);
    EXPECT_DOUBLE_EQ(merged.segments[0].keyEnd, 1.0);
}

TEST_F(AutoScalerFixture, MinSegmentsBlocksMerge) {
    StreamConfig cfg = scalingCfg(2);
    cfg.scaling.minSegments = 2;
    AutoScaler scaler(cluster.machine(), cluster.ctrl(), cluster.stores());
    ASSERT_TRUE(cluster.createStream("sc", "edge", cfg).isOk());
    auto segs = currentSegments("sc/edge");
    for (int i = 0; i < 4; ++i) {
        scaler.evaluateAll(window(segs, 0.0), 1.0);
        cluster.runUntilIdle();
    }
    EXPECT_EQ(scaler.mergesIssued(), 0u);
    EXPECT_EQ(currentSegments("sc/edge").size(), 2u);
}

TEST_F(AutoScalerFixture, DestroyWithPendingPollTimerIsSafe) {
    // Regression for the scheduleWeak liveness gap: the poll timer used to
    // capture a raw `this`, so destroying the scaler with a poll queued was
    // a use-after-free (caught under ASan).
    ASSERT_TRUE(cluster.createStream("sc", "edge", scalingCfg()).isOk());
    {
        AutoScaler scaler(cluster.machine(), cluster.ctrl(), cluster.stores());
        scaler.start();
        cluster.runFor(sim::msec(200));  // timer armed for t+1s, not yet due
    }
    cluster.runFor(sim::sec(3));  // the orphaned weak timer fires harmlessly
}

}  // namespace
}  // namespace pravega::controller
