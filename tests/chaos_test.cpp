// Chaos tests: seeded, replayable fault schedules against a full cluster.
//
// FoundationDB-style deterministic simulation testing. A ChaosSchedule
// derives a fault timeline (bookie crash/restart, store<->bookie partitions,
// link degradation, LTS outages) from a single seed and executes it while
// writer traffic runs; afterwards the suite asserts the paper's core
// guarantees: no acknowledged event is lost, no duplicates, per-key order
// holds, and the cluster converges once the faults clear. The same seed must
// reproduce the identical fault log and the identical final state.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "client/event_reader.h"
#include "cluster/chaos.h"
#include "cluster/pravega_cluster.h"
#include "detect/monitor.h"
#include "obs/metrics.h"

namespace pravega {
namespace {

using cluster::ChaosSchedule;
using cluster::ClusterConfig;
using cluster::PravegaCluster;
using controller::StreamConfig;

ClusterConfig chaosClusterConfig() {
    ClusterConfig cfg;
    cfg.ltsKind = cluster::LtsKind::InMemory;
    cfg.bookies = 5;  // two spares so ensemble changes always find a donor
    cfg.store.container.log.repl.ensembleSize = 3;
    // Partitions are silent blackholes; the per-entry write timeout is what
    // detects them and triggers ensemble changes before appends stall.
    cfg.store.container.log.repl.writeTimeout = sim::msec(100);
    return cfg;
}

struct TrafficResult {
    int sent = 0;
    int acked = 0;
    std::set<std::string> ackedEvents;  // "key#seq" payloads acknowledged
    std::vector<std::string> read;      // payloads in read order
};

/// Writes `key#seq` events in rounds while the schedule executes, then
/// heals/restarts everything, drains, and reads the stream back.
void runChaosWorkload(PravegaCluster& cluster, ChaosSchedule& schedule,
                      TrafficResult& out) {
    StreamConfig scfg;
    scfg.initialSegments = 2;
    ASSERT_TRUE(cluster.createStream("sc", "st", scfg).isOk());
    auto writer = cluster.makeWriter("sc/st");
    schedule.arm();

    std::map<std::string, int> written;
    const sim::TimePoint trafficEnd = schedule.endTime() + sim::msec(100);
    while (cluster.executor().now() < trafficEnd) {
        for (int i = 0; i < 10; ++i) {
            std::string key = "key-" + std::to_string(out.sent % 6);
            std::string event = key + "#" + std::to_string(written[key]++);
            ++out.sent;
            writer->writeEvent(key, toBytes(event), [&out, event](Status s) {
                if (s.isOk()) {
                    ++out.acked;
                    out.ackedEvents.insert(event);
                }
            });
        }
        writer->flush();
        cluster.runFor(sim::msec(20));
    }
    writer->flush();
    cluster.runUntilIdle();
    EXPECT_TRUE(schedule.finished());

    // Convergence: every fault window has closed by endTime() (the
    // generator pairs crash/restart and partition/heal), but be explicit so
    // a truncated schedule cannot leave the cluster wedged.
    cluster.network().healAll();
    for (size_t b = 0; b < cluster.bookies().size(); ++b) {
        if (!cluster.bookieAlive(b)) cluster.restartBookie(b);
    }
    cluster.runUntilIdle();

    auto group = cluster.makeReaderGroup("g", {"sc/st"});
    ASSERT_TRUE(group.isOk());
    auto reader = group.value()->createReader("r", cluster.newClientHost());
    while (static_cast<int>(out.read.size()) < out.sent) {
        auto fut = reader->readNextEvent();
        if (!cluster.runUntil([&]() { return fut.isReady(); }, sim::sec(2))) break;
        if (!fut.result().isOk()) break;
        out.read.push_back(toString(BytesView(fut.result().value().payload)));
    }
}

/// The chaos invariants: exactly-once, per-key order, and no acknowledged
/// event lost. Gaps in a key's sequence are tolerated only for events whose
/// ack never fired (the writer knows they may not have landed).
void checkInvariants(const TrafficResult& t) {
    std::map<std::string, int> nextSeq;
    std::set<std::string> readSet;
    for (const std::string& s : t.read) {
        auto hash = s.find('#');
        ASSERT_NE(hash, std::string::npos) << s;
        std::string key = s.substr(0, hash);
        int seq = std::stoi(s.substr(hash + 1));
        EXPECT_TRUE(readSet.insert(s).second) << "duplicate event " << s;
        EXPECT_GE(seq, nextSeq[key]) << "reordered event " << s;
        for (int skipped = nextSeq[key]; skipped < seq; ++skipped) {
            EXPECT_FALSE(t.ackedEvents.contains(key + "#" + std::to_string(skipped)))
                << "acked event lost: " << key << "#" << skipped;
        }
        nextSeq[key] = seq + 1;
    }
    for (const std::string& ev : t.ackedEvents) {
        EXPECT_TRUE(readSet.contains(ev)) << "acked event not read: " << ev;
    }
}

TEST(ChaosScheduleTest, TimelineIsAPureFunctionOfSeed) {
    PravegaCluster cluster(chaosClusterConfig());
    ChaosSchedule::Config ccfg;
    ccfg.seed = 11;
    ChaosSchedule s1(cluster, ccfg);
    ChaosSchedule s2(cluster, ccfg);
    ccfg.seed = 12;
    ChaosSchedule s3(cluster, ccfg);

    ASSERT_EQ(s1.timeline().size(), s2.timeline().size());
    for (size_t i = 0; i < s1.timeline().size(); ++i) {
        EXPECT_EQ(s1.timeline()[i].at, s2.timeline()[i].at);
        EXPECT_EQ(s1.timeline()[i].kind, s2.timeline()[i].kind);
        EXPECT_EQ(s1.timeline()[i].a, s2.timeline()[i].a);
        EXPECT_EQ(s1.timeline()[i].b, s2.timeline()[i].b);
        EXPECT_EQ(s1.timeline()[i].duration, s2.timeline()[i].duration);
    }
    // A different seed must not reproduce the same timeline.
    bool differs = s1.timeline().size() != s3.timeline().size();
    for (size_t i = 0; !differs && i < s1.timeline().size(); ++i) {
        differs = s1.timeline()[i].at != s3.timeline()[i].at ||
                  s1.timeline()[i].kind != s3.timeline()[i].kind ||
                  s1.timeline()[i].a != s3.timeline()[i].a;
    }
    EXPECT_TRUE(differs);
}

TEST(ChaosTest, SeededFaultSchedulesKeepInvariants) {
    for (uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        PravegaCluster cluster(chaosClusterConfig());
        ChaosSchedule::Config ccfg;
        ccfg.seed = seed;
        ccfg.horizon = sim::sec(1);
        ccfg.faults = 5;
        ChaosSchedule schedule(cluster, ccfg);
        TrafficResult t;
        runChaosWorkload(cluster, schedule, t);
        if (::testing::Test::HasFatalFailure()) return;
        checkInvariants(t);
        // With >= ackQuorum bookies always reachable (slotted faults) and
        // ensemble changes covering the rest, chaos may delay but never
        // fail an append.
        EXPECT_EQ(t.acked, t.sent);
        EXPECT_EQ(static_cast<int>(t.read.size()), t.sent);
    }
}

TEST(ChaosTest, SameSeedReproducesIdenticalTimelineAndFinalState) {
    auto run = [](TrafficResult& t, std::vector<std::string>& log, std::string& metrics) {
        PravegaCluster cluster(chaosClusterConfig());
        ChaosSchedule::Config ccfg;
        ccfg.seed = 42;
        ccfg.horizon = sim::sec(1);
        ccfg.faults = 5;
        ChaosSchedule schedule(cluster, ccfg);
        runChaosWorkload(cluster, schedule, t);
        log = schedule.executedLog();
        metrics = cluster.executor().metrics().dump();
    };
    TrafficResult a, b;
    std::vector<std::string> logA, logB;
    std::string metricsA, metricsB;
    run(a, logA, metricsA);
    run(b, logB, metricsB);

    // The determinism contract: identical fault log (timestamps included)
    // and identical final state, event for event — and a byte-identical
    // obs:: metric dump (the observability layer records on virtual time
    // only, so it must not perturb or diverge across same-seed runs).
    ASSERT_FALSE(logA.empty());
    EXPECT_EQ(logA, logB);
    ASSERT_FALSE(metricsA.empty());
    EXPECT_EQ(metricsA, metricsB);
    EXPECT_EQ(a.sent, b.sent);
    EXPECT_EQ(a.acked, b.acked);
    EXPECT_EQ(a.ackedEvents, b.ackedEvents);
    EXPECT_EQ(a.read, b.read);
}

TEST(ChaosTest, BookieCrashMidTrafficContinuesViaEnsembleChange) {
    PravegaCluster cluster(chaosClusterConfig());
    StreamConfig scfg;
    scfg.initialSegments = 4;
    ASSERT_TRUE(cluster.createStream("sc", "st", scfg).isOk());
    auto writer = cluster.makeWriter("sc/st");

    TrafficResult t;
    std::map<std::string, int> written;
    auto burst = [&](int n) {
        for (int i = 0; i < n; ++i) {
            std::string key = "key-" + std::to_string(t.sent % 8);
            std::string event = key + "#" + std::to_string(written[key]++);
            ++t.sent;
            writer->writeEvent(key, toBytes(event), [&t, event](Status s) {
                if (s.isOk()) {
                    ++t.acked;
                    t.ackedEvents.insert(event);
                }
            });
        }
        writer->flush();
    };
    burst(100);
    cluster.runUntilIdle();
    ASSERT_EQ(t.acked, t.sent);

    // Crash the busiest bookie (guaranteed to sit in an active ensemble)
    // while more traffic is already queued behind it.
    auto bookies = cluster.bookies();
    size_t victim = 0;
    for (size_t i = 1; i < bookies.size(); ++i) {
        if (bookies[i]->storedBytes() > bookies[victim]->storedBytes()) victim = i;
    }
    ASSERT_GT(bookies[victim]->storedBytes(), 0u);
    burst(50);
    ASSERT_TRUE(cluster.crashBookie(victim).isOk());
    burst(100);
    cluster.runUntilIdle();

    // The acceptance bar: appends continue via ensemble change — every
    // write issued around and after the crash still acknowledged.
    EXPECT_EQ(t.acked, t.sent);
    uint64_t changes = 0;
    for (auto* store : cluster.stores()) {
        for (uint32_t cid : store->containerIds()) {
            if (auto* c = store->container(cid)) changes += c->walLog().ensembleChanges();
        }
    }
    EXPECT_GE(changes, 1u);

    // The dead bookie comes back empty-handed for new ledgers but the data
    // is all there: read everything back and hold the invariants.
    ASSERT_TRUE(cluster.restartBookie(victim).isOk());
    auto group = cluster.makeReaderGroup("g", {"sc/st"});
    ASSERT_TRUE(group.isOk());
    auto reader = group.value()->createReader("r", cluster.newClientHost());
    while (static_cast<int>(t.read.size()) < t.sent) {
        auto fut = reader->readNextEvent();
        if (!cluster.runUntil([&]() { return fut.isReady(); }, sim::sec(2))) break;
        if (!fut.result().isOk()) break;
        t.read.push_back(toString(BytesView(fut.result().value().payload)));
    }
    EXPECT_EQ(static_cast<int>(t.read.size()), t.sent);
    checkInvariants(t);
}

TEST(ChaosTest, SloGuardrailFiresUnderPartitionAndHoldsWithoutFaults) {
    // The same guardrail evaluated under the same traffic: partitioning two
    // of the active ensemble's bookies must breach it — quorum (2 of 3)
    // becomes unreachable, appends stall on the 100ms write timeout, and
    // the ensemble change commits them late. (A single blackholed bookie
    // would be quorum-masked and invisible.) The fault-free control run
    // must keep the same rule green.
    auto run = [](bool injectPartition) {
        PravegaCluster cluster(chaosClusterConfig());
        StreamConfig scfg;
        scfg.initialSegments = 2;
        EXPECT_TRUE(cluster.createStream("sc", "st", scfg).isOk());
        auto writer = cluster.makeWriter("sc/st");

        detect::Monitor monitor(cluster.executor());
        monitor.addGuardrail("p99(trace.write.2_wal_commit_ns) < 50ms for 100ms");
        monitor.start();

        int sent = 0, acked = 0;
        bool partitioned = false;
        while (cluster.executor().now() < sim::sec(1)) {
            if (injectPartition && !partitioned &&
                cluster.executor().now() >= sim::msec(500)) {
                partitioned = true;
                // Blackhole the two busiest bookies (single-key traffic
                // lands on one log, so these are two of its three ensemble
                // members) from every store for 200ms.
                auto bookies = cluster.bookies();
                std::vector<size_t> order(bookies.size());
                for (size_t i = 0; i < order.size(); ++i) order[i] = i;
                std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
                    return bookies[x]->storedBytes() > bookies[y]->storedBytes();
                });
                for (size_t v = 0; v < 2; ++v) {
                    for (size_t s = 0; s < cluster.stores().size(); ++s) {
                        cluster.network().partition(cluster.storeHost(s),
                                                    cluster.bookieHost(order[v]));
                    }
                }
                cluster.executor().schedule(sim::msec(200), [&cluster]() {
                    cluster.network().healAll();
                });
            }
            for (int i = 0; i < 10; ++i) {
                std::string ev = "k#" + std::to_string(sent++);
                writer->writeEvent("k", toBytes(ev), [&acked](Status s) {
                    if (s.isOk()) ++acked;
                });
            }
            writer->flush();
            cluster.runFor(sim::msec(10));
        }
        monitor.stop();
        cluster.runUntilIdle();
        EXPECT_EQ(acked, sent);
        return monitor.guardrailVerdicts().front();
    };

    detect::SloVerdict breached = run(/*injectPartition=*/true);
    EXPECT_FALSE(breached.passed);
    EXPECT_GE(breached.episodes, 1u);
    EXPECT_GE(breached.firstViolation, sim::msec(500));
    EXPECT_GT(breached.worst, 50.0);

    detect::SloVerdict clean = run(/*injectPartition=*/false);
    EXPECT_TRUE(clean.passed);
    EXPECT_GT(clean.evaluations, 0u);
    EXPECT_EQ(clean.episodes, 0u);
}

TEST(ChaosTest, LtsFaultsNeverAffectAcksAndTieringConverges) {
    // LTS outages/slowdowns must be invisible to the ack path (the WAL is
    // the durability anchor, §4.3); tiering retries until it drains.
    ClusterConfig cfg = chaosClusterConfig();
    cfg.faultInjectLts = true;
    cfg.store.container.storage.flushTimeout = sim::msec(50);
    cfg.store.container.storage.scanInterval = sim::msec(10);
    PravegaCluster cluster(cfg);
    ChaosSchedule::Config ccfg;
    ccfg.seed = 7;
    ccfg.bookieFaults = false;
    ccfg.partitionFaults = false;
    ccfg.degradeFaults = false;
    ccfg.ltsOutageFaults = true;
    ccfg.ltsSlowdownFaults = true;
    ccfg.horizon = sim::sec(1);
    ccfg.faults = 4;
    ChaosSchedule schedule(cluster, ccfg);
    TrafficResult t;
    runChaosWorkload(cluster, schedule, t);
    if (::testing::Test::HasFatalFailure()) return;
    checkInvariants(t);
    EXPECT_EQ(t.acked, t.sent);
    EXPECT_EQ(static_cast<int>(t.read.size()), t.sent);
}

}  // namespace
}  // namespace pravega
