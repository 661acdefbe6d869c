// Tests for the online failure-detection layer (src/detect/): streaming
// detectors against synthetic feeds with injected faults, the SLO guardrail
// grammar and windowed evaluation, scoring math against hand-built ground
// truth, ChaosSchedule fault-window export, and the Monitor end-to-end on a
// real cluster — a bookie crash must alarm within the scoring grace, a
// fault-free control run must stay silent, and same-seed runs must produce
// byte-identical alarm logs.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "cluster/chaos.h"
#include "cluster/pravega_cluster.h"
#include "detect/detectors.h"
#include "detect/monitor.h"
#include "detect/scoring.h"
#include "detect/slo.h"
#include "obs/metrics.h"
#include "sim/machine.h"

namespace pravega {
namespace {

using cluster::ChaosSchedule;
using cluster::ClusterConfig;
using cluster::PravegaCluster;
using controller::StreamConfig;
using detect::Alarm;
using detect::AlarmKind;
using detect::CusumDetector;
using detect::EwmaDetector;
using detect::FaultWindow;
using detect::Fire;
using detect::Monitor;
using detect::RateCollapseDetector;
using detect::SloGuardrail;
using detect::SloRule;

// ----------------------------------------------------------- EWMA detector

TEST(EwmaDetectorTest, StepSpikeFiresOncePerExcursionWithHysteresis) {
    EwmaDetector::Config cfg;
    cfg.k = 4, cfg.rearmK = 2, cfg.minSamples = 10, cfg.minSigma = 0.5;
    cfg.relMinSigma = 0, cfg.twoSided = false;
    EwmaDetector det(cfg);

    int fires = 0;
    for (int i = 0; i < 30; ++i) {
        if (det.update(10.0)) ++fires;
    }
    EXPECT_EQ(fires, 0);  // flat baseline never alarms

    // A step to 40 is 60 floor-sigmas: exactly ONE alarm for the whole
    // excursion, no matter how long it lasts.
    for (int i = 0; i < 10; ++i) {
        if (det.update(40.0)) ++fires;
    }
    EXPECT_EQ(fires, 1);
    EXPECT_TRUE(det.active());
    // Baseline was frozen during the excursion — the fault was not absorbed.
    EXPECT_NEAR(det.mean(), 10.0, 0.5);

    // Recovery re-arms, and the NEXT excursion fires again.
    for (int i = 0; i < 5; ++i) det.update(10.0);
    EXPECT_FALSE(det.active());
    std::optional<Fire> second = det.update(40.0);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->kind, AlarmKind::Spike);
    fires += 1;
    EXPECT_EQ(fires, 2);
}

TEST(EwmaDetectorTest, DoesNotArmBeforeMinSamples) {
    EwmaDetector::Config cfg;
    cfg.k = 3, cfg.minSamples = 20, cfg.minSigma = 0.1, cfg.relMinSigma = 0;
    EwmaDetector det(cfg);
    for (int i = 0; i < 10; ++i) det.update(5.0);
    // Sample 11 is a wild outlier, but the detector is still warming up.
    EXPECT_FALSE(det.update(500.0).has_value());
}

TEST(EwmaDetectorTest, TwoSidedCatchesDrops) {
    EwmaDetector::Config cfg;
    cfg.k = 4, cfg.minSamples = 5, cfg.minSigma = 1.0, cfg.relMinSigma = 0;
    cfg.twoSided = true;
    EwmaDetector det(cfg);
    for (int i = 0; i < 20; ++i) det.update(100.0);
    std::optional<Fire> fired = det.update(50.0);
    ASSERT_TRUE(fired.has_value());
    EXPECT_EQ(fired->kind, AlarmKind::Drop);
    EXPECT_LT(fired->score, 0);
}

TEST(EwmaDetectorTest, WinsorizationKeepsWarmupSpikeFromMaskingLaterFaults) {
    // A large outlier DURING warmup (before the detector can fire and
    // freeze) would classically inflate the EWMA variance so much that a
    // later genuine-but-small fault never reaches k sigmas. The winsorized
    // baseline clamps the outlier's contribution and stays sensitive.
    EwmaDetector::Config cfg;
    cfg.alpha = 0.25, cfg.k = 3.5, cfg.rearmK = 2, cfg.minSamples = 6;
    cfg.minSigma = 0.5, cfg.relMinSigma = 0.05, cfg.twoSided = false;
    cfg.winsorK = 3;
    EwmaDetector winsorized(cfg);
    cfg.winsorK = 0;
    EwmaDetector plain(cfg);

    auto feedBoth = [&](double x) {
        return std::make_pair(winsorized.update(x).has_value(),
                              plain.update(x).has_value());
    };
    for (int i = 0; i < 3; ++i) feedBoth(10.0);
    feedBoth(100.0);  // warmup outlier: neither detector is armed yet
    for (int i = 0; i < 10; ++i) feedBoth(10.0);

    // +30% latency shift — a realistic small fault.
    auto [winsorFired, plainFired] = feedBoth(13.0);
    EXPECT_TRUE(winsorFired);
    EXPECT_FALSE(plainFired);  // variance poisoned by the warmup outlier
}

TEST(EwmaDetectorTest, NonFiniteSamplesAreIgnored) {
    EwmaDetector::Config cfg;
    cfg.minSamples = 2, cfg.minSigma = 0.1, cfg.relMinSigma = 0;
    EwmaDetector det(cfg);
    for (int i = 0; i < 10; ++i) det.update(7.0);
    double mean = det.mean();
    EXPECT_FALSE(det.update(std::nan("")).has_value());
    EXPECT_FALSE(det.update(std::numeric_limits<double>::infinity()).has_value());
    EXPECT_DOUBLE_EQ(det.mean(), mean);  // baseline untouched
}

// ---------------------------------------------------------- CUSUM detector

TEST(CusumDetectorTest, SlowDriftAccumulatesAndFires) {
    // Per-sample shift of 1.5 floor-sigmas: far below any reasonable EWMA
    // residual threshold, but the CUSUM sums (z - k) until it crosses h.
    CusumDetector::Config cfg;
    cfg.alpha = 0.0;  // frozen baseline isolates the accumulation math
    cfg.k = 0.5, cfg.h = 8, cfg.minSamples = 5;
    cfg.minSigma = 1.0, cfg.relMinSigma = 0, cfg.twoSided = false;
    CusumDetector det(cfg);
    for (int i = 0; i < 10; ++i) det.update(10.0);

    int fires = 0, steps = 0;
    for (; steps < 20; ++steps) {
        if (det.update(11.5)) {
            ++fires;
            break;
        }
    }
    // z = 1.5 each step, so g grows by 1.0: crossing h = 8 takes 9 steps.
    EXPECT_EQ(fires, 1);
    EXPECT_EQ(steps, 8);  // 0-indexed: the 9th drifted sample fires
    // The statistic reset after the decision.
    EXPECT_LT(det.statPos(), 1.5);
}

TEST(CusumDetectorTest, ZeroMeanNoiseNeverFires) {
    CusumDetector::Config cfg;
    cfg.k = 0.5, cfg.h = 6, cfg.minSamples = 5;
    cfg.minSigma = 1.0, cfg.relMinSigma = 0;
    CusumDetector det(cfg);
    // Alternating +-0.4 sigma around the mean: |z| < k, so both sides of
    // the statistic stay pinned at zero.
    for (int i = 0; i < 200; ++i) {
        EXPECT_FALSE(det.update(10.0 + ((i % 2) ? 0.4 : -0.4)).has_value());
    }
    EXPECT_DOUBLE_EQ(det.statPos(), 0.0);
    EXPECT_DOUBLE_EQ(det.statNeg(), 0.0);
}

// ----------------------------------------------------- rate-collapse detector

TEST(RateCollapseDetectorTest, FlatlineFiresAfterConsecutiveSamples) {
    RateCollapseDetector::Config cfg;
    cfg.minBaseline = 100, cfg.collapseFraction = 0.1, cfg.consecutive = 4;
    cfg.minSamples = 5;
    RateCollapseDetector det(cfg);
    for (int i = 0; i < 10; ++i) {
        EXPECT_FALSE(det.update(1000.0).has_value());
    }
    int fires = 0, flatSamples = 0;
    for (int i = 0; i < 10; ++i) {
        ++flatSamples;
        if (det.update(0.0)) {
            ++fires;
            break;
        }
    }
    EXPECT_EQ(fires, 1);
    EXPECT_EQ(flatSamples, cfg.consecutive);
    // The collapse never fed the baseline: recovery + a fresh collapse
    // fires again at full sensitivity.
    for (int i = 0; i < 5; ++i) det.update(1000.0);
    EXPECT_NEAR(det.baseline(), 1000.0, 1.0);
    EXPECT_FALSE(det.active());
}

TEST(RateCollapseDetectorTest, NeverArmsBelowMinBaseline) {
    RateCollapseDetector::Config cfg;
    cfg.minBaseline = 100, cfg.collapseFraction = 0.5, cfg.consecutive = 2;
    cfg.minSamples = 3;
    RateCollapseDetector det(cfg);
    // A naturally quiet metric (rate ~5) dropping to zero is NOT a
    // collapse — there was never enough traffic to judge.
    for (int i = 0; i < 20; ++i) det.update(5.0);
    for (int i = 0; i < 20; ++i) {
        EXPECT_FALSE(det.update(0.0).has_value());
    }
}

// ------------------------------------------------------------- SLO grammar

TEST(SloRuleTest, ParsesTheDocumentedGrammar) {
    auto r1 = SloRule::parse("p99(trace.write.2_wal_commit_ns) < 50ms for 200ms");
    ASSERT_TRUE(r1.isOk());
    EXPECT_EQ(r1.value().agg, SloRule::Agg::P99);
    EXPECT_EQ(r1.value().metric, "trace.write.2_wal_commit_ns");
    EXPECT_EQ(r1.value().cmp, SloRule::Cmp::LT);
    EXPECT_DOUBLE_EQ(r1.value().bound, 50.0);
    EXPECT_EQ(r1.value().window, sim::msec(200));

    auto r2 = SloRule::parse("rate(wal.log.appends) >= 1000/s for 300ms");
    ASSERT_TRUE(r2.isOk());
    EXPECT_EQ(r2.value().agg, SloRule::Agg::Rate);
    EXPECT_EQ(r2.value().cmp, SloRule::Cmp::GE);
    EXPECT_DOUBLE_EQ(r2.value().bound, 1000.0);

    auto r3 = SloRule::parse("value(store.op_queue.depth) <= 10000");
    ASSERT_TRUE(r3.isOk());
    EXPECT_EQ(r3.value().agg, SloRule::Agg::Value);
    EXPECT_EQ(r3.value().window, 0);

    // Latency units convert to ms; windows accept any time unit.
    auto r4 = SloRule::parse("max(store.writer.flush_ns) < 2s for 1s");
    ASSERT_TRUE(r4.isOk());
    EXPECT_DOUBLE_EQ(r4.value().bound, 2000.0);
    EXPECT_EQ(r4.value().window, sim::sec(1));
    auto r5 = SloRule::parse("p50(m) > 1500us");
    ASSERT_TRUE(r5.isOk());
    EXPECT_DOUBLE_EQ(r5.value().bound, 1.5);
}

TEST(SloRuleTest, RejectsMalformedRules) {
    for (const char* bad : {
             "p42(m) < 5ms",            // unknown aggregate
             "p99 m < 5ms",             // missing parens
             "p99(m < 5ms",             // unclosed paren
             "p99() < 5ms",             // empty metric
             "p99(m) ! 5ms",            // bad comparator
             "p99(m) < banana",         // bad bound
             "p99(m) < 5ms for",        // missing window
             "p99(m) < 5ms for 200",    // window without unit
             "p99(m) < 5ms for 200ms x" // trailing junk
         }) {
        EXPECT_FALSE(SloRule::parse(bad).isOk()) << bad;
    }
}

TEST(SloGuardrailTest, WindowedBreachFiresOncePerEpisodeAndColdStartIsVacuous) {
    sim::Machine exec;
    auto& hist = exec.metrics().histogram("lat");
    auto rule = SloRule::parse("p99(lat) < 5ms for 30ms");
    ASSERT_TRUE(rule.isOk());
    SloGuardrail rail(rule.value(), sim::msec(10));

    // Cold start: no evaluation until a full window of snapshots exists.
    int alarms = 0;
    auto tickAt = [&](sim::TimePoint t) {
        exec.runUntil(t);
        if (rail.evaluate(exec.metrics(), exec.now())) ++alarms;
    };
    hist.record(sim::msec(1));
    tickAt(sim::msec(10));
    tickAt(sim::msec(20));
    EXPECT_EQ(rail.verdict().evaluations, 0u);  // still cold

    for (int t = 30; t <= 60; t += 10) {
        hist.record(sim::msec(1));
        tickAt(sim::msec(t));
    }
    EXPECT_GT(rail.verdict().evaluations, 0u);
    EXPECT_TRUE(rail.verdict().passed);
    EXPECT_EQ(alarms, 0);

    // Breach: sustained 50ms samples push the windowed p99 over the bound.
    // One episode => exactly one Slo fire, however many ticks it lasts.
    for (int t = 70; t <= 120; t += 10) {
        hist.record(sim::msec(50));
        tickAt(sim::msec(t));
    }
    EXPECT_EQ(alarms, 1);
    EXPECT_TRUE(rail.breached());
    EXPECT_FALSE(rail.verdict().passed);
    EXPECT_GE(rail.verdict().violations, 2u);
    EXPECT_EQ(rail.verdict().episodes, 1u);
    EXPECT_GT(rail.verdict().worst, 5.0);
}

// ---------------------------------------------------------------- scoring

TEST(ScoringTest, RecallPrecisionAndLatencyMath) {
    std::vector<FaultWindow> faults = {
        {"bookie-crash", 2, -1, sim::msec(100), sim::msec(200)},
        {"partition", 0, 3, sim::msec(500), sim::msec(600)},
        {"partition", 1, 4, sim::msec(900), sim::msec(950)},
    };
    auto alarmAt = [](sim::TimePoint t) {
        Alarm a;
        a.at = t;
        a.detector = "ewma";
        a.metric = "m";
        return a;
    };
    std::vector<Alarm> alarms = {
        alarmAt(sim::msec(150)),   // inside window 1: detect latency 50ms
        alarmAt(sim::msec(750)),   // 150ms after window 2 ends: grace match
        alarmAt(sim::msec(1600)),  // matches nothing: false positive
    };
    detect::ScoreReport r = detect::score(faults, alarms);
    EXPECT_EQ(r.faults, 3);
    EXPECT_EQ(r.detected, 2);
    EXPECT_DOUBLE_EQ(r.recall, 2.0 / 3.0);
    EXPECT_EQ(r.totalAlarms, 3);
    EXPECT_EQ(r.matchedAlarms, 2);
    EXPECT_EQ(r.falsePositives, 1);
    EXPECT_DOUBLE_EQ(r.precision, 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(r.meanDetectMs, (50.0 + 250.0) / 2.0);
    EXPECT_DOUBLE_EQ(r.maxDetectMs, 250.0);

    EXPECT_DOUBLE_EQ(r.classRecall("bookie-crash"), 1.0);
    EXPECT_DOUBLE_EQ(r.classRecall("partition"), 0.5);
    EXPECT_DOUBLE_EQ(r.classRecall("never-injected"), 1.0);  // vacuous

    // The JSON mirror carries the same numbers.
    std::string json = r.toJson();
    EXPECT_NE(json.find("\"recall\""), std::string::npos);
    EXPECT_NE(json.find("\"per_class\""), std::string::npos);
}

TEST(ScoringTest, EdgeCasesAreWellDefined) {
    // No faults, no alarms: a perfect control run.
    detect::ScoreReport clean = detect::score({}, {});
    EXPECT_DOUBLE_EQ(clean.recall, 1.0);
    EXPECT_DOUBLE_EQ(clean.precision, 1.0);

    // Faults but silence: recall 0, precision (vacuously) 1.
    std::vector<FaultWindow> faults = {{"x", -1, -1, sim::msec(10), sim::msec(20)}};
    detect::ScoreReport silent = detect::score(faults, {});
    EXPECT_DOUBLE_EQ(silent.recall, 0.0);
    EXPECT_DOUBLE_EQ(silent.precision, 1.0);

    // Alarms with no faults: all false positives.
    Alarm a;
    a.at = sim::msec(50);
    detect::ScoreReport noisy = detect::score({}, {a});
    EXPECT_DOUBLE_EQ(noisy.precision, 0.0);
    EXPECT_EQ(noisy.falsePositives, 1);
}

// ------------------------------------------------- chaos ground-truth export

TEST(ChaosGroundTruthTest, FaultWindowsPairOpenersAndSkipClosers) {
    ClusterConfig cfg;
    cfg.ltsKind = cluster::LtsKind::InMemory;
    cfg.bookies = 5;
    cfg.faultInjectLts = true;
    PravegaCluster cluster(cfg);
    ChaosSchedule::Config ccfg;
    ccfg.seed = 99;
    ccfg.horizon = sim::sec(1);
    ccfg.faults = 6;
    ChaosSchedule schedule(cluster, ccfg);

    size_t openers = 0;
    for (const auto& ev : schedule.timeline()) {
        switch (ev.kind) {
            case cluster::ChaosEvent::Kind::BookieCrash:
            case cluster::ChaosEvent::Kind::StoreCrash:
            case cluster::ChaosEvent::Kind::Partition:
            case cluster::ChaosEvent::Kind::LinkDegrade:
            case cluster::ChaosEvent::Kind::LtsOutage:
            case cluster::ChaosEvent::Kind::LtsSlowdown:
                ++openers;
                break;
            default:
                break;
        }
    }
    std::vector<FaultWindow> windows = schedule.faultWindows();
    ASSERT_EQ(windows.size(), openers);
    sim::TimePoint prev = 0;
    for (const FaultWindow& w : windows) {
        EXPECT_LT(w.start, w.end) << w.klass;
        EXPECT_GE(w.start, prev);  // start-sorted
        prev = w.start;
        EXPECT_TRUE(w.klass != "bookie-restart" && w.klass != "heal" &&
                    w.klass != "lts-restore")
            << w.klass;
    }

    std::string json = schedule.groundTruthJson();
    EXPECT_NE(json.find("\"seed\":99"), std::string::npos);
    EXPECT_NE(json.find("\"windows\":["), std::string::npos);
}

// --------------------------------------------------- monitor sampling edges

TEST(MonitorTest, SkipsColdStartsAndMissingInstrumentsWithoutAlarming) {
    sim::Machine exec;
    Monitor::Config mcfg;
    mcfg.period = sim::msec(10);
    Monitor monitor(exec, mcfg);

    detect::ProbeConfig counterProbe;
    counterProbe.metric = "some.counter";
    counterProbe.source = detect::ProbeConfig::Source::CounterRate;
    EwmaDetector::Config e;
    e.minSamples = 2, e.minSigma = 1.0, e.relMinSigma = 0;
    counterProbe.ewma = e;
    monitor.addProbe(counterProbe);

    detect::ProbeConfig histProbe;  // histogram that never records
    histProbe.metric = "never.recorded";
    histProbe.source = detect::ProbeConfig::Source::HistP99Ms;
    histProbe.ewma = e;
    monitor.addProbe(histProbe);

    monitor.start();
    exec.runFor(sim::msec(100));
    monitor.stop();

    EXPECT_GT(monitor.ticks(), 0u);
    EXPECT_TRUE(monitor.alarms().empty());
    // Both probes skipped at least once (counter first tick + every
    // empty-histogram tick), and the monitor counted them.
    EXPECT_GE(exec.metrics().counterValue("detect.samples.skipped"),
              monitor.ticks() + 1);
    // The weak timer never blocked runUntilIdle: stop() then idle converges.
    exec.runUntilIdle();
}

// ------------------------------------------------------ cluster end-to-end

ClusterConfig detectClusterConfig() {
    ClusterConfig cfg;
    cfg.ltsKind = cluster::LtsKind::InMemory;
    cfg.bookies = 5;
    cfg.store.container.log.repl.ensembleSize = 3;
    cfg.store.container.log.repl.writeTimeout = sim::msec(100);
    return cfg;
}

/// Writes keyed bursts every 10ms of virtual time until `until`.
void driveTraffic(PravegaCluster& cluster, client::EventWriter& writer,
                  sim::TimePoint until, int* sent, int* acked) {
    while (cluster.executor().now() < until) {
        for (int i = 0; i < 20; ++i) {
            std::string key = "key-" + std::to_string(*sent % 6);
            std::string event = key + "#" + std::to_string((*sent)++);
            writer.writeEvent(key, toBytes(event), [acked](Status s) {
                if (s.isOk()) ++(*acked);
            });
        }
        writer.flush();
        cluster.runFor(sim::msec(10));
    }
}

TEST(MonitorClusterTest, BookieCrashAlarmsWithinGrace) {
    PravegaCluster cluster(detectClusterConfig());
    StreamConfig scfg;
    scfg.initialSegments = 2;
    ASSERT_TRUE(cluster.createStream("sc", "st", scfg).isOk());
    auto writer = cluster.makeWriter("sc/st");

    Monitor monitor(cluster.executor());
    monitor.addDefaultWritePathProbes();
    monitor.start();

    int sent = 0, acked = 0;
    driveTraffic(cluster, *writer, sim::msec(500), &sent, &acked);

    // Crash the busiest bookie (guaranteed in an active ensemble).
    auto bookies = cluster.bookies();
    size_t victim = 0;
    for (size_t i = 1; i < bookies.size(); ++i) {
        if (bookies[i]->storedBytes() > bookies[victim]->storedBytes()) victim = i;
    }
    const sim::TimePoint crashAt = cluster.executor().now();
    ASSERT_TRUE(cluster.crashBookie(victim).isOk());
    driveTraffic(cluster, *writer, crashAt + sim::msec(400), &sent, &acked);
    monitor.stop();
    cluster.runUntilIdle();
    EXPECT_EQ(acked, sent);  // detection is observability, not interference

    ASSERT_GE(monitor.detectorAlarmCount(), 1u);
    // No alarm before the crash (the warmup phase must stay clean), and the
    // first alarm lands within the scoring grace of the injection.
    const Alarm& first = monitor.alarms().front();
    EXPECT_GE(first.at, crashAt);
    EXPECT_LE(first.at, crashAt + sim::msec(200));

    FaultWindow window{"bookie-crash", static_cast<int>(victim), -1, crashAt,
                       crashAt + sim::msec(400)};
    detect::ScoreReport scores = detect::score({window}, monitor.alarms());
    EXPECT_DOUBLE_EQ(scores.recall, 1.0);
    EXPECT_DOUBLE_EQ(scores.precision, 1.0);
}

TEST(MonitorClusterTest, FaultFreeControlRunStaysSilent) {
    PravegaCluster cluster(detectClusterConfig());
    StreamConfig scfg;
    scfg.initialSegments = 2;
    ASSERT_TRUE(cluster.createStream("sc", "st", scfg).isOk());
    auto writer = cluster.makeWriter("sc/st");

    Monitor monitor(cluster.executor());
    monitor.addDefaultWritePathProbes();
    monitor.addGuardrail("p99(trace.write.2_wal_commit_ns) < 50ms for 100ms");
    monitor.start();

    int sent = 0, acked = 0;
    driveTraffic(cluster, *writer, sim::sec(1), &sent, &acked);
    monitor.stop();
    cluster.runUntilIdle();

    EXPECT_EQ(acked, sent);
    EXPECT_EQ(monitor.alarms().size(), 0u) << monitor.alarmsJson();
    EXPECT_TRUE(monitor.guardrailsPassed());
    detect::ScoreReport scores = detect::score({}, monitor.alarms());
    EXPECT_DOUBLE_EQ(scores.precision, 1.0);
}

TEST(MonitorClusterTest, SameSeedChaosProducesByteIdenticalAlarmLogs) {
    auto run = [](std::string* alarmsJson, std::string* truthJson) {
        PravegaCluster cluster(detectClusterConfig());
        StreamConfig scfg;
        scfg.initialSegments = 2;
        ASSERT_TRUE(cluster.createStream("sc", "st", scfg).isOk());
        auto writer = cluster.makeWriter("sc/st");

        ChaosSchedule::Config ccfg;
        ccfg.seed = 1234;
        ccfg.partitionFaults = false;  // bookie crashes only
        ccfg.degradeFaults = false;
        ccfg.start = sim::msec(500);
        ccfg.horizon = sim::msec(600);
        ccfg.faults = 2;
        ChaosSchedule schedule(cluster, ccfg);
        schedule.arm();

        Monitor monitor(cluster.executor());
        monitor.addDefaultWritePathProbes();
        monitor.start();
        int sent = 0, acked = 0;
        driveTraffic(cluster, *writer, schedule.endTime() + sim::msec(100), &sent,
                     &acked);
        monitor.stop();
        cluster.runUntilIdle();

        ASSERT_GE(monitor.detectorAlarmCount(), 1u);
        *alarmsJson = monitor.alarmsJson();
        *truthJson = schedule.groundTruthJson();
    };
    std::string alarmsA, truthA, alarmsB, truthB;
    run(&alarmsA, &truthA);
    if (::testing::Test::HasFatalFailure()) return;
    run(&alarmsB, &truthB);
    EXPECT_EQ(alarmsA, alarmsB);
    EXPECT_EQ(truthA, truthB);
}

}  // namespace
}  // namespace pravega
