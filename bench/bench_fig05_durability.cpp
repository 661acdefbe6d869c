// Figure 5: impact of data durability on write performance (§5.2).
//
// Latency vs throughput for 100B events, one writer/producer, comparing
// Pravega (flush = default, and the no-flush ablation) against the
// Kafka-like baseline (no flush = default, and flush.messages=1).
// Paper shapes to reproduce: (a) 1 segment/partition — Pravega(flush)
// reaches a max throughput well above Kafka(no flush) while Kafka(flush)
// pays a large latency penalty at moderate rates; (b) 16 segments —
// Pravega and Kafka(no flush) both reach ~1M events/s.
#include "bench/harness/adapters.h"
#include "bench/harness/detection.h"
#include "bench/harness/report.h"

using namespace pravega;
using namespace pravega::bench;

namespace {

const double kRates[] = {10e3, 50e3, 100e3, 250e3, 500e3, 800e3, 1.2e6, 1.6e6};

size_t rateCount() { return smoke() ? 1 : std::size(kRates); }

WorkloadConfig workload(double rate) {
    WorkloadConfig cfg;
    cfg.eventsPerSec = rate;
    cfg.eventBytes = 100;
    cfg.useKeys = true;
    cfg.warmup = sim::msec(500);
    cfg.window = sim::sec(3);
    cfg.maxEvents = 1'500'000;
    return shrinkForSmoke(cfg);
}

void sweepPravega(Report& report, const char* name, int segments, bool journalSync) {
    for (size_t i = 0; i < rateCount(); ++i) {
        double rate = kRates[i];
        PravegaOptions opt;
        opt.segments = segments;
        opt.numWriters = 1;
        opt.journalSync = journalSync;
        auto world = makePravega(opt);
        auto stats = runOpenLoop(world->exec(), world->producers, workload(rate));
        report.add(name, stats, &world->exec().mergedMetrics());
        if (stats.achievedEventsPerSec < 0.85 * rate) break;  // saturated
    }
}

void sweepKafka(Report& report, const char* name, int partitions, bool flush) {
    for (size_t i = 0; i < rateCount(); ++i) {
        double rate = kRates[i];
        KafkaOptions opt;
        opt.partitions = partitions;
        opt.numProducers = 1;
        opt.flushEveryMessage = flush;
        auto world = makeKafka(opt);
        auto stats = runOpenLoop(world->exec(), world->producers, workload(rate));
        report.add(name, stats, &world->exec().mergedMetrics());
        if (stats.achievedEventsPerSec < 0.85 * rate) break;
    }
}

}  // namespace

int main() {
    Report report("fig05_durability", "Figure 5: durability vs write performance");

    report.section("Figure 5a: durability, 1 segment/partition, 1 writer, 100B events");
    sweepPravega(report, "pravega-flush/1seg", 1, true);
    sweepPravega(report, "pravega-noflush/1seg", 1, false);
    sweepKafka(report, "kafka-noflush/1part", 1, false);
    sweepKafka(report, "kafka-flush/1part", 1, true);

    report.section("Figure 5b: durability, 16 segments/partitions, 1 writer, 100B events");
    sweepPravega(report, "pravega-flush/16seg", 16, true);
    sweepKafka(report, "kafka-noflush/16part", 16, false);
    sweepKafka(report, "kafka-flush/16part", 16, true);

    if (chaosMode()) {
        report.section("Figure 5c: write path under bookie chaos (BENCH_CHAOS=1)",
                       "durable writes with bookie crash/restart faults mid-window, "
                       "detection scored against the chaos timeline");
        DetectionScenario sc;
        sc.series = "pravega-flush/bookie-chaos";
        sc.options = detectionClusterOptions(/*segments=*/8);
        sc.workload = workload(smoke() ? 20e3 : 50e3);
        sc.workload.warmup = sim::msec(200);
        sc.workload.window = smoke() ? sim::msec(1600) : sim::msec(2200);
        sc.chaos = cluster::ChaosSchedule::Config{};
        sc.chaos->seed = 0xF05C;
        sc.chaos->partitionFaults = false;  // bookie crash/restart only
        sc.chaos->degradeFaults = false;
        sc.chaos->start = sim::msec(700);
        sc.chaos->horizon = smoke() ? sim::msec(900) : sim::msec(1400);
        sc.chaos->faults = smoke() ? 2 : 4;
        runDetectionScenario(report, sc);
    }
    return 0;
}
