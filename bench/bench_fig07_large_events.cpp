// Figure 7: write performance for larger (10KB) events (§5.4).
//
// Byte throughput is the key metric. Paper shapes: (a) 1 segment —
// Pravega is capped at ~160 MB/s by LTS (EFS) because tiering is an
// integral, throttled part of its write path; with the NoOp-LTS test
// feature it goes much higher; Pulsar reaches ~300 MB/s (its offloader is
// not in the write path) and Kafka ~70 MB/s (single-partition pipeline).
// (b) 16 segments — Pravega highest (~350 MB/s paper), Kafka close,
// Pulsar lower.
#include "bench/harness/sweep.h"

using namespace pravega;
using namespace pravega::bench;

namespace {

const double kRatesMBps[] = {20, 50, 100, 150, 200, 280, 360, 440};

WorkloadConfig workload(double mbps) {
    WorkloadConfig cfg;
    cfg.eventBytes = 10 * 1024;
    cfg.eventsPerSec = mbps * 1024 * 1024 / cfg.eventBytes;
    cfg.useKeys = true;
    cfg.window = sim::sec(3);
    cfg.maxEvents = 200'000;
    return shrinkForSmoke(cfg);
}

/// One curve: producer-side rows until achieved < 85% of offered MB/s.
template <typename MakeWorld>
void sweep(Report& report, const char* series, MakeWorld makeWorld) {
    sweepRates(kRatesMBps, 0.85, workload, makeWorld, [&](auto& world, const RunStats& s) {
        report.add(series, s, &world.exec().mergedMetrics());
        return s.achievedMBps;
    });
}

}  // namespace

int main() {
    Report report("fig07_large_events", "Figure 7: 10KB events, byte throughput");

    report.section("Figure 7a: 10KB events, 1 segment/partition");
    sweep(report, "pravega-efs/1seg", [] { return makePravega({.segments = 1}); });
    sweep(report, "pravega-noop-lts/1seg", [] {
        return makePravega({.segments = 1, .ltsKind = cluster::LtsKind::NoOp});
    });
    sweep(report, "pulsar/1part", [] { return makePulsar({.partitions = 1}); });
    sweep(report, "kafka/1part", [] { return makeKafka({.partitions = 1}); });

    report.section("Figure 7b: 10KB events, 16 segments/partitions");
    sweep(report, "pravega-efs/16seg", [] { return makePravega({.segments = 16}); });
    sweep(report, "pulsar/16part", [] { return makePulsar({.partitions = 16}); });
    sweep(report, "kafka/16part", [] { return makeKafka({.partitions = 16}); });
    return 0;
}
