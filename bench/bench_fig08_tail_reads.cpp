// Figure 8: tail-read (end-to-end) latency and throughput (§5.5).
//
// 100B events with one writer and one reader/consumer per segment.
// Paper shapes: (a) 1 segment — Pravega and Kafka deliver low e2e latency
// up to saturation; Pulsar never gets under ~12ms (p95) due to its
// dispatcher pipeline; (b) 16 segments — Pulsar's read throughput drops
// sharply; Kafka/Pravega latency grows at medium-high rates.
#include "bench/harness/detection.h"
#include "bench/harness/sweep.h"

using namespace pravega;
using namespace pravega::bench;

namespace {

const double kRates[] = {5e3, 10e3, 50e3, 100e3, 250e3, 500e3, 800e3};

WorkloadConfig workload(double rate) {
    WorkloadConfig cfg;
    cfg.eventsPerSec = rate;
    cfg.eventBytes = 100;
    cfg.useKeys = true;
    cfg.window = sim::sec(3);
    cfg.maxEvents = 1'200'000;
    return shrinkForSmoke(cfg);
}

/// One curve: consumer-side rows until consumed < 70% of offered events/s.
template <typename MakeWorld>
void sweep(Report& report, const char* series, MakeWorld makeWorld) {
    sweepRates(kRates, 0.70, workload, makeWorld, [&](auto& world, const RunStats& s) {
        return addTailReadRow(report, series, world, s, 100);
    });
}

}  // namespace

int main() {
    Report report("fig08_tail_reads", "Figure 8: tail-read end-to-end latency/throughput");

    report.note("pravega rows capture the full metrics registry, including the "
                "storage read pipeline (store.read.coalesced, store.prefetch.*): "
                "for pure tail reads these should stay ~0 — readers never fall "
                "behind the cache, so no LTS fetches or readahead fire");

    report.section("Figure 8a: tail reads, 1 segment/partition, 100B events",
                   "achieved/MB/s/latency columns describe the CONSUMER side");
    // One reader/consumer per segment/partition, as in §5.1.
    sweep(report, "pravega/1seg", [] { return makePravega({.segments = 1, .numReaders = 1}); });
    sweep(report, "kafka/1part", [] { return makeKafka({.partitions = 1, .numConsumers = 1}); });
    sweep(report, "pulsar/1part",
          [] { return makePulsar({.partitions = 1, .numConsumers = 1}); });

    report.section("Figure 8b: tail reads, 16 segments/partitions, 100B events");
    sweep(report, "pravega/16seg",
          [] { return makePravega({.segments = 16, .numReaders = 16}); });
    sweep(report, "kafka/16part",
          [] { return makeKafka({.partitions = 16, .numConsumers = 16}); });
    sweep(report, "pulsar/16part",
          [] { return makePulsar({.partitions = 16, .numConsumers = 16}); });

    if (chaosMode()) {
        report.section("Figure 8c: tail reads under partition chaos (BENCH_CHAOS=1)",
                       "store<->bookie partitions mid-window; the write-path "
                       "detectors flag the stalls feeding the tail readers");
        DetectionScenario sc;
        sc.series = "pravega/partition-chaos";
        sc.options = detectionClusterOptions(/*segments=*/4);
        sc.options.numReaders = 4;
        sc.workload = workload(smoke() ? 15e3 : 50e3);
        sc.workload.warmup = sim::msec(200);
        sc.workload.window = smoke() ? sim::msec(1600) : sim::msec(2200);
        sc.chaos = cluster::ChaosSchedule::Config{};
        sc.chaos->seed = 0xF08C;
        sc.chaos->bookieFaults = false;
        sc.chaos->degradeFaults = false;  // partitions only
        sc.chaos->start = sim::msec(700);
        sc.chaos->horizon = smoke() ? sim::msec(900) : sim::msec(1400);
        sc.chaos->faults = smoke() ? 2 : 4;
        runDetectionScenario(report, sc);
    }
    return 0;
}
