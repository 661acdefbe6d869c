// Figure 6: evaluation of client batching strategies (§5.3).
//
// (a) 1 segment/partition: Pravega's dynamic batching vs the Pulsar-like
//     baseline with batching enabled (128KB/1ms) and disabled. Paper shape:
//     Pulsar(no batch) has low latency but a low maximum throughput;
//     Pulsar(batch) reaches high throughput at higher latency; Pravega gets
//     both ends without configuration.
// (b) 16 segments/partitions: Pravega vs Kafka with the default client
//     batching (1ms/128KB) and with a throughput-oriented configuration
//     (10ms linger, 1MB batches). The paper finds the bigger batches do NOT
//     help under random routing keys.
#include "bench/harness/sweep.h"

using namespace pravega;
using namespace pravega::bench;

namespace {

const double kRates[] = {5e3, 10e3, 50e3, 100e3, 250e3, 500e3, 800e3, 1.2e6};

WorkloadConfig workload(double rate) {
    WorkloadConfig cfg;
    cfg.eventsPerSec = rate;
    cfg.eventBytes = 100;
    cfg.useKeys = true;
    cfg.window = sim::sec(3);
    cfg.maxEvents = 1'500'000;
    return shrinkForSmoke(cfg);
}

/// One curve: producer-side rows until achieved < 85% of offered events/s.
template <typename MakeWorld>
void sweep(Report& report, const char* series, MakeWorld makeWorld) {
    sweepRates(kRates, 0.85, workload, makeWorld, [&](auto& world, const RunStats& s) {
        report.add(series, s, &world.exec().mergedMetrics());
        return s.achievedEventsPerSec;
    });
}

}  // namespace

int main() {
    Report report("fig06_batching", "Figure 6: client batching strategies");

    report.section("Figure 6a: batching strategies, 1 segment/partition, 100B events");
    sweep(report, "pravega-dynamic/1seg", [] { return makePravega({.segments = 1}); });
    sweep(report, "pulsar-batch/1part", [] { return makePulsar({.partitions = 1}); });
    sweep(report, "pulsar-nobatch/1part",
          [] { return makePulsar({.partitions = 1, .batchingEnabled = false}); });

    report.section("Figure 6b: batching strategies, 16 segments/partitions, 100B events");
    sweep(report, "pravega-dynamic/16seg", [] { return makePravega({.segments = 16}); });
    sweep(report, "kafka-1ms-128KB/16part", [] {
        return makeKafka(
            {.partitions = 16, .batchBytes = 128 * 1024, .lingerTime = sim::msec(1)});
    });
    sweep(report, "kafka-10ms-1MB/16part", [] {
        return makeKafka(
            {.partitions = 16, .batchBytes = 1024 * 1024, .lingerTime = sim::msec(10)});
    });
    return 0;
}
