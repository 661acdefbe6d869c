// Figure 9: impact of routing keys on read performance (§5.5).
//
// 16 segments/partitions; each system runs the same workload with random
// routing keys and without keys. Paper shapes: Pulsar's read latency is
// several times higher with keys (key-ordered dispatch) while its
// throughput is unchanged; Kafka is faster without keys (sticky batching);
// Pravega is virtually insensitive to key dispersion.
#include "bench/harness/sweep.h"

using namespace pravega;
using namespace pravega::bench;

namespace {

const double kRates[] = {10e3, 50e3, 100e3, 250e3};

WorkloadConfig workload(double rate, bool keys) {
    WorkloadConfig cfg;
    cfg.eventsPerSec = rate;
    cfg.eventBytes = 100;
    cfg.useKeys = keys;
    cfg.window = sim::sec(3);
    return shrinkForSmoke(cfg);
}

/// The system's two curves, with random routing keys and without: every
/// rate's consumer-side row, no saturation stop.
template <typename MakeWorld>
void sweepKeys(Report& report, const std::string& system, MakeWorld makeWorld) {
    for (bool keys : {true, false}) {
        std::string series = system + (keys ? "-keys" : "-nokeys");
        sweepRates(
            kRates, 0, [keys](double rate) { return workload(rate, keys); }, makeWorld,
            [&](auto& world, const RunStats& s) {
                return addTailReadRow(report, series, world, s, 100);
            });
    }
}

}  // namespace

int main() {
    Report report("fig09_routing_keys", "Figure 9: routing keys vs read performance");
    report.section("Figure 9: routing keys vs no keys, 16 segments/partitions, 100B events",
                   "latency columns are CONSUMER end-to-end");
    sweepKeys(report, "pravega", [] { return makePravega({.segments = 16, .numReaders = 16}); });
    sweepKeys(report, "kafka", [] { return makeKafka({.partitions = 16, .numConsumers = 16}); });
    sweepKeys(report, "pulsar",
              [] { return makePulsar({.partitions = 16, .numConsumers = 16}); });
    return 0;
}
