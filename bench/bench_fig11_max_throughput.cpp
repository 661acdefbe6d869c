// Figure 11: maximum throughput achieved by the systems under test (§5.6).
// 10 producers, 1KB events, 10 and 500 segments/partitions. Following the
// OpenMessaging methodology, each system is probed with increasing target
// rates; the maximum SUSTAINED rate (achieved >= 90% of offered) is its max
// throughput. Paper shapes: Pravega ~720 MB/s at BOTH partition counts
// (multiplexing uses the drive efficiently regardless of parallelism);
// Kafka is high at 10 partitions but collapses at 500 (far worse with
// flush); Pulsar sits below the drive limit and degrades with partitions.
#include "bench/harness/sweep.h"

using namespace pravega;
using namespace pravega::bench;

namespace {

const double kProbesMBps[] = {10, 25, 50, 100, 200, 300, 450, 650, 800, 1000};

WorkloadConfig workload(double mbps) {
    WorkloadConfig cfg;
    cfg.eventBytes = 1024;
    cfg.eventsPerSec = mbps * 1024;
    cfg.useKeys = true;
    cfg.window = sim::sec(2);
    cfg.warmup = sim::msec(500);
    cfg.maxEvents = 2'500'000;
    return shrinkForSmoke(cfg);
}

/// Probes the rates in order until one achieves < 90% of its offered MB/s
/// (saturated) and returns the best achieved MB/s. `last`, when given,
/// receives the last probe's world.
template <typename Load, typename MakeWorld>
double probeMax(std::span<const double> probesMBps, Load load, MakeWorld makeWorld,
                decltype(makeWorld())* last = nullptr) {
    double best = 0;
    auto world = sweepRates(probesMBps, 0.90, load, makeWorld,
                            [&best](auto&, const RunStats& s) {
                                best = std::max(best, s.achievedMBps);
                                return s.achievedMBps;
                            });
    if (last) *last = std::move(world);
    return best;
}

// ----------------------------------------------------- cores sweep (shard)

/// World for the throughput-vs-cores axis: the sharded substrate runs the
/// segment stores on `cores` cores (containers placed containerId % cores)
/// and the store CPU is reconfigured to ONE request-handling lane per core
/// at a deliberately low per-lane byte rate, so request CPU — not the
/// journal drives — is the binding resource. Capacity then grows with the
/// number of lanes actually occupied by containers, i.e. with core count.
std::unique_ptr<PravegaWorld> makeCoresWorld(int cores) {
    PravegaOptions opt;
    opt.segments = 32;
    opt.numWriters = 8;
    opt.tweak = [cores](cluster::ClusterConfig& cfg) {
        cfg.machine.cores = cores;
        cfg.containerCount = 16;
        cfg.store.cpu.cores = cores;               // 1 lane per core after the
                                                   // per-core split
        cfg.store.cpu.bytesPerSec = 40.0 * 1024 * 1024;  // CPU-bound regime
        cfg.store.container.storage.flushTimeout = sim::sec(5);
        cfg.lts.aggregateBytesPerSec = 1.6e9;
        cfg.lts.maxConcurrent = 128;
    };
    return makePravega(opt);
}

/// Smoke runs one fixed probe far above any core count's capacity: achieved
/// throughput IS the capacity, so the 4-core >= 2x 1-core smoke gate
/// measures real scaling (the standard smoke rate cap of 25k e/s would
/// flatten every core count to the same number).
const double kCoresSmokeProbeMBps[] = {600};

WorkloadConfig coresWorkload(double mbps) {
    WorkloadConfig cfg;
    cfg.eventBytes = 1024;
    cfg.eventsPerSec = mbps * 1024;
    cfg.useKeys = true;
    cfg.warmup = smoke() ? sim::msec(100) : sim::msec(500);
    cfg.window = smoke() ? sim::msec(400) : sim::sec(2);
    cfg.maxEvents = smoke() ? 400'000 : 1'500'000;
    return cfg;
}

void sweepCores(Report& report) {
    report.section("cores",
                   "max sustained throughput vs segment-store core count "
                   "(shard-per-core substrate, CPU-bound: 1 lane/core @ 40 MB/s)");
    const std::span<const double> probes =
        smoke() ? std::span<const double>(kCoresSmokeProbeMBps) : kProbesMBps;
    for (int cores : smoke() ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8}) {
        std::unique_ptr<PravegaWorld> last;
        double best = probeMax(probes, coresWorkload, [cores] { return makeCoresWorld(cores); },
                               &last);
        report.addCustom(
            "pravega-cores",
            {{"cores", static_cast<double>(cores)},
             {"max_throughput_mbps", best},
             {"xcore_messages", static_cast<double>(last->exec().crossCoreMessages())}},
            smoke() ? &last->exec().mergedMetrics() : nullptr);
    }
}

}  // namespace

int main() {
    Report report("fig11_max_throughput",
                  "Figure 11: max sustained throughput, 10 producers, 1KB events");
    const std::vector<int> segmentCounts = smoke() ? std::vector<int>{10}
                                                   : std::vector<int>{10, 500};
    for (int segments : segmentCounts) {
        auto row = [&](const char* system, auto makeWorld) {
            report.addCustom(system, {{"segments", static_cast<double>(segments)},
                                      {"max_throughput_mbps",
                                       probeMax(kProbesMBps, workload, makeWorld)}});
        };
        row("pravega", [segments] {
            return makePravega({.segments = segments,
                                .numWriters = 10,
                                .tweak = [](cluster::ClusterConfig& cfg) {
                                    cfg.store.container.storage.flushTimeout = sim::sec(5);
                                    // The paper's EFS was provisioned well above
                                    // the journal drives; the drive (3 replicas
                                    // over 3 journals) is the intended bottleneck.
                                    cfg.lts.aggregateBytesPerSec = 1.6e9;
                                    cfg.lts.maxConcurrent = 128;
                                }});
        });
        row("kafka-noflush", [segments] {
            return makeKafka({.partitions = segments, .numProducers = 10});
        });
        row("kafka-flush", [segments] {
            return makeKafka(
                {.partitions = segments, .numProducers = 10, .flushEveryMessage = true});
        });
        row("pulsar", [segments] {
            return makePulsar({.partitions = segments, .numProducers = 10});
        });
    }
    sweepCores(report);
    return 0;
}
