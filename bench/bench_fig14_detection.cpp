// Figure 14: online failure detection over the observability layer.
//
// For each fault class a fresh cluster runs an open-loop write workload
// while a seeded ChaosSchedule injects ONLY that class; a detect::Monitor
// samples the obs:: registry on a virtual-time cadence and its alarms are
// scored against the schedule's ground-truth fault timeline. Reported per
// run: detection recall/precision, false positives, and detection latency
// (first matched alarm minus fault onset). A fault-free control run checks
// the detectors stay silent on healthy traffic.
//
// Three detector profiles sweep the sampling cadence: `default` (10ms
// period, 40-sample warmup — what the acceptance thresholds are stated
// against), `sensitive` (5ms, 30 samples — faster onset, more risk of
// noise), `conservative` (20ms, 50 samples — slower, stingier).
#include "bench/harness/detection.h"

using namespace pravega;
using namespace pravega::bench;

namespace {

struct Profile {
    const char* name;
    detect::Monitor::Config monitor;
};

struct FaultClass {
    const char* name;
    bool chaos;  // false = control
    cluster::ChaosSchedule::Config flags;  // class-selection flags only
};

cluster::ChaosSchedule::Config onlyClass(bool bookie, bool partition, bool degrade,
                                         bool outage, bool slowdown) {
    cluster::ChaosSchedule::Config c;
    c.bookieFaults = bookie;
    c.partitionFaults = partition;
    c.degradeFaults = degrade;
    c.ltsOutageFaults = outage;
    c.ltsSlowdownFaults = slowdown;
    return c;
}

const FaultClass kClasses[] = {
    {"control", false, {}},
    {"bookie-crash", true, onlyClass(true, false, false, false, false)},
    {"partition", true, onlyClass(false, true, false, false, false)},
    {"link-degrade", true, onlyClass(false, false, true, false, false)},
    {"lts-outage", true, onlyClass(false, false, false, true, false)},
    {"lts-slowdown", true, onlyClass(false, false, false, false, true)},
};

void sweepProfile(Report& report, const Profile& profile) {
    const size_t classCount = smoke() ? 3 : std::size(kClasses);
    report.section(std::string("Figure 14 (") + profile.name +
                       " profile): detection vs fault class",
                   "recall/precision scored against the seeded chaos timeline");

    for (size_t ci = 0; ci < classCount; ++ci) {
        const FaultClass& fc = kClasses[ci];

        DetectionScenario sc;
        sc.series = std::string(fc.name) + "/" + profile.name;
        sc.options = detectionClusterOptions(/*segments=*/8);
        sc.monitor = profile.monitor;
        // WAL commit p99 under 50ms for 100ms: holds on healthy traffic,
        // breaches (soft alert) under partitions and crash timeouts.
        sc.guardrails = {"p99(trace.write.2_wal_commit_ns) < 50ms for 100ms"};

        // Chaos starts only after the slowest probe has finished its
        // baseline warmup (first HistP99 sample lands on tick 2).
        const sim::Duration warmupTime =
            (profile.monitor.warmupSamples + 2) * profile.monitor.period;
        const sim::TimePoint chaosStart = warmupTime + sim::msec(200);
        const sim::Duration horizon = smoke() ? sim::msec(600) : sim::msec(1200);

        sc.workload.eventsPerSec = smoke() ? 20'000 : 50'000;
        sc.workload.eventBytes = 100;
        sc.workload.warmup = sim::msec(200);
        sc.workload.window = chaosStart + horizon + sim::msec(300) - sc.workload.warmup;
        sc.workload.seed = 42;

        if (fc.chaos) {
            sc.chaos = fc.flags;
            sc.chaos->seed = 0xF14D + ci;
            sc.chaos->start = chaosStart;
            sc.chaos->horizon = horizon;
            sc.chaos->faults = smoke() ? 2 : 4;
        }
        runDetectionScenario(report, sc);
    }
}

}  // namespace

int main() {
    Report report("fig14_detection",
                  "Figure 14: online failure detection — latency, precision, recall");
    report.note("each row is one fresh cluster: open-loop writes + a single-class "
                "chaos schedule, scored against its ground-truth fault windows");
    report.note("acceptance (default profile): recall >= 0.9 on bookie-crash and "
                "partition; zero alarms on the control run");

    Profile profiles[] = {
        {"default", {sim::msec(10), 40}},
        {"sensitive", {sim::msec(5), 30}},
        {"conservative", {sim::msec(20), 50}},
    };
    const size_t profileCount = smoke() ? 1 : std::size(profiles);
    for (size_t i = 0; i < profileCount; ++i) sweepProfile(report, profiles[i]);
    return 0;
}
