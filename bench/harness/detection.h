// Chaos+detection scenario runner shared by the figure benches: builds a
// fresh Pravega world, attaches a detect::Monitor with the default
// write-path probe battery (plus optional guardrails), optionally arms a
// ChaosSchedule, drives the open-loop workload, and scores the alarm log
// against the chaos ground truth. One call produces one addCustom row and
// one "detection" run object in the report's BENCH_*.json.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "bench/harness/adapters.h"
#include "bench/harness/report.h"
#include "cluster/chaos.h"
#include "detect/monitor.h"
#include "detect/scoring.h"

namespace pravega::bench {

struct DetectionScenario {
    std::string series;
    PravegaOptions options;  // world shape (tweak already applied by caller)
    WorkloadConfig workload;
    /// Fault timeline; nullopt = fault-free control run (scored against an
    /// empty ground truth, so every alarm is a false positive).
    std::optional<cluster::ChaosSchedule::Config> chaos;
    detect::Monitor::Config monitor;
    std::vector<std::string> guardrails;  // SLO rules (soft alerts)
};

struct DetectionResult {
    RunStats stats;
    detect::ScoreReport scores;
    uint64_t ticks = 0;
    bool guardrailsPassed = true;
};

/// The standard fig14 cluster shape: 5 bookies (ensemble changes always
/// find a donor), 100ms write timeout (partitions are silent; the timeout
/// is the failure signal), fault-injectable LTS.
PravegaOptions detectionClusterOptions(int segments = 8);

DetectionResult runDetectionScenario(Report& report, const DetectionScenario& sc);

}  // namespace pravega::bench
