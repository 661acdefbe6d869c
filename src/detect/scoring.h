// Detection scoring: align a Monitor's alarm log against the ground-truth
// fault timeline of a ChaosSchedule and compute, per fault class and
// overall, detection latency, precision, and recall.
//
//   - A fault window is DETECTED when at least one alarm fires inside
//     [start, end + grace]; detection latency is first such alarm − start.
//   - An alarm is MATCHED when it falls inside any fault window (+grace);
//     unmatched alarms are false positives.
//   - recall    = detected faults / faults       (per class and overall)
//   - precision = matched alarms / total alarms  (overall; 1.0 when the
//                 run produced no alarms at all)
//
// The grace period covers faults whose observable signature outlives the
// injected window (e.g. a healed partition whose queued timeouts are still
// draining) — without it, a perfectly correct late-clearing alarm would be
// scored as a false positive.
#pragma once

#include <string>
#include <vector>

#include "detect/detectors.h"
#include "sim/time.h"

namespace pravega::detect {

class Monitor;

/// One ground-truth fault interval. `a`/`b` are fault-kind-specific targets
/// (bookie index, partition side) and -1 when not applicable.
struct FaultWindow {
    std::string klass;  // "bookie-crash", "partition", "link-degrade", ...
    int a = -1;
    int b = -1;
    sim::TimePoint start = 0;
    sim::TimePoint end = 0;
};

/// Alarms up to this long after a fault window ends still match it.
constexpr sim::Duration kScoreGrace = sim::msec(200);

/// Per-fault-class roll-up.
struct ClassScore {
    std::string klass;
    int faults = 0;
    int detected = 0;
    double recall = 0;       // detected / faults
    double meanDetectMs = 0; // mean detection latency over detected faults
    double maxDetectMs = 0;
};

struct ScoreReport {
    std::vector<ClassScore> perClass;  // insertion order of first appearance
    int faults = 0;
    int detected = 0;
    int totalAlarms = 0;
    int matchedAlarms = 0;
    int falsePositives = 0;
    double recall = 0;     // overall: detected / faults (1.0 when faults == 0)
    double precision = 0;  // matched / total alarms (1.0 when no alarms)
    double meanDetectMs = 0;
    double maxDetectMs = 0;

    /// Recall for one class; 1.0 when the class has no faults (vacuous).
    double classRecall(const std::string& klass) const;

    /// Deterministic JSON object mirroring the fields above.
    std::string toJson() const;
};

/// Scores `alarms` (detector fires AND guardrail breaches) against the
/// ground-truth `faults`. Both inputs are virtual-time ordered as produced
/// by ChaosSchedule::faultWindows() and Monitor::alarms().
ScoreReport score(const std::vector<FaultWindow>& faults, const std::vector<Alarm>& alarms);

/// Assembles one run object for the bench "detection" section:
/// {"series":..,"ground_truth":..,"alarms":..,"guardrails":..,"scores":..,
///  "ticks":..}. `groundTruthJson` comes from ChaosSchedule::groundTruthJson()
/// (pass "null" for fault-free control runs).
std::string detectionRunJson(const std::string& series, const Monitor& monitor,
                             const std::string& groundTruthJson, const ScoreReport& scores);

}  // namespace pravega::detect
