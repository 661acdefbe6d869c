// ChaosSchedule: a seeded, replayable fault-injection timeline.
//
// FoundationDB-style deterministic simulation testing: from a single seed
// the schedule generates a timeline of faults — bookie crash/restart,
// segment-store crash, network partition/heal, link degradation, LTS
// outage/slowdown — and executes it against a PravegaCluster on the
// cluster's virtual clock. Every injected event is logged; the same seed
// against the same cluster configuration and workload reproduces the
// identical event timeline and final state, so any invariant violation
// found under a random seed is replayable bit-for-bit.
//
// Fault windows are slotted: the horizon is divided into `faults` slots and
// each fault opens and closes inside its own slot. This guarantees at most
// one bookie is down at any instant, which preserves the ack-quorum
// durability bound (every acknowledged entry lives on >= ackQuorum bookies,
// of which at most one can be missing) — the schedule explores availability
// and ordering faults without ever *licensing* data loss.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/pravega_cluster.h"
#include "detect/scoring.h"
#include "sim/random.h"
#include "sim/time.h"

namespace pravega::cluster {

struct ChaosEvent {
    enum class Kind {
        BookieCrash,    // a: bookie index
        BookieRestart,  // a: bookie index
        StoreCrash,     // a: store index
        Partition,      // a, b: host ids (store <-> bookie)
        Heal,           // a, b: host ids
        LinkDegrade,    // a, b: host ids; duration; magnitude = bw factor
        LtsOutage,      // duration
        LtsSlowdown,    // duration; magnitude = extra latency (ns)
        LtsRestore,     // ends a slowdown
    };

    sim::TimePoint at = 0;
    Kind kind;
    int a = -1;
    int b = -1;
    sim::Duration duration = 0;
    double magnitude = 0;
};

const char* chaosKindName(ChaosEvent::Kind kind);

class ChaosSchedule {
public:
    struct Config {
        uint64_t seed = 1;
        /// First fault fires no earlier than this (lets traffic ramp up).
        sim::TimePoint start = sim::msec(20);
        /// Faults are drawn inside [start, start + horizon).
        sim::Duration horizon = sim::sec(2);
        /// Number of fault injections (each gets its own slot; paired
        /// closing events — restart/heal — ride in the same slot).
        int faults = 6;

        // Which fault classes the generator may draw; e.g. a partition-only
        // schedule is `bookieFaults=false, degradeFaults=false`.
        bool bookieFaults = true;
        bool partitionFaults = true;
        bool degradeFaults = true;
        bool storeFaults = false;  // store crashes are permanent; opt-in
        // LTS faults require ClusterConfig::faultInjectLts.
        bool ltsOutageFaults = false;
        bool ltsSlowdownFaults = false;

        /// Cap on how many stores may crash over the whole schedule (the
        /// generator additionally never crashes the last live store).
        int maxStoreCrashes = 1;
    };

    ChaosSchedule(PravegaCluster& cluster, Config cfg);

    /// The generated timeline, ordered by virtual time. Pure function of
    /// (seed, config, cluster shape); inspectable before arming.
    const std::vector<ChaosEvent>& timeline() const { return timeline_; }

    /// Schedules every timeline event on the cluster executor. Call once,
    /// before driving the simulation.
    void arm();

    /// Human-readable log of executed events in execution order; the
    /// determinism contract is that equal seeds yield equal logs.
    const std::vector<std::string>& executedLog() const { return executed_; }

    bool finished() const { return executed_.size() == timeline_.size(); }

    /// Virtual time by which every fault window has closed.
    sim::TimePoint endTime() const;

    /// Ground-truth fault intervals for detection scoring: opener events
    /// paired with their closers (crash→restart, partition→heal,
    /// slowdown→restore; degrades and outages carry their own duration; a
    /// store crash is permanent and ends at endTime()). Ordered by start
    /// time; pure function of the generated timeline.
    std::vector<detect::FaultWindow> faultWindows() const;

    /// Deterministic JSON of the ground truth for BENCH_*.json:
    /// {"seed":..,"start_ms":..,"horizon_ms":..,"windows":[
    ///   {"class":..,"a":..,"b":..,"start_ms":..,"end_ms":..}, ...]}.
    std::string groundTruthJson() const;

private:
    void generate();
    void execute(const ChaosEvent& ev);

    PravegaCluster& cluster_;
    Config cfg_;
    std::vector<ChaosEvent> timeline_;
    std::vector<std::string> executed_;
    int plannedStoreCrashes_ = 0;
    bool armed_ = false;
};

}  // namespace pravega::cluster
