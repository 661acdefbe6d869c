#include "bench/harness/detection.h"

namespace pravega::bench {

PravegaOptions detectionClusterOptions(int segments) {
    PravegaOptions opt;
    opt.segments = segments;
    opt.tweak = [](cluster::ClusterConfig& cfg) {
        cfg.bookies = 5;
        cfg.store.container.log.repl.ensembleSize = 3;
        cfg.store.container.log.repl.writeTimeout = sim::msec(100);
        cfg.faultInjectLts = true;
        // Flush the tiering loop aggressively so short LTS fault windows
        // (tens of ms) see several flush attempts — with the stock 500ms
        // flush timeout an outage can open and close between flushes.
        cfg.store.container.storage.flushTimeout = sim::msec(50);
        cfg.store.container.storage.scanInterval = sim::msec(10);
    };
    return opt;
}

DetectionResult runDetectionScenario(Report& report, const DetectionScenario& sc) {
    auto world = makePravega(sc.options);
    sim::Machine& exec = world->exec();

    detect::Monitor monitor(exec, sc.monitor);
    monitor.addDefaultWritePathProbes();
    for (const std::string& rule : sc.guardrails) monitor.addGuardrail(rule);

    std::optional<cluster::ChaosSchedule> schedule;
    if (sc.chaos) {
        schedule.emplace(*world->cluster, *sc.chaos);
        schedule->arm();
    }

    // Stop sampling when generation ends, BEFORE the drain: the traffic
    // ramp-down after windowEnd would otherwise read as a rate collapse.
    const sim::TimePoint windowEnd = exec.now() + sc.workload.warmup + sc.workload.window;
    monitor.start();
    exec.schedule(windowEnd - exec.now(), [&monitor]() { monitor.stop(); });

    std::vector<Producer>& producers = world->producers;
    DetectionResult out;
    out.stats = runOpenLoop(exec, producers, sc.workload);

    std::vector<detect::FaultWindow> truth;
    std::string truthJson = "null";
    if (schedule) {
        truth = schedule->faultWindows();
        truthJson = schedule->groundTruthJson();
    }
    out.scores = detect::score(truth, monitor.alarms());
    out.ticks = monitor.ticks();
    out.guardrailsPassed = monitor.guardrailsPassed();

    report.addCustom(sc.series,
                     {{"faults", static_cast<double>(out.scores.faults)},
                      {"detected", static_cast<double>(out.scores.detected)},
                      {"recall", out.scores.recall},
                      {"precision", out.scores.precision},
                      {"alarms", static_cast<double>(out.scores.totalAlarms)},
                      {"false_positives", static_cast<double>(out.scores.falsePositives)},
                      {"mean_detect_ms", out.scores.meanDetectMs},
                      {"max_detect_ms", out.scores.maxDetectMs},
                      {"achieved_events_per_sec", out.stats.achievedEventsPerSec},
                      {"p99_ms", out.stats.p99Ms}},
                     &exec.metrics());
    report.addDetectionRun(
        detect::detectionRunJson(sc.series, monitor, truthJson, out.scores));
    return out;
}

}  // namespace pravega::bench
