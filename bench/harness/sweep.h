// The one rate sweep every figure bench runs: the OpenMessaging Benchmark's
// rising-rate loop (§5.1) over the harness adapters. Each offered rate gets a
// fresh world, so points are independent and memory stays bounded; it works
// on PravegaWorld, KafkaWorld and PulsarWorld alike through the members they
// share (exec(), producers, e2e, consumed).
#pragma once

#include <span>
#include <string>

#include "bench/harness/adapters.h"
#include "bench/harness/report.h"

namespace pravega::bench {

/// Runs `load(rate)` on a fresh `makeWorld()` for each rate in order (only
/// the first one under smoke()). `point(world, stats)` records the point and
/// returns its achieved rate in the units of `rates`; the sweep stops after
/// the first point achieving less than `stopFraction` × its offered rate
/// (saturated; 0 never stops). Returns the last point's world.
template <typename Load, typename MakeWorld, typename Point>
auto sweepRates(std::span<const double> rates, double stopFraction, Load load,
                MakeWorld makeWorld, Point point) {
    decltype(makeWorld()) world;
    for (size_t i = 0; i < (smoke() ? 1 : rates.size()); ++i) {
        world.reset();  // one world alive at a time
        world = makeWorld();
        RunStats stats = runOpenLoop(world->exec(), world->producers, load(rates[i]));
        if (point(*world, stats) < stopFraction * rates[i]) break;
    }
    return world;
}

/// The tail-read sweep point: drains deliveries for 200 ms, then records the
/// consumer-side row (Report::addE2e). Returns the consumed events/s.
template <typename World>
double addTailReadRow(Report& report, const std::string& series, World& world,
                      const RunStats& stats, uint32_t eventBytes) {
    world.exec().runFor(sim::msec(200));
    report.addE2e(series, stats, world.consumed.eventsPerSec(), eventBytes, world.e2e,
                  &world.exec().mergedMetrics());
    return world.consumed.eventsPerSec();
}

}  // namespace pravega::bench
