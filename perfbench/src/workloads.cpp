// The three benchmark workloads. Each builds fresh worlds from its seed,
// times set-up and the measured phase on the host clock, checks its outputs,
// and reports deterministic modelled metrics from virtual time.
//
// Why these three: ingest-tail loads the per-event write path (client
// batching, container frames, WAL quorum, bookie journal, cache, tail reads)
// and leaves LTS and the controller idle; catchup-read loads the read side of
// the tier (codec decode + CRC, object store, read pipeline, ReadIndex inserts
// from storage) with ~10x fewer client events per byte; fleet-skew loads the
// controller (rebalancer, quotas, auto-scaler) and the fleet workload model
// across many segments and container moves, bypassing the per-event client
// path except for a small probe stream.
#include <algorithm>
#include <limits>
#include <optional>
#include <string>

#include "bench.h"
#include "controller/auto_scaler.h"
#include "workload/fleet.h"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr size_t kPoolBytes = 8 * 1024 * 1024;

/// Host-timed section accumulating into `acc` (seconds); also a span.
class HostTimer {
public:
    HostTimer(Tracer* t, const char* name, double& acc)
        : span_(t, name), acc_(acc), t0_(hostNowNs()) {}
    ~HostTimer() { acc_ += static_cast<double>(hostNowNs() - t0_) / 1e9; }
    HostTimer(const HostTimer&) = delete;
    HostTimer& operator=(const HostTimer&) = delete;

private:
    SpanScope span_;
    double& acc_;
    int64_t t0_;
};

std::unique_ptr<cluster::PravegaCluster> buildCluster(const cluster::ClusterConfig& cfg, Ctx& ctx,
                                                      RepResult& r) {
    HostTimer t(ctx.tracer, "cluster.build", r.layer["cluster.build_host_s"]);
    return std::make_unique<cluster::PravegaCluster>(cfg);
}

bool createStream(cluster::PravegaCluster& c, const std::string& scope, const std::string& name,
                  controller::StreamConfig sc, Ctx& ctx, RepResult& r) {
    HostTimer t(ctx.tracer, "cluster.createStream", r.layer["cluster.stream_create_host_s"]);
    Status s = c.createStream(scope, name, sc);
    if (!s.isOk()) r.errors.push_back("createStream " + scope + "/" + name + ": " + s.toString());
    return s.isOk();
}

void fail(RepResult& r, const std::string& what) { r.errors.push_back(what); }

/// Checks that writers and readers agree: every sent event acked (when
/// `countWrites`), and every acked event delivered exactly once, intact and
/// in per-key order. Counts mismatches as failed.
void checkDelivery(RepResult& r, const std::string& what, OpenLoopWriters& w,
                   VerifyingReaders& rd, bool countWrites = true) {
    uint64_t unacked = w.sent() - std::min(w.sent(), w.acked() + w.errors());
    uint64_t missing = w.acked() > rd.delivered() ? w.acked() - rd.delivered() : 0;
    r.failed += missing + rd.violations();
    if (countWrites) r.failed += w.errors() + unacked;
    if (countWrites && (w.errors() || unacked)) {
        fail(r, what + ": " + std::to_string(w.errors()) + " write errors, " +
                    std::to_string(unacked) + " unacked of " + std::to_string(w.sent()));
    }
    if (rd.delivered() != w.acked() || rd.violations()) {
        fail(r, what + ": delivered " + std::to_string(rd.delivered()) + " of " +
                    std::to_string(w.acked()) + " acked; " + rd.violationSummary());
    }
    if (rd.digestSum() != w.digestSum()) {
        fail(r, what + ": reader checksum differs from writer checksum");
    }
}

/// Reads the whole stream again from its head with a fresh group of 4
/// readers and returns MB per virtual second from the readers' creation until
/// they have delivered every byte written (they start fetching once they own
/// a segment).
double catchUp(cluster::PravegaCluster& c, Ctx& ctx, RepResult& r, OpenLoopWriters& w) {
    sim::Machine& m = c.machine();
    VerifyingReaders replay(c, ctx, "replay", 4, kWriters, 1024 * 1024);
    replay.watchBytes(w.sentBytes());
    sim::TimePoint start = m.now();
    replay.start(start);
    bool done = ctx.runUntilPred(
        m, [&] { return replay.delivered() >= w.acked(); }, sim::msec(5), sim::sec(20));
    if (!done) fail(r, "replay did not finish");
    checkDelivery(r, "replay", w, replay, /*countWrites=*/false);
    sim::TimePoint at = replay.reachedAt();
    if (at <= start) return 0;
    return static_cast<double>(w.sentBytes()) / kMiB / sim::toSeconds(at - start);
}

void recordLatencies(RepResult& r, Samples& ack, Samples& deliver) {
    r.modelled["ack_p50_ms"] = ack.percentileMs(50);
    r.modelled["ack_p999_ms"] = ack.percentileMs(99.9);
    r.modelled["deliver_p50_ms"] = deliver.percentileMs(50);
    r.modelled["deliver_p999_ms"] = deliver.percentileMs(99.9);
    r.fingerprint["ack_samples"] = static_cast<double>(ack.count());
    r.fingerprint["deliver_samples"] = static_cast<double>(deliver.count());
}

}  // namespace

// ---------------------------------------------------------------- ingest-tail

RepResult runIngestTail(uint64_t seed, Ctx& ctx) {
    constexpr int kSegments = 16;
    constexpr uint32_t kEventBytes = 1024;
    constexpr double kNominalRate = 200'000;   // ~27% of modelled write capacity
    constexpr double kOverloadRate = 1'000'000;  // ~1.35x capacity
    // Windows long enough that the stalls of sustained ingest land inside
    // them. The 16 segments spread 3:1 over the 8 containers, so the coldest
    // container takes ~1/16 of the load: in the nominal window it still
    // writes two metadata checkpoints (and truncates its WAL twice), and in
    // the overload window (~60 MB/s for the coldest container) it also rolls
    // over its 64 MB WAL ledger. store.checkpoints and wal.truncations count them.
    const sim::Duration warmup = sim::msec(100);
    const sim::Duration window = sim::msec(2500);
    const sim::Duration overloadWarmup = sim::msec(300);
    const sim::Duration overloadWindow = sim::msec(1200);

    RepResult r;
    int64_t setupNs = 0, wallNs = 0;
    auto cfgFor = [] {
        cluster::ClusterConfig cfg;
        cfg.store.container.storage.flushTimeout = sim::sec(5);
        // LTS provisioned above the journal drives: the drives bound ingest.
        cfg.lts.aggregateBytesPerSec = 1.6e9;
        cfg.lts.maxConcurrent = 128;
        return cfg;
    };
    controller::StreamConfig sc;
    sc.initialSegments = kSegments;
    OpenLoopWriters::Config wc;
    wc.eventBytes = kEventBytes;
    wc.seed = seed;

    // Nominal rung: latency, tail delivery, catch-up from cache.
    {
        int64_t t0 = hostNowNs();
        std::optional<SpanScope> setupSpan(std::in_place, ctx.tracer, "setup.nominal");
        PayloadPool pool(seed, kPoolBytes);
        auto c = buildCluster(cfgFor(), ctx, r);
        sim::Machine& m = c->machine();
        if (!createStream(*c, kScope, kStreamName, sc, ctx, r)) return r;
        OpenLoopWriters writers(*c, ctx, pool, wc);
        VerifyingReaders tail(*c, ctx, "tail", 4, kWriters, 256 * 1024);
        ctx.runFor(m, sim::sec(3));  // readers acquire and settle their segments
        setupNs += hostNowNs() - t0;

        int64_t t1 = hostNowNs();
        setupSpan.reset();
        SpanScope measureSpan(ctx.tracer, "measure.nominal");
        ctx.startMeasuring(*c);
        sim::TimePoint start = m.now();
        StoreLoad load(*c);
        writers.generate(kNominalRate, start + warmup + window, start + warmup);
        tail.start(start + warmup);
        while (writers.generating()) ctx.runFor(m, sim::msec(50));
        r.modelled["load_ratio"] = StoreLoad::maxMinRatio(load.bytesSince(*c));
        writers.flush();
        if (!ctx.runUntilPred(
                m,
                [&] {
                    return writers.acked() + writers.errors() == writers.sent() &&
                           tail.delivered() >= writers.acked();
                },
                sim::msec(5), sim::sec(5))) {
            fail(r, "nominal rung did not drain");
        }
        checkDelivery(r, "ingest-tail nominal", writers, tail);
        r.attempted += writers.sent();
        recordLatencies(r, writers.ackLatency(), tail.deliverLatency());
        r.modelled["catchup_mbps"] = catchUp(*c, ctx, r, writers);
        r.attempted += writers.sent();  // the replay reads every event again
        ctx.measuring = false;
        wallNs += hostNowNs() - t1;
        r.fingerprint["nominal_digest"] = static_cast<double>(writers.digestSum());
        collectLayers(*c, ctx, r);
    }

    // Overload rung: a fresh world offered more than it can take.
    {
        int64_t t0 = hostNowNs();
        std::optional<SpanScope> setupSpan(std::in_place, ctx.tracer, "setup.overload");
        PayloadPool pool(seed + 1, kPoolBytes);
        // Its build and stream creation are timed into setup_s only; the
        // per-layer figures describe the nominal world.
        // Nothing reads this world back, so LTS discards what it is given and
        // each store's cache holds 256 MB: an in-memory LTS and the default
        // 4 GB caches would keep every byte written (~2 GB more RSS) and move
        // peak_mbps by under 0.1%.
        auto ocfg = cfgFor();
        ocfg.ltsKind = cluster::LtsKind::NoOp;
        ocfg.store.cache.maxBuffers = 128;
        auto c = std::make_unique<cluster::PravegaCluster>(ocfg);
        sim::Machine& m = c->machine();
        if (Status s = c->createStream(kScope, kStreamName, sc); !s.isOk()) {
            fail(r, "overload createStream: " + s.toString());
            return r;
        }
        OpenLoopWriters writers(*c, ctx, pool, wc);
        setupNs += hostNowNs() - t0;

        int64_t t1 = hostNowNs();
        setupSpan.reset();
        SpanScope measureSpan(ctx.tracer, "measure.overload");
        ctx.measuring = true;
        sim::TimePoint start = m.now();
        sim::TimePoint end = start + overloadWarmup + overloadWindow;
        writers.generate(kOverloadRate, end, end);
        while (writers.generating()) ctx.runFor(m, sim::msec(50));
        ctx.runUntil(m, end);
        writers.flush();
        if (!ctx.runUntilPred(
                m, [&] { return writers.acked() + writers.errors() == writers.sent(); },
                sim::msec(5), sim::sec(5))) {
            fail(r, "overload rung did not drain");
        }
        ctx.measuring = false;
        wallNs += hostNowNs() - t1;
        uint64_t unacked = writers.sent() - std::min(writers.sent(), writers.acked());
        r.attempted += writers.sent();
        r.failed += unacked;
        if (unacked) fail(r, "overload rung: " + std::to_string(unacked) + " events not acked");
        r.modelled["peak_mbps"] =
            static_cast<double>(writers.ackedBytesBetween(start + overloadWarmup, end)) / kMiB /
            sim::toSeconds(overloadWindow);
        r.fingerprint["overload_sent"] = static_cast<double>(writers.sent());
    }
    r.setupS = static_cast<double>(setupNs) / 1e9;
    r.wallS = static_cast<double>(wallNs) / 1e9;
    return r;
}

// --------------------------------------------------------------- catchup-read

RepResult runCatchupRead(uint64_t seed, Ctx& ctx) {
    constexpr int kSegments = 16;
    constexpr uint32_t kEventBytes = 10 * 1024;
    constexpr uint64_t kBacklogBytes = 256ULL * 1024 * 1024;
    constexpr double kBacklogRate = 1.2e9 / kEventBytes;      // offered above capacity
    constexpr double kLiveRate = 100.0 * kMiB / kEventBytes;  // 100 MB/s
    const sim::Duration live = sim::msec(1100);

    RepResult r;
    int64_t t0 = hostNowNs();
    std::optional<SpanScope> setupSpan(std::in_place, ctx.tracer, "setup.catchup");
    PayloadPool pool(seed, kPoolBytes);
    cluster::ClusterConfig cfg;
    cfg.compressLts = true;
    cfg.store.container.storage.flushSizeBytes = 4 * 1024 * 1024;
    cfg.store.container.storage.flushTimeout = sim::msec(500);
    // Small WAL ledgers and frequent checkpoints let the WAL drop whole
    // ledgers of flushed backlog, so the hand-off below replays only the
    // last few MB of each container's log into the new owner's cache.
    cfg.store.container.checkpointEveryBytes = 2 * 1024 * 1024;
    cfg.store.container.log.rolloverBytes = 2 * 1024 * 1024;
    auto c = buildCluster(cfg, ctx, r);
    sim::Machine& m = c->machine();
    controller::StreamConfig sc;
    sc.initialSegments = kSegments;
    if (!createStream(*c, kScope, kStreamName, sc, ctx, r)) return r;
    OpenLoopWriters::Config wc;
    wc.eventBytes = kEventBytes;
    wc.seed = seed;

    // Backlog: offered all at once, so its ack rate is the 10 KB-event peak.
    OpenLoopWriters backlogWriters(*c, ctx, pool, wc);
    {
        SpanScope s(ctx.tracer, "setup.backlog");
        sim::TimePoint start = m.now();
        auto count = static_cast<double>(kBacklogBytes / kEventBytes);
        backlogWriters.generate(
            kBacklogRate, start + static_cast<sim::Duration>(count / kBacklogRate * 1e9), start);
        while (backlogWriters.generating()) ctx.runFor(m, sim::msec(20));
        backlogWriters.flush();
        if (!ctx.runUntilPred(
                m,
                [&] {
                    return backlogWriters.acked() + backlogWriters.errors() ==
                           backlogWriters.sent();
                },
                sim::msec(5), sim::sec(10))) {
            fail(r, "backlog did not drain");
        }
        r.modelled["peak_mbps"] = static_cast<double>(backlogWriters.sentBytes()) / kMiB /
                                  sim::toSeconds(backlogWriters.lastAckAt() - start);
        ctx.runFor(m, sim::sec(3));  // the storage writers flush the backlog to LTS
    }
    // Hand every container to the next store. The receiver recovers it from
    // the WAL and LTS with a cold cache, so the backlog is read back from LTS
    // while the cache has room for readahead and the live tail. (Capping the
    // cache below the backlog instead puts the read path under eviction
    // pressure, where catch-up reads fail; see CHANGES.md.)
    {
        SpanScope s(ctx.tracer, "setup.handoff");
        auto stores = c->stores();
        for (uint32_t cid = 0; cid < c->registry().containerCount(); ++cid) {
            auto it = std::find(stores.begin(), stores.end(), c->registry().ownerOf(cid));
            size_t next = it == stores.end() ? 0 : (it - stores.begin() + 1) % stores.size();
            Status moved = c->registry().moveContainer(cid, stores[next]);
            if (!moved.isOk()) fail(r, "container hand-off: " + moved.toString());
        }
        ctx.runFor(m, sim::sec(1));
    }
    // Live writers connect after the hand-off (EventWriter does not follow
    // container moves), as writer ids 4..7.
    wc.firstWriter = kWriters;
    OpenLoopWriters liveWriters(*c, ctx, pool, wc);
    const uint64_t backlog = backlogWriters.sentBytes();

    // Catch-up time runs from the readers' creation: they begin fetching
    // (and prefetching) as soon as they own a segment.
    VerifyingReaders readers(*c, ctx, "catchup", kSegments, 2 * kWriters, 4 * 1024 * 1024);
    r.setupS = static_cast<double>(hostNowNs() - t0) / 1e9;
    int64_t t1 = hostNowNs();
    setupSpan.reset();
    SpanScope measureSpan(ctx.tracer, "measure.catchup");
    ctx.startMeasuring(*c);
    sim::TimePoint start = m.now();
    StoreLoad load(*c);
    liveWriters.generate(kLiveRate, start + live, start);
    readers.watchBytes(backlog);
    readers.start(start);  // only live events (due >= start) are latency samples
    while (liveWriters.generating()) ctx.runFor(m, sim::msec(50));
    r.modelled["load_ratio"] = StoreLoad::maxMinRatio(load.bytesSince(*c));
    liveWriters.flush();
    const uint64_t sent = backlogWriters.sent() + liveWriters.sent();
    if (!ctx.runUntilPred(
            m,
            [&] {
                return liveWriters.acked() + liveWriters.errors() == liveWriters.sent() &&
                       readers.delivered() >= backlogWriters.acked() + liveWriters.acked();
            },
            sim::msec(5), sim::sec(10))) {
        fail(r, "catch-up did not drain");
    }
    ctx.measuring = false;
    r.wallS = static_cast<double>(hostNowNs() - t1) / 1e9;

    uint64_t acked = backlogWriters.acked() + liveWriters.acked();
    uint64_t writeFailures = sent - acked;
    uint64_t missing = acked > readers.delivered() ? acked - readers.delivered() : 0;
    r.attempted += sent;
    r.failed += writeFailures + missing + readers.violations();
    if (writeFailures) fail(r, std::to_string(writeFailures) + " of " + std::to_string(sent) +
                                   " events not acked");
    if (readers.delivered() != acked || readers.violations()) {
        fail(r, "delivered " + std::to_string(readers.delivered()) + " of " +
                    std::to_string(acked) + " acked; " + readers.violationSummary());
    }
    if (readers.digestSum() != backlogWriters.digestSum() + liveWriters.digestSum()) {
        fail(r, "reader checksum differs from writer checksum");
    }
    sim::TimePoint reached = readers.reachedAt();
    if (reached < 0) fail(r, "readers never delivered the backlog");
    r.modelled["catchup_mbps"] =
        reached > start ? static_cast<double>(backlog) / kMiB / sim::toSeconds(reached - start)
                        : 0;
    recordLatencies(r, liveWriters.ackLatency(), readers.deliverLatency());
    r.fingerprint["digest"] =
        static_cast<double>(backlogWriters.digestSum() + liveWriters.digestSum());
    collectLayers(*c, ctx, r);
    if (r.layer["lts.checksum_failures"] != 0) {
        r.failed += static_cast<uint64_t>(r.layer["lts.checksum_failures"]);
        fail(r, "LTS checksum failures");
    }
    if (r.layer["lts.codec.decodes_per_block"] == 0) fail(r, "backlog was not read from LTS");
    return r;
}

// ----------------------------------------------------------------- fleet-skew

RepResult runFleetSkew(uint64_t seed, Ctx& ctx) {
    // Long enough that load_ratio averages over many rebalancer moves: over
    // 20 s it still varied by ~18% across seeds, over 40 s by ~3%.
    const sim::Duration run = sim::sec(40);
    const sim::Duration kLoadWarmup = sim::sec(5);
    constexpr double kProbeRate = 4000;  // probe events/s

    RepResult r;
    int64_t t0 = hostNowNs();
    std::optional<SpanScope> setupSpan(std::in_place, ctx.tracer, "setup.fleet");
    PayloadPool pool(seed, kPoolBytes);
    cluster::ClusterConfig cfg;
    cfg.ltsKind = cluster::LtsKind::InMemory;
    cfg.segmentStores = 6;
    cfg.containerCount = 12;
    cfg.rebalanceContainers = true;
    cfg.rebalancer.pollInterval = sim::msec(500);
    cfg.rebalancer.moveBudgetPerPoll = 3;
    cfg.rebalancer.minStoreBytesPerSec = 16.0 * 1024;
    cfg.tenantQuotas = true;
    cfg.quota.pollInterval = sim::msec(250);
    auto c = buildCluster(cfg, ctx, r);
    sim::Machine& m = c->machine();
    c->quotas()->setQuota("noisy", 256.0 * 1024);

    workload::FleetConfig fc;
    fc.seed = seed;
    fc.tick = sim::msec(250);
    workload::TenantSpec fleetTenant;
    fleetTenant.scope = "fleet";
    fleetTenant.streams = 10000;
    fleetTenant.producersPerStream = 10;     // 100k modelled producers
    fleetTenant.producerEventsPerSec = 0.2;  // 20k events/s fleet-wide
    fleetTenant.eventBytes = 256;
    fleetTenant.streamSkewTheta = 1.4;
    fleetTenant.keySkewTheta = 1.0;
    fleetTenant.keysPerStream = 100;
    fleetTenant.arrivals = workload::ArrivalProcess::Kind::Mmpp;
    // Bursts well under the 1 s rebalancer/scaler horizon: a 1 s mean dwell
    // lets one seed's hottest stream sit in its high state for much of the
    // run, which swings load_ratio and peak_mbps across seeds by 15-30%.
    fleetTenant.mmppMeanDwell = sim::msec(100);
    fc.tenants.push_back(fleetTenant);
    workload::TenantSpec noisy;
    noisy.scope = "noisy";
    noisy.streams = 2;
    noisy.producersPerStream = 100;
    noisy.producerEventsPerSec = 10.0;  // 1 MB/s offered against a 256 KB/s quota
    noisy.eventBytes = 512;
    noisy.streamConfig.scaling.type = controller::ScaleType::ByRateBytes;
    noisy.streamConfig.scaling.targetRate = 64.0 * 1024;
    fc.tenants.push_back(noisy);

    workload::FleetWorkload fleet(*c, fc);
    fleet.attachQuotas(c->quotas());
    {
        HostTimer t(ctx.tracer, "workload.setup", r.layer["wl.setup_host_s"]);
        Status s = fleet.setup();
        if (!s.isOk()) {
            fail(r, "fleet setup: " + s.toString());
            return r;
        }
    }
    controller::AutoScaler::Config acfg;
    acfg.pollInterval = sim::msec(500);
    acfg.sustainWindows = 2;
    acfg.cooldown = sim::sec(1);
    controller::AutoScaler scaler(m, c->ctrl(), c->stores(), acfg);

    controller::StreamConfig probeCfg;
    probeCfg.initialSegments = 1;
    if (!createStream(*c, "probe", "stream", probeCfg, ctx, r)) return r;
    auto probeSegments = c->ctrl().getCurrentSegments("probe/stream");
    if (!probeSegments.isOk() || probeSegments.value().size() != 1) {
        fail(r, "probe stream has no single segment");
        return r;
    }
    SegmentProbe probe(*c, ctx, pool, probeSegments.value().front().record.id, seed);
    r.setupS = static_cast<double>(hostNowNs() - t0) / 1e9;

    int64_t t1 = hostNowNs();
    setupSpan.reset();
    SpanScope measureSpan(ctx.tracer, "measure.fleet");
    ctx.startMeasuring(*c);
    sim::TimePoint start = m.now();
    scaler.start();
    fleet.start();
    probe.generate(kProbeRate, start + run, start + sim::sec(1));
    SegmentProbe::Reader tail(probe, start + sim::sec(1), 256 * 1024);
    auto ackedBytes = [&] {
        return fleet.ackedFor("fleet") * fleetTenant.eventBytes +
               fleet.ackedFor("noisy") * noisy.eventBytes +
               probe.acked() * SegmentProbe::kEventBytes;
    };
    // Store load after the warm-up, attributed second by second to whichever
    // store owned each container then (the rebalancer moves them continually).
    StoreLoad::PerStore total;
    for (sim::Duration t = 0; t < run; t += sim::sec(1)) {
        StoreLoad load(*c);
        ctx.runFor(m, sim::sec(1));
        if (t < kLoadWarmup) continue;
        for (const auto& [store, bytes] : load.bytesSince(*c)) total[store] += bytes;
    }
    r.modelled["load_ratio"] = StoreLoad::maxMinRatio(total);
    r.modelled["peak_mbps"] = static_cast<double>(ackedBytes()) / kMiB / sim::toSeconds(run);
    fleet.stop();
    scaler.stop();
    if (!ctx.runUntilPred(
            m,
            [&] {
                return fleet.inflightAppends() == 0 && probe.acked() == probe.sent() &&
                       tail.delivered() >= probe.acked();
            },
            sim::msec(10), sim::sec(10))) {
        fail(r, "fleet did not drain");
    }
    recordLatencies(r, probe.ackLatency(), tail.deliverLatency());

    // Catch-up: one sequential reader re-reads the probe segment from its head.
    sim::TimePoint replayStart = m.now();
    SegmentProbe::Reader replay(probe, std::numeric_limits<sim::TimePoint>::max(), 1024 * 1024,
                                probe.sent());
    if (!ctx.runUntilPred(
            m, [&] { return replay.delivered() >= probe.sent(); }, sim::msec(5), sim::sec(10))) {
        fail(r, "probe replay did not finish");
    }
    r.modelled["catchup_mbps"] =
        replay.reachedAt() > replayStart
            ? static_cast<double>(probe.sentBytes()) / kMiB /
                  sim::toSeconds(replay.reachedAt() - replayStart)
            : 0;
    ctx.measuring = false;
    r.wallS = static_cast<double>(hostNowNs() - t1) / 1e9;

    for (const auto* rd : {&tail, &replay}) {
        uint64_t missing = probe.sent() > rd->delivered() ? probe.sent() - rd->delivered() : 0;
        r.failed += missing + rd->violations();
        if (missing || rd->violations() || rd->digestSum() != probe.digestSum()) {
            fail(r, "probe reader delivered " + std::to_string(rd->delivered()) + " of " +
                        std::to_string(probe.sent()) + " events, " +
                        std::to_string(rd->violations()) + " corrupt or out of order");
        }
    }
    r.failed += probe.sent() - probe.acked();
    r.fingerprint["probe_retries"] = static_cast<double>(probe.retries());
    r.attempted += fleet.sentEvents() + 2 * probe.sent();
    uint64_t fleetFailed = fleet.erroredEvents() + (fleet.sentEvents() - std::min(
                                                        fleet.sentEvents(), fleet.ackedEvents()));
    r.failed += fleetFailed;
    if (fleetFailed) {
        fail(r, "fleet: acked " + std::to_string(fleet.ackedEvents()) + " of " +
                    std::to_string(fleet.sentEvents()) + " sent, " +
                    std::to_string(fleet.erroredEvents()) + " errors");
    }
    r.fingerprint["key_checksum"] = static_cast<double>(fleet.keyChecksum() % (1ULL << 52));
    r.fingerprint["offered"] = static_cast<double>(fleet.offeredEvents());
    collectLayers(*c, ctx, r);
    r.layer["ctrl.autoscale.splits"] = static_cast<double>(scaler.splitsIssued());
    r.layer["ctrl.quota.throttled_frac"] =
        fleet.offeredEvents() ? static_cast<double>(fleet.throttledEvents()) /
                                    static_cast<double>(fleet.offeredEvents())
                              : 0.0;
    return r;
}

}  // namespace perfbench
