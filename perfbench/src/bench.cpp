#include "bench.h"

#include <algorithm>
#include <cmath>
#include <bit>
#include <cstring>

#include "common/hash.h"
#include "obs/metrics.h"

namespace perfbench {

double Samples::percentileMs(double p) {
    if (v_.empty()) return 0;
    if (!sorted_) {
        std::sort(v_.begin(), v_.end());
        sorted_ = true;
    }
    // Nearest rank: the smallest sample with at least p% of samples <= it.
    auto rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v_.size())));
    rank = std::clamp<size_t>(rank, 1, v_.size());
    return static_cast<double>(v_[rank - 1]) / 1e6;
}

void Ctx::runUntil(sim::Machine& m, sim::TimePoint until) {
    SpanScope span(tracer, "sim.runUntil");
    int64_t t0 = hostNowNs();
    uint64_t e0 = m.executedEvents();
    m.runUntil(until);
    if (measuring) slices.push_back({hostNowNs() - t0, m.executedEvents() - e0});
}

void Ctx::startMeasuring(cluster::PravegaCluster& c) {
    measuring = true;
    measureStart = c.machine().now();
    diskBusyAtStart = c.machine().mergedMetrics().counterValue("sim.disk.busy_ns");
    containerOpsAtStart.clear();
    for (uint32_t cid = 0; cid < c.registry().containerCount(); ++cid) {
        if (auto* container = c.registry().containerFor(cid)) {
            containerOpsAtStart[cid] = {container->checkpointsWritten(),
                                        container->walTruncations()};
        }
    }
}

bool Ctx::runUntilPred(sim::Machine& m, const std::function<bool()>& pred, sim::Duration step,
                       sim::Duration timeout) {
    sim::TimePoint deadline = m.now() + timeout;
    while (!pred()) {
        if (m.now() >= deadline) return false;
        runFor(m, step);
    }
    return true;
}

// ------------------------------------------------------------- payloads

PayloadPool::PayloadPool(uint64_t seed, size_t bytes) : pool_(bytes) {
    sim::Rng rng(seed ^ 0x9A71'0AD5'EEDULL);
    size_t pos = 0;
    bool literal = true;
    while (pos < bytes) {
        size_t len = std::min<size_t>(bytes - pos, 16 + rng.nextBounded(97));  // mean 64
        if (literal) {
            for (size_t i = 0; i < len; ++i) pool_[pos + i] = static_cast<uint8_t>(rng.next());
        } else {
            std::memset(pool_.data() + pos, static_cast<int>(rng.nextBounded(256)), len);
        }
        pos += len;
        literal = !literal;
    }
}

namespace {
void putU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
void putU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, 8); }
uint32_t getU32(const uint8_t* p) {
    uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}
uint64_t getU64(const uint8_t* p) {
    uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}
}  // namespace

uint64_t bodyHash(const uint8_t* p, size_t n) {
    constexpr uint64_t k1 = 0x9E3779B185EBCA87ULL, k2 = 0xC2B2AE3D27D4EB4FULL;
    uint64_t h[4] = {k1, k2, k1 ^ k2, k1 + k2};
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        for (int j = 0; j < 4; ++j) {
            h[j] = std::rotl(h[j] ^ (getU64(p + i + 8 * j) * k2), 31) * k1;
        }
    }
    for (; i < n; ++i) h[0] = (h[0] ^ p[i]) * k1;
    return mix64(h[0] ^ std::rotl(h[1], 7) ^ std::rotl(h[2], 13) ^ std::rotl(h[3], 19) ^ n);
}

uint64_t EventHeader::digest() const {
    return mix64(bodyHash ^ mix64((static_cast<uint64_t>(writer) << 32) | key) ^
                 mix64(seq * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(due)));
}

Bytes makePayload(const PayloadPool& pool, const EventHeader& h, size_t size,
                  uint64_t poolOffset) {
    Bytes out(size);
    std::memcpy(out.data() + EventHeader::kBytes, pool.at(poolOffset), size - EventHeader::kBytes);
    putU32(out.data(), EventHeader::kMagic);
    putU32(out.data() + 4, h.writer);
    putU32(out.data() + 8, h.key);
    putU32(out.data() + 12, 0);
    putU64(out.data() + 16, h.seq);
    putU64(out.data() + 24, static_cast<uint64_t>(h.due));
    putU64(out.data() + 32, h.bodyHash);
    return out;
}

bool parsePayload(BytesView payload, EventHeader& out) {
    if (payload.size() < EventHeader::kBytes) return false;
    const uint8_t* p = payload.data();
    if (getU32(p) != EventHeader::kMagic) return false;
    out.writer = getU32(p + 4);
    out.key = getU32(p + 8);
    out.seq = getU64(p + 16);
    out.due = static_cast<int64_t>(getU64(p + 24));
    out.bodyHash = getU64(p + 32);
    return bodyHash(p + EventHeader::kBytes, payload.size() - EventHeader::kBytes) ==
           out.bodyHash;
}

// ------------------------------------------------------------- writers

OpenLoopWriters::OpenLoopWriters(cluster::PravegaCluster& c, Ctx& ctx, const PayloadPool& pool,
                                 Config cfg)
    : c_(c), ctx_(ctx), pool_(pool), cfg_(std::move(cfg)), rng_(cfg_.seed + cfg_.firstWriter),
      slotHash_((pool_.size() - cfg_.eventBytes) / kSlotBytes, 0) {
    for (int i = 0; i < kWriters; ++i) {
        writers_.push_back(c_.makeWriter(kStream));
        nextSeq_.push_back(0);
    }
}

OpenLoopWriters::~OpenLoopWriters() { *alive_ = false; }

void OpenLoopWriters::generate(double rate, sim::TimePoint until, sim::TimePoint sampleFrom) {
    rate_ = rate;
    until_ = until;
    sampleFrom_ = sampleFrom;
    sim::Machine& m = c_.machine();
    nextDue_ = m.now() + static_cast<sim::Duration>(rng_.nextExp(1e9 / rate_));
    if (nextDue_ >= until_) return;
    generating_ = true;
    m.schedule(nextDue_ - m.now(), [this, alive = alive_]() {
        if (*alive) emit();
    });
}

void OpenLoopWriters::emit() {
    GenTimer timer(ctx_);
    sim::Machine& m = c_.machine();
    const sim::TimePoint due = nextDue_;
    auto w = static_cast<uint32_t>(sent_ % writers_.size());
    EventHeader h;
    h.writer = cfg_.firstWriter + w;
    h.key = static_cast<uint32_t>(rng_.nextBounded(kKeys));
    h.seq = nextSeq_[w]++;
    h.due = due;
    uint64_t slot = rng_.nextBounded(slotHash_.size());
    const size_t bodyBytes = cfg_.eventBytes - EventHeader::kBytes;
    if (slotHash_[slot] == 0) slotHash_[slot] = bodyHash(pool_.at(slot * kSlotBytes), bodyBytes);
    h.bodyHash = slotHash_[slot];
    Bytes payload = makePayload(pool_, h, cfg_.eventBytes, slot * kSlotBytes);
    digestSum_ += h.digest();
    std::string key = std::to_string(h.key);
    const uint32_t bytes = cfg_.eventBytes;
    ++sent_;
    sentBytes_ += bytes;
    auto ack = [this, alive = alive_, due, bytes](Status s) {
        if (!*alive) return;
        GenTimer t(ctx_);
        if (!s.isOk()) {
            ++errors_;
            return;
        }
        sim::TimePoint now = c_.machine().now();
        ++acked_;
        lastAckAt_ = now;
        ackLog_.emplace_back(now, bytes);
        if (due >= sampleFrom_) ackLatency_.add(now - due);
    };
    if (ctx_.tracer) {
        int64_t t0 = hostNowNs();
        writers_[w]->writeEvent(key, BytesView(payload), std::move(ack));
        int64_t t1 = hostNowNs();
        ctx_.tracer->add("client.writeEvent", t0, t1);
        ctx_.writeHostNs += t1 - t0;
        ++ctx_.writeCalls;
        ctx_.genHostNs -= t1 - t0;  // the write call is system time, not benchmark time
    } else {
        writers_[w]->writeEvent(key, BytesView(payload), std::move(ack));
    }
    nextDue_ = due + std::max<sim::Duration>(1, static_cast<sim::Duration>(
                                                    rng_.nextExp(1e9 / rate_)));
    if (nextDue_ >= until_) {
        generating_ = false;
        return;
    }
    m.schedule(nextDue_ - m.now(), [this, alive = alive_]() {
        if (*alive) emit();
    });
}

void OpenLoopWriters::flush() {
    for (auto& w : writers_) w->flush();
}

uint64_t OpenLoopWriters::ackedBytesBetween(sim::TimePoint from, sim::TimePoint to) const {
    uint64_t total = 0;
    for (const auto& [at, bytes] : ackLog_) {
        if (at >= from && at <= to) total += bytes;
    }
    return total;
}

// ------------------------------------------------------------- readers

VerifyingReaders::VerifyingReaders(cluster::PravegaCluster& c, Ctx& ctx, const std::string& group,
                                   int readers, int writers, uint64_t fetchBytes)
    : c_(c), ctx_(ctx), seen_(static_cast<size_t>(writers)),
      lastSeqPlus1_(static_cast<size_t>(writers) * kKeys, 0) {
    client::ReaderConfig rcfg;
    rcfg.fetchBytes = fetchBytes;
    auto g = c_.makeReaderGroup(group, {kStream}, rcfg);
    if (!g.isOk()) {
        ++readErrors_;
        return;
    }
    group_ = g.value();
    // ReaderGroup::create seeds the group's state without waiting for it; a
    // reader joining in the same instant races that seed update, and right
    // after a write burst the seed can lose every retry and leave the group
    // empty. Let the seed land first.
    ctx_.runFor(c_.machine(), sim::msec(100));
    for (int i = 0; i < readers; ++i) {
        readers_.push_back(
            group_->createReader(group + "-" + std::to_string(i), c_.newClientHost()));
    }
}

VerifyingReaders::~VerifyingReaders() { *alive_ = false; }

void VerifyingReaders::start(sim::TimePoint sampleFrom) {
    sampleFrom_ = sampleFrom;
    for (auto& r : readers_) pump(r.get());
}

void VerifyingReaders::pump(client::EventReader* r) {
    // Drain what is buffered without recursion, then park one read.
    while (auto ev = r->pollEvent()) onEvent(*ev);
    r->readNextEvent().onComplete([this, r, alive = alive_](const Result<client::EventRead>& res) {
        if (!*alive) return;
        if (!res.isOk()) {
            ++readErrors_;
            return;
        }
        onEvent(res.value());
        pump(r);
    });
}

void VerifyingReaders::onEvent(const client::EventRead& ev) {
    GenTimer timer(ctx_);
    int64_t t0 = ctx_.tracer ? hostNowNs() : 0;
    EventHeader h;
    BytesView payload(ev.payload);
    if (!parsePayload(payload, h) || h.writer >= seen_.size() || h.key >= kKeys) {
        ++corrupt_;
        return;
    }
    auto& seen = seen_[h.writer];
    if (seen.size() <= h.seq) seen.resize(std::max<size_t>(h.seq + 1, seen.size() * 2), 0);
    if (seen[h.seq]) {
        ++duplicates_;
        return;
    }
    seen[h.seq] = 1;
    uint64_t& last = lastSeqPlus1_[static_cast<size_t>(h.writer) * kKeys + h.key];
    if (h.seq + 1 <= last) ++outOfOrder_;
    last = std::max(last, h.seq + 1);

    sim::TimePoint now = c_.machine().now();
    ++delivered_;
    deliveredBytes_ += payload.size();
    digestSum_ += h.digest();
    if (h.due >= sampleFrom_) deliverLatency_.add(now - h.due);
    if (reachedAt_ < 0 && watchBytes_ > 0 && deliveredBytes_ >= watchBytes_) reachedAt_ = now;
    if (ctx_.tracer) ctx_.tracer->add("client.readerCompletion", t0, hostNowNs());
}

std::string VerifyingReaders::violationSummary() const {
    return "corrupt=" + std::to_string(corrupt_) + " duplicates=" + std::to_string(duplicates_) +
           " out_of_order=" + std::to_string(outOfOrder_) +
           " read_errors=" + std::to_string(readErrors_);
}

// ------------------------------------------------------- layer metrics

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double histPctMs(const obs::MetricsRegistry& reg, const std::string& name, double p) {
    const auto* h = reg.findHistogram(name);
    return h ? h->percentileMs(p) : 0.0;
}

double histMean(const obs::MetricsRegistry& reg, const std::string& name) {
    const auto* h = reg.findHistogram(name);
    return h ? h->meanNs() : 0.0;
}

double histCount(const obs::MetricsRegistry& reg, const std::string& name) {
    const auto* h = reg.findHistogram(name);
    return h ? static_cast<double>(h->count()) : 0.0;
}

}  // namespace

void collectLayers(cluster::PravegaCluster& c, const Ctx& ctx, RepResult& r) {
    const obs::MetricsRegistry& reg = c.machine().mergedMetrics();
    auto cnt = [&](const std::string& n) { return static_cast<double>(reg.counterValue(n)); };
    auto& L = r.layer;

    L["client.events_per_block"] = ratio(cnt("client.writer.events"), cnt("client.writer.blocks"));
    L["client.batch_wait_p50_ms"] = histPctMs(reg, "trace.write.0_client_batch_wait_ns", 50);

    const double spanNs = static_cast<double>(c.machine().now() - ctx.measureStart);
    L["sim.disk.util"] = ratio(cnt("sim.disk.busy_ns") - static_cast<double>(ctx.diskBusyAtStart),
                               static_cast<double>(c.bookies().size()) * spanNs);
    L["sim.net.queue_p99_ms"] = histPctMs(reg, "sim.net.queue_ns", 99);

    L["store.queue_p50_ms"] = histPctMs(reg, "trace.write.1_store_queue_ns", 50);
    L["store.queue_p99_ms"] = histPctMs(reg, "trace.write.1_store_queue_ns", 99);
    L["store.ops_per_frame"] = histMean(reg, "store.frame.ops");
    double hits = cnt("store.cache.read_hits");
    L["store.cache.hit_ratio"] = ratio(hits, hits + cnt("store.cache.read_misses"));
    double coalesced = cnt("store.read.coalesced");
    L["store.read.coalesced_ratio"] =
        ratio(coalesced, coalesced + cnt("store.read.lts_fetches"));
    L["store.prefetch.useful_ratio"] =
        ratio(cnt("store.prefetch.hits"), cnt("store.prefetch.issued"));
    L["store.prefetch.wasted_mb"] = cnt("store.prefetch.wasted_bytes") / (1024.0 * 1024.0);
    L["store.throttle.ms"] = cnt("store.throttle.ns") / 1e6;
    L["store.writer.flush_p50_ms"] = histPctMs(reg, "store.writer.flush_ns", 50);
    // Checkpoints and WAL truncations in the measured phase (a container
    // that moved since the snapshot restarted its counts at 0).
    double checkpoints = 0, truncations = 0;
    for (uint32_t cid = 0; cid < c.registry().containerCount(); ++cid) {
        auto* container = c.registry().containerFor(cid);
        if (container == nullptr) continue;
        auto it = ctx.containerOpsAtStart.find(cid);
        auto [ckpt0, trunc0] = it == ctx.containerOpsAtStart.end()
                                   ? std::pair<uint64_t, uint64_t>{0, 0}
                                   : it->second;
        uint64_t ckpt = container->checkpointsWritten(), trunc = container->walTruncations();
        checkpoints += static_cast<double>(ckpt >= ckpt0 ? ckpt - ckpt0 : ckpt);
        truncations += static_cast<double>(trunc >= trunc0 ? trunc - trunc0 : trunc);
    }
    L["store.checkpoints"] = checkpoints;
    L["wal.truncations"] = truncations;

    L["wal.commit_p50_ms"] = histPctMs(reg, "trace.write.2_wal_commit_ns", 50);
    L["wal.commit_p99_ms"] = histPctMs(reg, "trace.write.2_wal_commit_ns", 99);
    L["wal.journal_sync_p99_ms"] = histPctMs(reg, "trace.write.3_journal_sync_ns", 99);
    L["wal.entries_per_flush"] = ratio(cnt("wal.bookie.adds"), cnt("wal.bookie.journal.flushes"));

    L["lts.ops"] = cnt("sim.lts.ops");
    L["lts.op_p50_ms"] = histPctMs(reg, "sim.lts.op_ns", 50);
    const auto* codec = c.codecLts();
    L["lts.codec.ratio"] = codec ? ratio(static_cast<double>(codec->rawBytes()),
                                         static_cast<double>(codec->storedBytes()))
                                 : 0.0;
    L["lts.codec.decode_p50_ms"] = histPctMs(reg, "lts.codec.decode_ns", 50);
    L["lts.codec.decodes_per_block"] =
        ratio(histCount(reg, "lts.codec.decode_ns"), cnt("lts.codec.blocks"));
    L["lts.checksum_failures"] = cnt("lts.checksum_failures");

    L["ctrl.rebalance.moves"] = cnt("ctrl.rebalance.moves");
    L["ctrl.rebalance.ticks"] = cnt("ctrl.rebalance.ticks");

    // Host-side figures of the measured phase.
    int64_t hostNs = 0;
    uint64_t events = 0;
    for (const auto& s : ctx.slices) {
        hostNs += s.hostNs;
        events += s.events;
    }
    L["sim.events"] = static_cast<double>(events);
    // Drift: host ns per event of the last substantial slice over the first.
    const Slice* first = nullptr;
    const Slice* last = nullptr;
    for (const auto& s : ctx.slices) {
        if (s.events < 1000) continue;
        if (!first) first = &s;
        last = &s;
    }
    L["sim.host_drift"] =
        first ? ratio(static_cast<double>(last->hostNs) / static_cast<double>(last->events),
                      static_cast<double>(first->hostNs) / static_cast<double>(first->events))
              : 0.0;
    L["sim.host_ns_per_event"] = ratio(static_cast<double>(hostNs), static_cast<double>(events));
    L["client.write_host_ns"] = ratio(static_cast<double>(ctx.writeHostNs),
                                      static_cast<double>(ctx.writeCalls));
    L["bench.gen_host_s"] = static_cast<double>(ctx.genHostNs) / 1e9;
}

StoreLoad::StoreLoad(cluster::PravegaCluster& c) {
    for (uint32_t cid = 0; cid < c.registry().containerCount(); ++cid) {
        if (auto* container = c.registry().containerFor(cid)) snap_[cid] = container->totalBytesIn();
    }
}

StoreLoad::PerStore StoreLoad::bytesSince(cluster::PravegaCluster& c) const {
    PerStore perStore;
    for (auto* s : c.stores()) perStore[s] = 0;
    for (uint32_t cid = 0; cid < c.registry().containerCount(); ++cid) {
        auto* owner = c.registry().ownerOf(cid);
        auto* container = owner ? owner->container(cid) : nullptr;
        if (container == nullptr) continue;
        uint64_t cum = container->totalBytesIn();
        auto it = snap_.find(cid);
        uint64_t prev = it == snap_.end() ? 0 : it->second;
        perStore[owner] += cum >= prev ? cum - prev : cum;  // a moved container restarts at 0
    }
    return perStore;
}

double StoreLoad::maxMinRatio(const PerStore& load) {
    uint64_t maxLoad = 0, minLoad = UINT64_MAX;
    for (const auto& [store, bytes] : load) {
        maxLoad = std::max(maxLoad, bytes);
        minLoad = std::min(minLoad, bytes);
    }
    return static_cast<double>(maxLoad) / static_cast<double>(std::max<uint64_t>(minLoad, 1));
}

}  // namespace perfbench
