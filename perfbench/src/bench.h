// Shared pieces of the repository benchmark: host timing, in-memory spans,
// exact latency samples, the seeded payload pool, the self-checking event
// header, and the open-loop writers and verifying readers that every
// workload builds on.
//
// The benchmark drives the system only through its public APIs
// (cluster::PravegaCluster, client::EventWriter / EventReader,
// workload::FleetWorkload, controller::*). Modelled metrics come from virtual
// time and are deterministic per seed; host metrics come from the wall clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/event_reader.h"
#include "cluster/pravega_cluster.h"
#include "sim/random.h"

namespace perfbench {

using namespace pravega;

inline int64_t hostNowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ------------------------------------------------------------------ spans

/// In-memory span log. A span has a name, host start/end (ns) and the index
/// of the span that was open when it started. Nothing is written until the
/// run ends. Workloads record spans only through `Tracer*` pointers that are
/// null in untraced runs, so the untraced path pays one branch per site.
class Tracer {
public:
    struct Span {
        const char* name;
        int64_t start;
        int64_t end;
        int32_t parent;
    };

    int32_t open(const char* name) {
        spans_.push_back({name, hostNowNs(), 0, stack_.empty() ? -1 : stack_.back()});
        auto id = static_cast<int32_t>(spans_.size() - 1);
        stack_.push_back(id);
        return id;
    }
    void close(int32_t id) {
        spans_[static_cast<size_t>(id)].end = hostNowNs();
        if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
    }
    /// A span that is already finished (start/end measured by the caller).
    void add(const char* name, int64_t start, int64_t end) {
        spans_.push_back({name, start, end, stack_.empty() ? -1 : stack_.back()});
    }

    const std::vector<Span>& spans() const { return spans_; }

private:
    std::vector<Span> spans_;
    std::vector<int32_t> stack_;
};

/// RAII span; a no-op when `t` is null.
class SpanScope {
public:
    SpanScope(Tracer* t, const char* name) : t_(t), id_(t ? t->open(name) : -1) {}
    ~SpanScope() {
        if (t_) t_->close(id_);
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    Tracer* t_;
    int32_t id_;
};

// --------------------------------------------------------- latency samples

/// Every sample kept: percentiles are exact order statistics, not bucket
/// upper bounds.
class Samples {
public:
    void add(int64_t ns) { v_.push_back(ns); }
    size_t count() const { return v_.size(); }
    /// Nearest-rank percentile in ms (p in [0, 100]); 0 when empty.
    double percentileMs(double p);

private:
    std::vector<int64_t> v_;
    bool sorted_ = false;
};

// ------------------------------------------------------------ run context

/// One host-time slice of simulation: a runFor/runUntil call.
struct Slice {
    int64_t hostNs;
    uint64_t events;
};

/// Per-repetition context: the tracer (null when untraced), the simulation
/// slices of the measured phase, and host time spent in the benchmark's own
/// generator and callbacks (traced runs only).
struct Ctx {
    Tracer* tracer = nullptr;
    bool measuring = false;
    std::vector<Slice> slices;
    int64_t genHostNs = 0;
    int64_t writeHostNs = 0;
    uint64_t writeCalls = 0;
    /// Virtual time and journal-drive busy time when the measured phase of
    /// the world that collectLayers reads began.
    sim::TimePoint measureStart = 0;
    uint64_t diskBusyAtStart = 0;
    /// Per container id: (checkpoints written, WAL truncations) at that time.
    std::map<uint32_t, std::pair<uint64_t, uint64_t>> containerOpsAtStart;

    /// Starts the measured phase of `c`'s world.
    void startMeasuring(cluster::PravegaCluster& c);

    /// Advances the simulation to `until`, timing the call and counting the
    /// events it executed.
    void runUntil(sim::Machine& m, sim::TimePoint until);
    void runFor(sim::Machine& m, sim::Duration d) { runUntil(m, m.now() + d); }
    /// Runs in `step` slices until `pred` holds or `timeout` passes; true if
    /// `pred` held.
    bool runUntilPred(sim::Machine& m, const std::function<bool()>& pred, sim::Duration step,
                      sim::Duration timeout);
};

/// Times a host-side callback body into `ctx.genHostNs` when traced.
class GenTimer {
public:
    explicit GenTimer(Ctx& ctx) : ctx_(ctx), start_(ctx.tracer ? hostNowNs() : 0) {}
    ~GenTimer() {
        if (ctx_.tracer) ctx_.genHostNs += hostNowNs() - start_;
    }
    GenTimer(const GenTimer&) = delete;
    GenTimer& operator=(const GenTimer&) = delete;

private:
    Ctx& ctx_;
    int64_t start_;
};

// ------------------------------------------------------------- payloads

/// Seeded byte pool that event bodies are cut from. It alternates random
/// literal stretches with byte runs of equal mean length, so the LTS codec's
/// RLE sees roughly 2:1 redundancy — a stated, workload-independent
/// compressibility instead of zero-filled payloads.
class PayloadPool {
public:
    PayloadPool(uint64_t seed, size_t bytes);
    const uint8_t* at(uint64_t offset) const { return pool_.data() + offset; }
    size_t size() const { return pool_.size(); }

private:
    Bytes pool_;
};

/// Self-checking event header at the front of every payload.
struct EventHeader {
    static constexpr uint32_t kMagic = 0x50425631;  // "PBV1"
    static constexpr size_t kBytes = 40;
    uint32_t writer = 0;
    uint32_t key = 0;
    uint64_t seq = 0;       // per-writer sequence number
    int64_t due = 0;        // virtual due time
    uint64_t bodyHash = 0;  // bodyHash() of the bytes after the header

    /// Order-independent per-event digest; writers and readers each sum it.
    uint64_t digest() const;
};

/// Fast 64-bit hash of an event body (word-at-a-time: the benchmark's own
/// work must stay cheap next to the system it measures).
uint64_t bodyHash(const uint8_t* data, size_t len);

/// Builds a payload of `size` bytes (>= kBytes): header + pool slice. The
/// caller supplies `h.bodyHash` for the slice.
Bytes makePayload(const PayloadPool& pool, const EventHeader& h, size_t size, uint64_t poolOffset);
/// Parses and verifies a payload; false on a bad magic, size or body hash.
bool parsePayload(BytesView payload, EventHeader& out);

// ------------------------------------------------------------- writers

/// The stream that OpenLoopWriters write and VerifyingReaders read: scope,
/// name and qualified name.
inline constexpr char kScope[] = "bench";
inline constexpr char kStreamName[] = "stream";
inline constexpr char kStream[] = "bench/stream";
/// EventWriters per OpenLoopWriters, and the routing keys events draw from.
inline constexpr int kWriters = 4;
inline constexpr uint32_t kKeys = 50000;

/// Open-loop writers: one Poisson generator spreads events over kWriters
/// EventWriters round-robin. Every event gets its own due time
/// and is written exactly then; latency is timed from the due time.
class OpenLoopWriters {
public:
    struct Config {
        uint32_t eventBytes = 1024;
        uint64_t seed = 1;
        /// Writer index of the first writer (payload headers carry it).
        uint32_t firstWriter = 0;
    };

    OpenLoopWriters(cluster::PravegaCluster& c, Ctx& ctx, const PayloadPool& pool, Config cfg);
    ~OpenLoopWriters();
    OpenLoopWriters(const OpenLoopWriters&) = delete;
    OpenLoopWriters& operator=(const OpenLoopWriters&) = delete;

    /// Generates events with Poisson spacing at `rate` over [now, until).
    /// Acks of events due at or after `sampleFrom` feed `ackLatency`.
    void generate(double rate, sim::TimePoint until, sim::TimePoint sampleFrom);
    bool generating() const { return generating_; }
    void flush();

    uint64_t sent() const { return sent_; }
    uint64_t acked() const { return acked_; }
    uint64_t errors() const { return errors_; }
    uint64_t sentBytes() const { return sentBytes_; }
    /// Acked bytes of events acked inside [from, to] (virtual time).
    uint64_t ackedBytesBetween(sim::TimePoint from, sim::TimePoint to) const;
    sim::TimePoint lastAckAt() const { return lastAckAt_; }
    /// Sum of the digests of every sent event.
    uint64_t digestSum() const { return digestSum_; }
    Samples& ackLatency() { return ackLatency_; }

private:
    void emit();

    cluster::PravegaCluster& c_;
    Ctx& ctx_;
    const PayloadPool& pool_;
    Config cfg_;
    std::vector<std::unique_ptr<client::EventWriter>> writers_;
    std::vector<uint64_t> nextSeq_;
    sim::Rng rng_;
    double rate_ = 0;
    sim::TimePoint nextDue_ = 0;
    sim::TimePoint until_ = 0;
    sim::TimePoint sampleFrom_ = 0;
    bool generating_ = false;
    uint64_t sent_ = 0, acked_ = 0, errors_ = 0, sentBytes_ = 0, digestSum_ = 0;
    /// Body hash per pool slot (0 = not computed yet); bodies start on
    /// kSlotBytes boundaries of the pool.
    static constexpr uint64_t kSlotBytes = 64;
    std::vector<uint64_t> slotHash_;
    sim::TimePoint lastAckAt_ = 0;
    std::vector<std::pair<sim::TimePoint, uint32_t>> ackLog_;  // (ack time, bytes)
    Samples ackLatency_;
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

// ------------------------------------------------------------- readers

/// A reader group on kStream whose readers pump events continuously and
/// verify each one: header and body CRC, exactly-once per (writer, seq), and
/// order per (writer, routing key). `writers` is the number of writer indices
/// in use. Delivery latency is timed from the event's due time.
class VerifyingReaders {
public:
    VerifyingReaders(cluster::PravegaCluster& c, Ctx& ctx, const std::string& group, int readers,
                     int writers, uint64_t fetchBytes);
    ~VerifyingReaders();
    VerifyingReaders(const VerifyingReaders&) = delete;
    VerifyingReaders& operator=(const VerifyingReaders&) = delete;

    /// Starts the read loops; deliveries with due time >= `sampleFrom` feed
    /// `deliverLatency`.
    void start(sim::TimePoint sampleFrom);

    uint64_t delivered() const { return delivered_; }
    uint64_t deliveredBytes() const { return deliveredBytes_; }
    uint64_t violations() const { return corrupt_ + duplicates_ + outOfOrder_ + readErrors_; }
    std::string violationSummary() const;
    /// Sum of the digests of every delivered event.
    uint64_t digestSum() const { return digestSum_; }
    Samples& deliverLatency() { return deliverLatency_; }
    /// Records when delivered bytes first reach `bytes` (see reachedAt).
    void watchBytes(uint64_t bytes) { watchBytes_ = bytes; }
    /// Virtual time the watched byte count was reached, or -1.
    sim::TimePoint reachedAt() const { return reachedAt_; }

private:
    void pump(client::EventReader* r);
    void onEvent(const client::EventRead& ev);

    cluster::PravegaCluster& c_;
    Ctx& ctx_;
    std::shared_ptr<client::ReaderGroup> group_;
    std::vector<std::unique_ptr<client::EventReader>> readers_;
    std::vector<std::vector<uint8_t>> seen_;      // [writer][seq]
    std::vector<uint64_t> lastSeqPlus1_;          // [writer * kKeys + key]
    sim::TimePoint sampleFrom_ = 0;
    uint64_t delivered_ = 0, deliveredBytes_ = 0, digestSum_ = 0;
    uint64_t corrupt_ = 0, duplicates_ = 0, outOfOrder_ = 0, readErrors_ = 0;
    uint64_t watchBytes_ = 0;
    sim::TimePoint reachedAt_ = -1;
    Samples deliverLatency_;
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

// ---------------------------------------------------------- segment probe

/// Writes and tails one segment through the network and its owning
/// container, re-resolving the owner before every request the way
/// FleetWorkload does, so it follows the rebalancer's container moves. (EventWriter and
/// EventReader stay bound to the store they first reached, so a container
/// move fails their requests; fleet-skew moves containers continually.)
///
/// Open loop: events get Poisson due times. One append is in flight at a
/// time and events that fall due meanwhile are framed into the next one, as
/// a client batches. A failed append, or one held by a container that then
/// moved, is sent again with the same writer id and event number, which the
/// container deduplicates, so retries cannot duplicate events. Latency is
/// timed from each event's due time.
class SegmentProbe {
public:
    /// Event size: at the probe's 4000 e/s, 1 MB/s, a small share of the
    /// fleet load.
    static constexpr uint32_t kEventBytes = 256;

    SegmentProbe(cluster::PravegaCluster& c, Ctx& ctx, const PayloadPool& pool,
                 segmentstore::SegmentId segment, uint64_t seed);
    ~SegmentProbe();
    SegmentProbe(const SegmentProbe&) = delete;
    SegmentProbe& operator=(const SegmentProbe&) = delete;

    void generate(double rate, sim::TimePoint until, sim::TimePoint sampleFrom);
    bool generating() const { return generating_; }

    /// A sequential reader of the segment from `offset` 0: it verifies every
    /// event (hash, exactly once, in order) and times delivery from the due
    /// time of events due at or after `sampleFrom`.
    class Reader {
    public:
        /// `watchEvents`: record when this many events have been delivered.
        Reader(SegmentProbe& probe, sim::TimePoint sampleFrom, int64_t maxBytes,
               uint64_t watchEvents = 0);
        ~Reader();
        Reader(const Reader&) = delete;
        Reader& operator=(const Reader&) = delete;

        uint64_t delivered() const { return delivered_; }
        uint64_t deliveredBytes() const { return deliveredBytes_; }
        uint64_t violations() const { return corrupt_ + outOfOrder_; }
        uint64_t digestSum() const { return digestSum_; }
        Samples& deliverLatency() { return latency_; }
        /// Virtual time the watched event count was reached, or -1.
        sim::TimePoint reachedAt() const { return reachedAt_; }

    private:
        void issue();
        void onRead(const Result<segmentstore::ReadResult>& r);
        void watch();

        SegmentProbe& p_;
        sim::HostId host_;
        sim::TimePoint sampleFrom_;
        int64_t maxBytes_;
        uint64_t watchEvents_;
        sim::TimePoint reachedAt_ = -1;
        int64_t offset_ = 0;
        uint64_t generation_ = 0;
        /// Container holding the outstanding read, or null when none is.
        segmentstore::SegmentContainer* target_ = nullptr;
        uint64_t nextSeq_ = 0;
        uint64_t delivered_ = 0, deliveredBytes_ = 0, digestSum_ = 0;
        uint64_t corrupt_ = 0, outOfOrder_ = 0;
        Bytes partial_;
        Samples latency_;
        std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
    };

    uint64_t sent() const { return sent_; }
    uint64_t acked() const { return acked_; }
    uint64_t sentBytes() const { return sentBytes_; }
    uint64_t retries() const { return retries_; }
    uint64_t digestSum() const { return digestSum_; }
    Samples& ackLatency() { return ackLatency_; }

private:
    void emit();
    void send();
    void retryLater();
    void watch();
    void onAppendDone(const Result<int64_t>& r);
    /// The owning container, or null while it is moving.
    segmentstore::SegmentContainer* container(segmentstore::SegmentStore** owner = nullptr);

    cluster::PravegaCluster& c_;
    Ctx& ctx_;
    const PayloadPool& pool_;
    segmentstore::SegmentId segment_;
    uint32_t containerId_;
    sim::Rng rng_;
    sim::HostId host_;
    double rate_ = 0;
    sim::TimePoint nextDue_ = 0, until_ = 0, sampleFrom_ = 0;
    bool generating_ = false;
    bool inFlight_ = false;
    Bytes pending_;                     // framed events not yet sent
    std::vector<sim::TimePoint> pendingDue_;
    std::vector<sim::TimePoint> flightDue_;
    SharedBuf flight_;
    /// Attempt number of the in-flight append (replies of older attempts are
    /// dropped) and the container it reached, or null before it reaches one.
    uint64_t flightGeneration_ = 0;
    segmentstore::SegmentContainer* flightTarget_ = nullptr;
    uint64_t sent_ = 0, acked_ = 0, sentBytes_ = 0, retries_ = 0, digestSum_ = 0;
    Samples ackLatency_;
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

// ---------------------------------------------------------- rep result

/// Everything one repetition of a workload produces.
struct RepResult {
    /// Deterministic end-to-end values (virtual time and counts).
    std::map<std::string, double> modelled;
    /// Deterministic facts that must repeat exactly across same-seed reps
    /// (checksums, counts); main() compares them across repetitions.
    std::map<std::string, double> fingerprint;
    double wallS = 0;
    double setupS = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;
    /// Per-layer values (counters, ratios, host times).
    std::map<std::string, double> layer;
    std::vector<Slice> slices;
};

/// Fills `r.layer` with the per-layer metrics readable from the cluster's
/// merged registry and the repetition context.
void collectLayers(cluster::PravegaCluster& c, const Ctx& ctx, RepResult& r);

/// Per-container ingest snapshot. `bytesSince` attributes the bytes each
/// container took in since the snapshot to its current owner store.
class StoreLoad {
public:
    using PerStore = std::map<segmentstore::SegmentStore*, uint64_t>;

    explicit StoreLoad(cluster::PravegaCluster& c);
    PerStore bytesSince(cluster::PravegaCluster& c) const;
    /// Max over min of the per-store byte counts.
    static double maxMinRatio(const PerStore& load);

private:
    std::map<uint32_t, uint64_t> snap_;
};

/// Per-workload entry points.
RepResult runIngestTail(uint64_t seed, Ctx& ctx);
RepResult runCatchupRead(uint64_t seed, Ctx& ctx);
RepResult runFleetSkew(uint64_t seed, Ctx& ctx);

}  // namespace perfbench
