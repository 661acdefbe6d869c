// Hardware models for the discrete-event substrate.
//
// These stand in for the paper's AWS testbed (§5.1): NVMe journal drives
// (DiskModel), the 10GbE network between clients and servers (Link), server
// CPUs (CpuModel), and EFS/S3 long-term storage (ObjectStoreModel). Each
// model turns a request into a virtual-time completion; all algorithmic
// behaviour (batching, multiplexing, tiering) lives above this layer.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/machine.h"
#include "sim/future.h"
#include "sim/random.h"
#include "sim/time.h"

namespace pravega::sim {

/// A resource with `lanes` parallel servers and FIFO queueing: requests of
/// a given duration occupy the earliest-free lane. Lanes model, e.g.,
/// parallel connections to an object store.
class QueuedResource {
public:
    QueuedResource(Core& exec, int lanes);

    /// Occupies a lane for `work` time; the future completes when done.
    Future<Unit> acquire(Duration work);

    /// Earliest time a new request could start (for monitoring/backpressure).
    TimePoint earliestStart() const;

    /// Total queued-but-unfinished work (for backpressure decisions).
    Duration backlog() const;

private:
    Core& exec_;
    std::vector<TimePoint> laneFree_;
};

/// An NVMe-like drive with a serialized write head, per-write base cost,
/// fsync cost, and a penalty for switching between log files. The switch
/// penalty is what makes "one log file per partition" designs (Kafka-like)
/// degrade at high partition counts (§5.6) while multiplexed designs
/// (Pravega segment containers, BookKeeper journals) stay efficient.
class DiskModel {
public:
    struct Config {
        double bytesPerSec = 800.0 * 1024 * 1024;  // measured via dd in the paper
        Duration writeLatency = usec(15);          // per-IO submission overhead
        Duration fsyncLatency = usec(50);          // durable-flush cost
        Duration fileSwitchPenalty = usec(150);    // cost of targeting a different file
    };

    DiskModel(Core& exec, Config cfg);

    /// Appends `bytes` to file `fileId`; `fsync` makes the write durable
    /// before completion. Writes are serialized at the device.
    Future<Unit> write(uint64_t fileId, uint64_t bytes, bool fsync);

    /// Device utilization probe: time the head is booked into the future.
    Duration backlog() const { return std::max<Duration>(0, nextFree_ - exec_.now()); }

    uint64_t bytesWritten() const { return bytesWritten_; }
    const Config& config() const { return cfg_; }

private:
    Core& exec_;
    Config cfg_;
    TimePoint nextFree_ = 0;
    uint64_t lastFile_ = UINT64_MAX;
    uint64_t bytesWritten_ = 0;
    // World-aggregate device metrics (all disks of one executor share them).
    obs::Counter& mWrites_;
    obs::Counter& mBytes_;
    obs::Counter& mFsyncs_;
    obs::Counter& mBusyNs_;
    obs::LatencyHistogram& mWriteNs_;
    obs::LatencyHistogram& mQueueNs_;
};

/// One direction of a network link: propagation latency plus serialization
/// at the link bandwidth. Each Link is point-to-point (client NIC → server
/// NIC); messages on the same link queue behind each other.
///
/// Links carry per-direction fault state for the chaos layer: a partition
/// drops every message, probabilistic loss drops a seeded random subset,
/// `dropNext(n)` drops exactly the next n messages (deterministic tests),
/// and a degradation window adds latency and scales down bandwidth until a
/// virtual-time deadline. Dropped messages simply never deliver — the
/// sender learns nothing, exactly like a real packet blackhole.
class Link {
public:
    struct Config {
        Duration latency = usec(250);                 // one-way propagation (intra-AZ)
        double bytesPerSec = 1.25 * 1024 * 1024 * 1024;  // 10 Gbps
    };

    /// Why a message was dropped, per fault kind. Chaos tests assert on
    /// these to know WHICH fault ate the traffic (not just that one did).
    struct DropCounts {
        uint64_t partition = 0;  // hard partition
        uint64_t forced = 0;     // dropNext() deterministic injection
        uint64_t loss = 0;       // probabilistic loss
        uint64_t total() const { return partition + forced + loss; }
    };

    Link(Core& exec, Config cfg, uint64_t faultSeed = 0x11C4C11ULL);

    /// Endpoint label ("<from>-><to>") for per-link registry counters;
    /// set by Network when it creates the link.
    void setLabel(std::string label) { label_ = std::move(label); }
    const std::string& label() const { return label_; }

    /// Delivers `fn` on the far side after transfer of `bytes`.
    void deliver(uint64_t bytes, Core::Task fn);

    // ---- fault controls (chaos layer) ----------------------------------
    void setPartitioned(bool on) { partitioned_ = on; }
    bool partitioned() const { return partitioned_; }
    /// Probability in [0,1] that any single message is dropped.
    void setLossProbability(double p) { lossProbability_ = p; }
    /// Drops exactly the next `n` messages (deterministic fault injection).
    void dropNext(int n) { dropNext_ += n; }
    /// Until `duration` from now, adds `extraLatency` to propagation and
    /// multiplies bandwidth by `bandwidthFactor` (in (0, 1]).
    void degrade(Duration extraLatency, double bandwidthFactor, Duration duration);
    void clearFaults();

    uint64_t bytesSent() const { return bytesSent_; }
    uint64_t droppedMessages() const { return drops_.total(); }
    const DropCounts& drops() const { return drops_; }

private:
    void recordDrop(uint64_t DropCounts::*kind, const char* kindName);

    Core& exec_;
    Config cfg_;
    TimePoint nextFree_ = 0;
    uint64_t bytesSent_ = 0;
    std::string label_;

    // Fault state.
    bool partitioned_ = false;
    double lossProbability_ = 0.0;
    int dropNext_ = 0;
    Duration degradeExtraLatency_ = 0;
    double degradeBandwidthFactor_ = 1.0;
    TimePoint degradeUntil_ = 0;
    Rng faultRng_;
    DropCounts drops_;

    // World-aggregate link metrics.
    obs::Counter& mMessages_;
    obs::Counter& mBytes_;
    obs::LatencyHistogram& mQueueNs_;
};

/// A server CPU with `cores` parallel execution lanes. Request handling
/// costs (per request + per byte) queue here; saturation produces the
/// latency blow-ups seen at each system's maximum throughput.
class CpuModel {
public:
    struct Config {
        int cores = 16;
        Duration perRequest = usec(12);    // protocol handling / syscalls
        double bytesPerSec = 4.0 * 1024 * 1024 * 1024;  // memcpy/checksum rate
    };

    CpuModel(Core& exec, Config cfg) : res_(exec, cfg.cores), cfg_(cfg) {}

    /// Charges the cost of handling one request carrying `bytes`.
    Future<Unit> execute(uint64_t bytes) {
        return res_.acquire(cfg_.perRequest + transferTime(bytes, cfg_.bytesPerSec));
    }

    /// Charges an explicit amount of CPU work.
    Future<Unit> executeFor(Duration d) { return res_.acquire(d); }

    Duration backlog() const { return res_.backlog(); }

private:
    QueuedResource res_;
    Config cfg_;
};

/// Cloud object/file store (EFS, S3): high per-op latency, a per-stream
/// throughput cap, and a higher aggregate cap reachable only with parallel
/// transfers — exactly the property Pravega's parallel chunk reads exploit
/// in §5.7 and that bottlenecks single-segment writes in §5.4.
class ObjectStoreModel {
public:
    struct Config {
        Duration opLatency = msec(8);
        double perStreamBytesPerSec = 160.0 * 1024 * 1024;  // paper: ~160 MB/s/transfer
        double aggregateBytesPerSec = 800.0 * 1024 * 1024;
        int maxConcurrent = 64;
    };

    ObjectStoreModel(Core& exec, Config cfg);

    Future<Unit> put(uint64_t bytes) { return transfer(bytes); }
    Future<Unit> get(uint64_t bytes) { return transfer(bytes); }

    uint64_t bytesTransferred() const { return bytesTransferred_; }

    /// Estimated seconds of queued work (drives ingest throttling, §4.3).
    double backlogSeconds() const;

private:
    Future<Unit> transfer(uint64_t bytes);

    Core& exec_;
    Config cfg_;
    QueuedResource lanes_;
    TimePoint aggCursor_ = 0;  // virtual finish line of the shared pipe
    uint64_t bytesTransferred_ = 0;
    obs::Counter& mOps_;
    obs::Counter& mBytes_;
    obs::LatencyHistogram& mOpNs_;
    obs::Gauge& mBacklogSec_;
};

/// Cold archive store (TALICS³-style tape library): a small pool of drives
/// serves a large set of cartridges. An access whose cartridge is not
/// already mounted on a drive pays a mount penalty (robot exchange + load +
/// thread), then a seek to position, then streams at tape bandwidth — the
/// deep-read first-byte latency profile that distinguishes an archive tier
/// from object storage. Drives are modeled like QueuedResource lanes but
/// keep per-drive mounted-cartridge state so cartridge affinity is real:
/// back-to-back reads of the same cartridge pay one mount.
class TapeLibraryModel {
public:
    static constexpr int kDrives = 2;
    static constexpr int kCartridges = 16;
    /// Robot exchange + load + thread time on a cartridge switch.
    static constexpr Duration kMountLatency = msec(400);
    /// Position seek charged on every access (tape wind).
    static constexpr Duration kSeekLatency = msec(60);
    static constexpr double kBytesPerSec = 120.0 * 1024 * 1024;  // LTO-class streaming rate

    explicit TapeLibraryModel(Core& exec);

    /// Charges one access of `bytes` against cartridge `cartridge`
    /// (hashed into the library's cartridge set). Completes when the
    /// transfer finishes; first-byte latency = queue + mount? + seek.
    Future<Unit> access(uint64_t cartridge, uint64_t bytes);

    uint64_t mounts() const { return mounts_; }
    uint64_t bytesTransferred() const { return bytesTransferred_; }

private:
    struct Drive {
        int64_t mounted = -1;  // cartridge id, -1 = empty
        TimePoint freeAt = 0;
    };

    Core& exec_;
    std::vector<Drive> drives_;
    uint64_t mounts_ = 0;
    uint64_t bytesTransferred_ = 0;
    obs::Counter& mOps_;
    obs::Counter& mMounts_;
    obs::Counter& mBytes_;
    obs::LatencyHistogram& mAccessNs_;
    obs::LatencyHistogram& mFirstByteNs_;
};

}  // namespace pravega::sim
