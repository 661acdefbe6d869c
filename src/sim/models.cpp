#include "sim/models.h"

#include <algorithm>
#include <cassert>

namespace pravega::sim {

QueuedResource::QueuedResource(Core& exec, int lanes) : exec_(exec) {
    assert(lanes > 0);
    laneFree_.assign(static_cast<size_t>(lanes), 0);
}

TimePoint QueuedResource::earliestStart() const {
    TimePoint earliest = laneFree_[0];
    for (TimePoint t : laneFree_) earliest = std::min(earliest, t);
    return std::max(earliest, exec_.now());
}

Duration QueuedResource::backlog() const {
    Duration total = 0;
    for (TimePoint t : laneFree_) total += std::max<Duration>(0, t - exec_.now());
    return total;
}

Future<Unit> QueuedResource::acquire(Duration work) {
    size_t best = 0;
    for (size_t i = 1; i < laneFree_.size(); ++i) {
        if (laneFree_[i] < laneFree_[best]) best = i;
    }
    TimePoint start = std::max(laneFree_[best], exec_.now());
    TimePoint done = start + work;
    laneFree_[best] = done;

    Promise<Unit> p;
    exec_.schedule(done - exec_.now(), [p]() mutable { p.setValue(Unit{}); });
    return p.future();
}

DiskModel::DiskModel(Core& exec, Config cfg)
    : exec_(exec),
      cfg_(cfg),
      mWrites_(exec.metrics().counter("sim.disk.writes")),
      mBytes_(exec.metrics().counter("sim.disk.bytes")),
      mFsyncs_(exec.metrics().counter("sim.disk.fsyncs")),
      mBusyNs_(exec.metrics().counter("sim.disk.busy_ns")),
      mWriteNs_(exec.metrics().histogram("sim.disk.write_ns")),
      mQueueNs_(exec.metrics().histogram("sim.disk.queue_ns")) {}

Future<Unit> DiskModel::write(uint64_t fileId, uint64_t bytes, bool fsync) {
    Duration work = cfg_.writeLatency + transferTime(bytes, cfg_.bytesPerSec);
    if (fileId != lastFile_) work += cfg_.fileSwitchPenalty;
    if (fsync) work += cfg_.fsyncLatency;
    lastFile_ = fileId;
    bytesWritten_ += bytes;

    TimePoint start = std::max(nextFree_, exec_.now());
    nextFree_ = start + work;

    mWrites_.inc();
    mBytes_.inc(bytes);
    if (fsync) mFsyncs_.inc();
    mBusyNs_.inc(static_cast<uint64_t>(work));  // busy_ns / elapsed = utilization
    mQueueNs_.record(start - exec_.now());
    mWriteNs_.record(nextFree_ - exec_.now());

    Promise<Unit> p;
    exec_.schedule(nextFree_ - exec_.now(), [p]() mutable { p.setValue(Unit{}); });
    return p.future();
}

Link::Link(Core& exec, Config cfg, uint64_t faultSeed)
    : exec_(exec),
      cfg_(cfg),
      faultRng_(faultSeed),
      mMessages_(exec.metrics().counter("sim.net.messages")),
      mBytes_(exec.metrics().counter("sim.net.bytes")),
      mQueueNs_(exec.metrics().histogram("sim.net.queue_ns")) {}

void Link::recordDrop(uint64_t DropCounts::*kind, const char* kindName) {
    ++(drops_.*kind);
    auto& m = exec_.metrics();
    m.counter(std::string("net.drop.") + kindName).inc();
    if (!label_.empty()) {
        m.counter("net.link." + label_ + ".drop." + kindName).inc();
    }
}

void Link::deliver(uint64_t bytes, Core::Task fn) {
    if (partitioned_) {
        recordDrop(&DropCounts::partition, "partition");
        return;
    }
    if (dropNext_ > 0) {
        --dropNext_;
        recordDrop(&DropCounts::forced, "forced");
        return;
    }
    if (lossProbability_ > 0 && faultRng_.nextDouble() < lossProbability_) {
        recordDrop(&DropCounts::loss, "loss");
        return;
    }
    double bps = cfg_.bytesPerSec;
    Duration latency = cfg_.latency;
    if (exec_.now() < degradeUntil_) {
        bps *= degradeBandwidthFactor_;
        latency += degradeExtraLatency_;
    }
    TimePoint start = std::max(nextFree_, exec_.now());
    nextFree_ = start + transferTime(bytes, bps);
    bytesSent_ += bytes;
    mMessages_.inc();
    mBytes_.inc(bytes);
    mQueueNs_.record(start - exec_.now());
    TimePoint arrive = nextFree_ + latency;
    exec_.schedule(arrive - exec_.now(), std::move(fn));
}

void Link::degrade(Duration extraLatency, double bandwidthFactor, Duration duration) {
    degradeExtraLatency_ = extraLatency;
    degradeBandwidthFactor_ = bandwidthFactor > 0 ? bandwidthFactor : 1.0;
    degradeUntil_ = exec_.now() + duration;
}

void Link::clearFaults() {
    partitioned_ = false;
    lossProbability_ = 0.0;
    dropNext_ = 0;
    degradeExtraLatency_ = 0;
    degradeBandwidthFactor_ = 1.0;
    degradeUntil_ = 0;
}

ObjectStoreModel::ObjectStoreModel(Core& exec, Config cfg)
    : exec_(exec),
      cfg_(cfg),
      lanes_(exec, cfg.maxConcurrent),
      mOps_(exec.metrics().counter("sim.lts.ops")),
      mBytes_(exec.metrics().counter("sim.lts.bytes")),
      mOpNs_(exec.metrics().histogram("sim.lts.op_ns")),
      mBacklogSec_(exec.metrics().gauge("sim.lts.backlog_sec")) {}

Future<Unit> ObjectStoreModel::transfer(uint64_t bytes) {
    bytesTransferred_ += bytes;
    // Per-stream time for this transfer...
    Duration streamTime = cfg_.opLatency + transferTime(bytes, cfg_.perStreamBytesPerSec);
    // ...but the shared pipe also advances; when many transfers run in
    // parallel the aggregate cap dominates and transfers queue behind it.
    TimePoint aggStart = std::max(aggCursor_, exec_.now());
    aggCursor_ = aggStart + transferTime(bytes, cfg_.aggregateBytesPerSec);

    Duration laneWork = std::max(streamTime, aggCursor_ - exec_.now());
    mOps_.inc();
    mBytes_.inc(bytes);
    mOpNs_.record(laneWork);
    mBacklogSec_.set(backlogSeconds());
    return lanes_.acquire(laneWork);
}

TapeLibraryModel::TapeLibraryModel(Core& exec)
    : exec_(exec),
      drives_(kDrives),
      mOps_(exec.metrics().counter("sim.tape.ops")),
      mMounts_(exec.metrics().counter("sim.tape.mounts")),
      mBytes_(exec.metrics().counter("sim.tape.bytes")),
      mAccessNs_(exec.metrics().histogram("sim.tape.access_ns")),
      mFirstByteNs_(exec.metrics().histogram("sim.tape.first_byte_ns")) {}

Future<Unit> TapeLibraryModel::access(uint64_t cartridge, uint64_t bytes) {
    int64_t cart = static_cast<int64_t>(cartridge % kCartridges);
    // Prefer the drive that already has this cartridge mounted; otherwise
    // the earliest-free drive (deterministic: lowest index wins ties).
    size_t best = 0;
    bool affinity = false;
    for (size_t i = 0; i < drives_.size(); ++i) {
        if (drives_[i].mounted == cart) {
            best = i;
            affinity = true;
            break;
        }
        if (drives_[i].freeAt < drives_[best].freeAt) best = i;
    }
    Drive& d = drives_[best];
    TimePoint start = std::max(d.freeAt, exec_.now());
    Duration firstByte = kSeekLatency;
    if (!affinity) {
        firstByte += kMountLatency;
        d.mounted = cart;
        ++mounts_;
        mMounts_.inc();
    }
    TimePoint done = start + firstByte + transferTime(bytes, kBytesPerSec);
    d.freeAt = done;
    bytesTransferred_ += bytes;
    mOps_.inc();
    mBytes_.inc(bytes);
    mFirstByteNs_.record(start + firstByte - exec_.now());
    mAccessNs_.record(done - exec_.now());

    Promise<Unit> p;
    exec_.schedule(done - exec_.now(), [p]() mutable { p.setValue(Unit{}); });
    return p.future();
}

double ObjectStoreModel::backlogSeconds() const {
    Duration aggLag = std::max<Duration>(0, aggCursor_ - exec_.now());
    return toSeconds(std::max(aggLag, lanes_.backlog() / std::max(1, cfg_.maxConcurrent)));
}

}  // namespace pravega::sim
