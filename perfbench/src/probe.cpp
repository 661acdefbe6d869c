#include <algorithm>

#include "bench.h"
#include "client/framing.h"
#include "common/hash.h"

namespace perfbench {

namespace {
constexpr segmentstore::WriterId kProbeWriter = 0x9B0BE;
const sim::Duration kRetryDelay = sim::msec(1);
/// Request framing bytes on the wire, as the client library charges.
constexpr uint64_t kWireBytes = 64;
/// How often the writer and readers check whether the container holding
/// their outstanding request moved.
const sim::Duration kMoveWatchdog = sim::msec(20);
}  // namespace

SegmentProbe::SegmentProbe(cluster::PravegaCluster& c, Ctx& ctx, const PayloadPool& pool,
                           segmentstore::SegmentId segment, uint64_t seed)
    : c_(c), ctx_(ctx), pool_(pool), segment_(segment),
      containerId_(pravega::containerFor(segment, c.registry().containerCount())),
      rng_(seed), host_(c.newClientHost()) {
    watch();
}

SegmentProbe::~SegmentProbe() { *alive_ = false; }

segmentstore::SegmentContainer* SegmentProbe::container(segmentstore::SegmentStore** owner) {
    auto* store = c_.registry().ownerOf(containerId_);
    if (owner) *owner = store;
    return store ? store->container(containerId_) : nullptr;
}

void SegmentProbe::generate(double rate, sim::TimePoint until, sim::TimePoint sampleFrom) {
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

void SegmentProbe::emit() {
    {
        GenTimer timer(ctx_);
        EventHeader h;
        h.seq = sent_;
        h.due = nextDue_;
        uint64_t off = rng_.nextBounded((pool_.size() - kEventBytes) / 64) * 64;
        h.bodyHash = bodyHash(pool_.at(off), kEventBytes - EventHeader::kBytes);
        Bytes payload = makePayload(pool_, h, kEventBytes, off);
        client::encodeEvent(pending_, BytesView(payload));
        pendingDue_.push_back(h.due);
        digestSum_ += h.digest();
        ++sent_;
        sentBytes_ += kEventBytes;
    }
    if (!inFlight_) send();

    sim::Machine& m = c_.machine();
    nextDue_ += std::max<sim::Duration>(1, static_cast<sim::Duration>(rng_.nextExp(1e9 / rate_)));
    if (nextDue_ >= until_) {
        generating_ = false;
        return;
    }
    m.schedule(nextDue_ - m.now(), [this, alive = alive_]() {
        if (*alive) emit();
    });
}

void SegmentProbe::send() {
    if (!inFlight_) {
        if (pendingDue_.empty()) return;
        flight_ = SharedBuf(std::move(pending_));
        pending_.clear();
        flightDue_ = std::move(pendingDue_);
        pendingDue_.clear();
        inFlight_ = true;
    }
    // Event numbers are per event; an append carries the last one's.
    const auto lastEvent = static_cast<int64_t>(acked_ + flightDue_.size());
    const auto count = static_cast<uint32_t>(flightDue_.size());
    const uint64_t gen = ++flightGeneration_;
    flightTarget_ = nullptr;
    segmentstore::SegmentStore* owner = nullptr;
    if (container(&owner) == nullptr) {
        retryLater();
        return;
    }
    c_.network().send(host_, owner->host(), flight_.size() + kWireBytes, [this, alive = alive_,
                                                                          gen, owner, lastEvent,
                                                                          count]() {
        if (!*alive || gen != flightGeneration_) return;
        if (owner->container(containerId_) == nullptr) {  // moved while in transit
            retryLater();
            return;
        }
        owner->chargeRequest(containerId_, flight_.size())
            .thenAsync([this, alive, gen, owner, lastEvent, count](const sim::Unit&) {
                auto* target = *alive && gen == flightGeneration_
                                   ? owner->container(containerId_)
                                   : nullptr;
                if (target == nullptr) {
                    return sim::Future<int64_t>::failed(Status(Err::ContainerOffline, "moved"));
                }
                flightTarget_ = target;
                return target->append(segment_, flight_, kProbeWriter, lastEvent, count);
            })
            .onComplete([this, alive, gen, owner](const Result<int64_t>& r) {
                if (!*alive || gen != flightGeneration_) return;
                c_.network().send(owner->host(), host_, kWireBytes, [this, alive, gen, r]() {
                    if (*alive && gen == flightGeneration_) onAppendDone(r);
                });
            });
    });
}

void SegmentProbe::watch() {
    // A container that moves while it holds the append can drop the append's
    // completion, so it never fails; like a client whose connection to the
    // old owner drops, resend the same events to the new owner (the event
    // numbers make the container drop them if they were already appended).
    c_.machine().scheduleWeak(kMoveWatchdog, [this, alive = alive_]() {
        if (!*alive) return;
        if (inFlight_ && flightTarget_ != nullptr && container() != flightTarget_) {
            ++retries_;
            send();
        }
        watch();
    });
}

void SegmentProbe::retryLater() {
    ++retries_;
    c_.machine().schedule(kRetryDelay, [this, alive = alive_]() {
        if (*alive) send();
    });
}

void SegmentProbe::onAppendDone(const Result<int64_t>& r) {
    if (!r.isOk()) {
        retryLater();
        return;
    }
    {
        GenTimer timer(ctx_);
        sim::TimePoint now = c_.machine().now();
        for (sim::TimePoint due : flightDue_) {
            if (due >= sampleFrom_) ackLatency_.add(now - due);
        }
    }
    acked_ += flightDue_.size();
    inFlight_ = false;
    send();
}

SegmentProbe::Reader::Reader(SegmentProbe& probe, sim::TimePoint sampleFrom, int64_t maxBytes,
                             uint64_t watchEvents)
    : p_(probe), host_(probe.c_.newClientHost()), sampleFrom_(sampleFrom), maxBytes_(maxBytes),
      watchEvents_(watchEvents) {
    issue();
    watch();
}

SegmentProbe::Reader::~Reader() { *alive_ = false; }

void SegmentProbe::Reader::issue() {
    const uint64_t gen = ++generation_;
    segmentstore::SegmentStore* owner = nullptr;
    target_ = p_.container(&owner);
    if (target_ == nullptr) {
        p_.c_.machine().schedule(kRetryDelay, [this, alive = alive_, gen]() {
            if (*alive && gen == generation_) issue();
        });
        return;
    }
    p_.c_.network().send(host_, owner->host(), kWireBytes, [this, alive = alive_, gen, owner]() {
        if (!*alive || gen != generation_) return;
        if (owner->container(p_.containerId_) != target_) {  // moved while in transit
            issue();
            return;
        }
        target_->read(p_.segment_, offset_, maxBytes_)
            .onComplete([this, alive, gen, owner](const Result<segmentstore::ReadResult>& r) {
                if (!*alive || gen != generation_) return;
                uint64_t bytes = kWireBytes + (r.isOk() ? r.value().data.size() : 0);
                p_.c_.network().send(owner->host(), host_, bytes, [this, alive, gen, r]() {
                    if (*alive && gen == generation_) onRead(r);
                });
            });
    });
}

void SegmentProbe::Reader::watch() {
    // A read parked at the tail of a container that then moves never
    // completes; once the segment's container changes, reissue the read.
    p_.c_.machine().scheduleWeak(kMoveWatchdog, [this, alive = alive_]() {
        if (!*alive) return;
        if (target_ != nullptr && p_.container() != target_) issue();
        watch();
    });
}

void SegmentProbe::Reader::onRead(const Result<segmentstore::ReadResult>& r) {
    target_ = nullptr;
    if (!r.isOk()) {
        const uint64_t gen = generation_;
        p_.c_.machine().schedule(kRetryDelay, [this, alive = alive_, gen]() {
            if (*alive && gen == generation_) issue();
        });
        return;
    }
    {
        GenTimer timer(p_.ctx_);
        const Bytes& data = r.value().data;
        offset_ += static_cast<int64_t>(data.size());
        partial_.insert(partial_.end(), data.begin(), data.end());
        size_t pos = 0;
        BytesView buf(partial_);
        BytesView payload;
        sim::TimePoint now = p_.c_.machine().now();
        while (client::decodeEventEx(buf, pos, payload) == client::DecodeStatus::Ok) {
            EventHeader h;
            if (!parsePayload(payload, h)) {
                ++corrupt_;
                continue;
            }
            if (h.seq != nextSeq_) ++outOfOrder_;
            nextSeq_ = h.seq + 1;
            ++delivered_;
            deliveredBytes_ += payload.size();
            digestSum_ += h.digest();
            if (h.due >= sampleFrom_) latency_.add(now - h.due);
            if (delivered_ == watchEvents_) reachedAt_ = now;
        }
        partial_.erase(partial_.begin(), partial_.begin() + static_cast<std::ptrdiff_t>(pos));
    }
    issue();
}

}  // namespace perfbench
