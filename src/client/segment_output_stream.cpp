#include "client/segment_output_stream.h"

#include <algorithm>
#include <cassert>

#include "client/framing.h"
#include "common/logging.h"

namespace pravega::client {

namespace {
constexpr const char* kLog = "writer";
}

SegmentOutputStream::SegmentOutputStream(sim::Core& exec, sim::Network& net,
                                         sim::HostId clientHost,
                                         segmentstore::SegmentStore* store, uint32_t containerId,
                                         SegmentId segment, WriterId writerId, WriterConfig cfg,
                                         SealedHandler onSealed)
    : exec_(exec),
      net_(net),
      clientHost_(clientHost),
      store_(store),
      containerId_(containerId),
      segment_(segment),
      writerId_(writerId),
      cfg_(cfg),
      onSealed_(std::move(onSealed)),
      alive_(std::make_shared<bool>(true)),
      rttEstimateNs_(static_cast<double>(kInitialRttGuess)),
      mBlocks_(exec.metrics().counter("client.writer.blocks")),
      mEvents_(exec.metrics().counter("client.writer.events")),
      mBlockBytes_(exec.metrics().histogram("client.writer.block_bytes")),
      mBatchWaitNs_(exec.metrics().histogram("trace.write.0_client_batch_wait_ns")),
      mRttNs_(exec.metrics().histogram("client.writer.rtt_ns")) {
    // SetupAppend handshake: fetch the last event number recorded for this
    // writer id so a resumed writer continues from the right place (§3.2).
    setupDone_ = false;
    net_.send(clientHost_, store_->host(), sim::kWireOverheadBytes, [this, alive = alive_]() {
        if (!*alive) return;
        auto* container = store_->container(containerId_);
        int64_t last = container
                           ? container->getWriterLastEventNumber(segment_, writerId_)
                           : segmentstore::AttributeIndex::kNullValue;
        net_.send(store_->host(), clientHost_, sim::kWireOverheadBytes, [this, alive, last]() {
            if (!*alive) return;
            nextEventNumber_ =
                last == segmentstore::AttributeIndex::kNullValue ? 0 : last + 1;
            setupDone_ = true;
            trySend();
        });
    });
}

SegmentOutputStream::~SegmentOutputStream() { *alive_ = false; }

void SegmentOutputStream::write(BytesView payload, double keyHash, EventAck ack) {
    if (sealedSeen_) {
        // The owner is re-routing; new writes should not land here.
        if (ack) ack(Status(Err::Sealed, "segment sealed"));
        return;
    }
    if (open_.events.empty()) open_.openedAt = exec_.now();
    encodeEvent(open_.data, payload);
    open_.events.push_back(EventRecord{static_cast<uint32_t>(payload.size()), keyHash,
                                       std::move(ack)});

    // Input-rate EWMA (bytes/s) for the batch-size estimate.
    sim::TimePoint now = exec_.now();
    if (lastEventAt_ > 0 && now > lastEventAt_) {
        double instRate = static_cast<double>(payload.size() + kEventHeaderBytes) /
                          sim::toSeconds(now - lastEventAt_);
        inputRateBytesPerSec_ = inputRateBytesPerSec_ * 0.95 + instRate * 0.05;
    }
    lastEventAt_ = now;

    maybeCloseBlock();
}

uint64_t SegmentOutputStream::batchSizeEstimate() const {
    // §4.1: "the batch size is estimated as the minimum between the defined
    // maximum batch size and half the server round trip time" (i.e., the
    // bytes that arrive in RTT/2 at the current input rate).
    double halfRttSec = rttEstimateNs_ / 2.0 / 1e9;
    double bytesInHalfRtt = inputRateBytesPerSec_ * halfRttSec;
    return std::min<uint64_t>(kMaxBatchBytes,
                              std::max<uint64_t>(1, static_cast<uint64_t>(bytesInHalfRtt)));
}

void SegmentOutputStream::maybeCloseBlock() {
    if (open_.data.size() >= batchSizeEstimate()) {
        closeBlock();
        return;
    }
    if (!closeTimerArmed_) {
        closeTimerArmed_ = true;
        uint64_t epoch = ++closeTimerEpoch_;
        sim::Duration wait = std::min<sim::Duration>(
            kMaxBatchTime, static_cast<sim::Duration>(rttEstimateNs_ / 2.0));
        exec_.schedule(std::max<sim::Duration>(wait, 1), [this, alive = alive_, epoch]() {
            if (!*alive) return;
            if (epoch != closeTimerEpoch_) return;
            closeTimerArmed_ = false;
            if (!open_.events.empty()) closeBlock();
        });
    }
}

void SegmentOutputStream::closeBlock() {
    closeTimerArmed_ = false;
    ++closeTimerEpoch_;
    if (open_.events.empty()) return;
    // Event numbers are NOT assigned here: the SetupAppend handshake may
    // still be in flight, and numbering must start after the server's last
    // recorded event number (§3.2). sendBlock() numbers each block exactly
    // once, in send order, after setup completes.
    open_.payload = SharedBuf(std::move(open_.data));  // freeze: move, not copy
    sendQueue_.push_back(std::move(open_));
    open_ = Block{};
    trySend();
}

void SegmentOutputStream::flush() {
    if (!open_.events.empty()) closeBlock();
}

void SegmentOutputStream::trySend() {
    // Flow control: the outstanding window is how server-side backpressure
    // (WAL latency, LTS throttling) propagates into client-side queueing.
    while (setupDone_ && !sendQueue_.empty() &&
           outstandingBytes_ < cfg_.maxOutstandingBytes) {
        Block block = std::move(sendQueue_.front());
        sendQueue_.pop_front();
        sendBlock(std::move(block));
    }
}

void SegmentOutputStream::sendBlock(Block block) {
    uint64_t wireBytes = block.payload.size() + sim::kWireOverheadBytes;
    outstandingBytes_ += wireBytes;
    block.sentAt = exec_.now();
    if (block.lastEventNumber < 0) {
        // First transmission only (not a retransmit): trace how long the
        // batch accumulated before hitting the wire.
        mBlocks_.inc();
        mEvents_.inc(block.events.size());
        mBlockBytes_.record(static_cast<sim::Duration>(block.payload.size()));
        mBatchWaitNs_.record(block.sentAt - block.openedAt);
        // Number the block's events. Retransmitted blocks keep their
        // numbers so the server can dedup them.
        block.lastEventNumber =
            nextEventNumber_ + static_cast<int64_t>(block.events.size()) - 1;
        nextEventNumber_ = block.lastEventNumber + 1;
    }

    SharedBuf payload = block.payload;  // shared ref; retained for retransmit
    int64_t lastEventNumber = block.lastEventNumber;
    uint32_t eventCount = static_cast<uint32_t>(block.events.size());
    uint64_t epoch = connectionEpoch_;
    inFlight_.push_back(std::move(block));

    auto deliverAck = [this, alive = alive_, epoch, wireBytes](const Result<int64_t>& r) {
        if (!*alive) return;
        net_.send(store_->host(), clientHost_, sim::kWireOverheadBytes, [this, alive, epoch, r,
                                                                        wireBytes]() {
            if (!*alive) return;
            if (epoch != connectionEpoch_) return;  // stale connection
            outstandingBytes_ -= std::min(outstandingBytes_, wireBytes);
            assert(!inFlight_.empty());
            Block acked = std::move(inFlight_.front());
            inFlight_.pop_front();
            sim::TimePoint at = acked.sentAt;
            onBlockAck(std::move(acked), r, at);
        });
    };

    net_.send(clientHost_, store_->host(), wireBytes,
              [this, alive = alive_, payload, lastEventNumber, eventCount, deliverAck]() {
                  if (!*alive) return;
                  auto* container = store_->container(containerId_);
                  if (!container) {
                      deliverAck(Result<int64_t>(Err::ContainerOffline, "container moved"));
                      return;
                  }
                  // Capture ids by value: the server-side continuation may
                  // outlive this stream object.
                  SegmentId segment = segment_;
                  WriterId writer = writerId_;
                  store_->chargeRequest(containerId_, payload.size())
                      .thenAsync([container, payload, segment, writer, lastEventNumber,
                                  eventCount](const sim::Unit&) {
                          return container->append(segment, payload, writer,
                                                   lastEventNumber, eventCount);
                      })
                      .onComplete(deliverAck);
              });
}

void SegmentOutputStream::onBlockAck(Block block, const Result<int64_t>& result,
                                     sim::TimePoint sentAt) {
    double rttSample = static_cast<double>(exec_.now() - sentAt);
    rttEstimateNs_ = rttEstimateNs_ * 0.7 + rttSample * 0.3;
    mRttNs_.record(exec_.now() - sentAt);

    if (result.isOk()) {
        for (auto& e : block.events) {
            if (e.ack) e.ack(Status::ok());
        }
        trySend();
        return;
    }
    if (result.code() == Err::Sealed) {
        sealedSeen_ = true;
        ++connectionEpoch_;  // ignore acks for any later in-flight block
        handleSealed(std::move(block));
        return;
    }
    for (auto& e : block.events) {
        if (e.ack) e.ack(result.status());
    }
    trySend();
}

void SegmentOutputStream::handleSealed(Block first) {
    // Everything unacknowledged — this block, any block still on the wire
    // (all of which the sealed server will reject), queued blocks and the
    // open block — goes back to the owner for re-routing to the successors
    // in original order, preserving per-key order (§3.2).
    std::vector<ResendEvent> events;
    auto harvest = [&events](Block& b) {
        // Closed blocks were frozen into `payload`; only the open block
        // still accumulates in `data`.
        BytesView src = b.payload.empty() ? BytesView(b.data) : b.payload.view();
        size_t pos = 0;
        for (auto& e : b.events) {
            BytesView payload;
            ResendEvent re;
            if (decodeEventEx(src, pos, payload) == DecodeStatus::Ok) {
                re.payload.assign(payload.begin(), payload.end());
            }
            re.keyHash = e.keyHash;
            re.ack = std::move(e.ack);
            events.push_back(std::move(re));
        }
    };
    harvest(first);
    for (auto& b : inFlight_) harvest(b);
    inFlight_.clear();
    for (auto& b : sendQueue_) harvest(b);
    sendQueue_.clear();
    harvest(open_);
    open_ = Block{};
    outstandingBytes_ = 0;
    ++closeTimerEpoch_;
    closeTimerArmed_ = false;
    PLOG_DEBUG(kLog, "segment %llu sealed; re-routing %zu events",
               static_cast<unsigned long long>(segment_), events.size());
    if (onSealed_) onSealed_(segment_, std::move(events));
}

void SegmentOutputStream::simulateReconnect() {
    // Drop the connection: ignore in-flight acks, re-run the handshake and
    // retransmit everything unacknowledged. Server-side dedup (by writer id
    // and event number) turns retransmitted duplicates into no-op acks.
    ++connectionEpoch_;
    setupDone_ = false;
    while (!inFlight_.empty()) {
        sendQueue_.push_front(std::move(inFlight_.back()));
        inFlight_.pop_back();
    }
    outstandingBytes_ = 0;
    net_.send(clientHost_, store_->host(), sim::kWireOverheadBytes, [this, alive = alive_]() {
        if (!*alive) return;
        net_.send(store_->host(), clientHost_, sim::kWireOverheadBytes, [this, alive]() {
            if (!*alive) return;
            setupDone_ = true;
            trySend();
        });
    });
}

}  // namespace pravega::client
