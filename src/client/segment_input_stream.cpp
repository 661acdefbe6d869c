#include "client/segment_input_stream.h"

#include "client/framing.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace pravega::client {

SegmentInputStream::SegmentInputStream(sim::Core& exec, sim::Network& net,
                                       sim::HostId clientHost, controller::SegmentUri uri,
                                       int64_t startOffset, ReaderConfig cfg,
                                       std::function<void()> onData)
    : exec_(exec),
      net_(net),
      clientHost_(clientHost),
      uri_(std::move(uri)),
      cfg_(cfg),
      onData_(std::move(onData)),
      bufferStart_(startOffset),
      fetchOffset_(startOffset),
      alive_(std::make_shared<bool>(true)) {
    ensureFetching();
}

SegmentInputStream::~SegmentInputStream() { *alive_ = false; }

std::optional<Bytes> SegmentInputStream::readNextEvent() {
    if (failed_) return std::nullopt;  // a failed stream stays failed
    uint32_t len = 0;
    DecodeStatus st = peekEvent(buffer_, len);
    if (st == DecodeStatus::Corrupt) {
        // A length prefix above the protocol bound means the stream is
        // desynchronized or the frame is damaged — retrying or resizing the
        // fetch cannot fix it, so fail the stream instead of looping.
        failed_ = true;
        exec_.metrics().counter("client.frame.corrupt").inc();
        PLOG_WARN("reader", "corrupt event frame at offset %lld (len=%u)",
                  static_cast<long long>(bufferStart_), len);
        if (onData_) onData_();
        return std::nullopt;
    }
    if (st != DecodeStatus::Ok) {
        ensureFetching();
        return std::nullopt;
    }
    Bytes out(len);
    buffer_.copyOut(kEventHeaderBytes, len, out.data());
    // Trim the consumed prefix immediately: buffered memory stays bounded
    // by the unconsumed backlog, never by total bytes read.
    buffer_.trimFront(kEventHeaderBytes + static_cast<size_t>(len));
    bufferStart_ += static_cast<int64_t>(kEventHeaderBytes) + len;
    if (buffer_.empty()) ensureFetching();
    return out;
}

void SegmentInputStream::ensureFetching() {
    if (fetching_ || endOfSegment_ || failed_) return;
    fetching_ = true;
    auto alive = alive_;
    net_.send(clientHost_, uri_.store->host(), sim::kWireOverheadBytes, [this, alive]() {
        if (!*alive) return;
        auto* container = uri_.store->container(uri_.containerId);
        if (!container) {
            failed_ = true;
            fetching_ = false;
            if (onData_) onData_();
            return;
        }
        uri_.store->chargeRequest(uri_.containerId, 0)
            .thenAsync([this, container](const sim::Unit&) {
            return container->read(uri_.record.id, fetchOffset_,
                                   static_cast<int64_t>(cfg_.fetchBytes));
        })
        .onComplete([this, alive](const Result<segmentstore::ReadResult>& r) {
            if (!*alive) return;
            uint64_t respBytes =
                sim::kWireOverheadBytes + (r.isOk() ? r.value().data.size() : 0);
            net_.send(uri_.store->host(), clientHost_, respBytes, [this, alive, r]() {
                if (!*alive) return;
                onFetchComplete(r);
            });
        });
    });
}

void SegmentInputStream::onFetchComplete(const Result<segmentstore::ReadResult>& r) {
    fetching_ = false;
    if (!r.isOk()) {
        // Container offline mid-read is transient during failover; retry.
        if (r.code() == Err::ContainerOffline || r.code() == Err::Timeout) {
            exec_.schedule(sim::msec(10), [this, alive = alive_]() {
                if (*alive) ensureFetching();
            });
            return;
        }
        failed_ = true;
        PLOG_WARN("reader", "segment read failed: %s", r.status().toString().c_str());
        if (onData_) onData_();
        return;
    }
    const auto& res = r.value();
    if (!res.data.empty()) {
        buffer_.appendCopy(BytesView(res.data));
        fetchOffset_ += static_cast<int64_t>(res.data.size());
    }
    if (res.endOfSegment) endOfSegment_ = true;
    if (onData_) onData_();
    // Keep the pipe primed for tail reads unless we are done or the buffer
    // already holds plenty of unparsed data.
    if (!endOfSegment_ && buffer_.size() < cfg_.fetchBytes) ensureFetching();
}

}  // namespace pravega::client
