#include "client/event_reader.h"

#include <algorithm>

#include "common/logging.h"

namespace pravega::client {

namespace {
constexpr const char* kLog = "event-reader";
}

EventReader::EventReader(sim::Core& exec, sim::Network& net, sim::HostId readerHost,
                         controller::Controller& controller, controller::SegmentUri syncUri,
                         std::string readerName, ReaderConfig cfg)
    : exec_(exec),
      net_(net),
      readerHost_(readerHost),
      controller_(controller),
      name_(std::move(readerName)),
      cfg_(cfg),
      sync_(exec, net, readerHost, std::move(syncUri)),
      alive_(std::make_shared<bool>(true)) {
    sync_.updateState([this](const ReaderGroupState&) {
             return std::optional<Bytes>(ReaderGroupState::makeAddReader(name_));
         })
        .onComplete([this, alive = alive_](const Result<bool>&) {
            if (*alive) rebalance();
        });
    syncTick();
}

EventReader::~EventReader() {
    *alive_ = false;
    closed_ = true;
    ++timerEpoch_;
}

void EventReader::syncTick() {
    uint64_t epoch = ++timerEpoch_;
    exec_.scheduleWeak(kSyncInterval, [this, epoch, alive = alive_]() {
        if (!*alive || closed_ || epoch != timerEpoch_) return;
        sync_.fetchUpdates().onComplete([this, alive](const Result<sim::Unit>&) {
            if (!*alive || closed_) return;
            rebalance();
            handleEndedSegments();
            syncTick();
        });
    });
}

void EventReader::rebalance() {
    if (updateInFlight_ || closed_) return;
    const ReaderGroupState& state = sync_.state();
    size_t mine = state.segmentsOwnedBy(name_);
    size_t share = state.fairShare();

    if (!state.unassigned.empty() && mine < share) {
        SegmentId target = state.unassigned.begin()->first;
        updateInFlight_ = true;
        auto offset = std::make_shared<int64_t>(0);
        sync_.updateState([this, target, offset](const ReaderGroupState& s)
                              -> std::optional<Bytes> {
                auto it = s.unassigned.find(target);
                if (it == s.unassigned.end()) return std::nullopt;
                if (s.segmentsOwnedBy(name_) >= s.fairShare()) return std::nullopt;
                *offset = it->second;
                return ReaderGroupState::makeAcquire(name_, target);
            })
            .onComplete([this, target, offset, alive = alive_](const Result<bool>& r) {
                if (!*alive) return;
                updateInFlight_ = false;
                if (r.isOk() && r.value()) {
                    openSegment(target, *offset);
                    rebalance();  // maybe acquire more
                }
            });
        return;
    }

    if (mine > share && !streams_.empty()) {
        // Give a segment back for fairness: pick one that is not mid-
        // completion, freeze reads from it, and release at its position.
        for (auto& [seg, stream] : streams_) {
            if (releasing_.contains(seg) || completing_.contains(seg)) continue;
            SegmentId target = seg;
            int64_t position = stream->position();
            releasing_.insert(target);
            updateInFlight_ = true;
            sync_.updateState([this, target, position](const ReaderGroupState& s)
                                  -> std::optional<Bytes> {
                    auto it = s.assignments.find(name_);
                    if (it == s.assignments.end() || !it->second.contains(target)) {
                        return std::nullopt;
                    }
                    if (it->second.size() <= s.fairShare()) return std::nullopt;
                    return ReaderGroupState::makeRelease(name_, target, position);
                })
                .onComplete([this, target, alive = alive_](const Result<bool>& r) {
                    if (!*alive) return;
                    updateInFlight_ = false;
                    releasing_.erase(target);
                    if (r.isOk() && r.value()) streams_.erase(target);
                });
            return;
        }
    }
}

void EventReader::openSegment(SegmentId segment, int64_t offset) {
    auto uri = controller_.uriOf(segment);
    if (!uri) {
        PLOG_WARN(kLog, "%s cannot resolve segment %llu: %s", name_.c_str(),
                  static_cast<unsigned long long>(segment), uri.status().toString().c_str());
        return;
    }
    streams_[segment] = std::make_unique<SegmentInputStream>(
        exec_, net_, readerHost_, uri.value(), offset, cfg_, [this]() { onData(); });
}

bool EventReader::deliverBuffered(sim::Promise<EventRead>& promise) {
    auto event = pollEvent();
    if (!event) return false;
    promise.setValue(std::move(*event));
    return true;
}

std::optional<EventRead> EventReader::pollEvent() {
    if (streams_.empty()) return std::nullopt;
    // Round-robin over assigned segments, starting after the last served.
    auto start = streams_.upper_bound(rrLast_);
    for (size_t i = 0; i < streams_.size(); ++i) {
        if (start == streams_.end()) start = streams_.begin();
        SegmentId seg = start->first;
        SegmentInputStream* stream = start->second.get();
        ++start;
        if (releasing_.contains(seg)) continue;
        auto payload = stream->readNextEvent();
        if (payload) {
            rrLast_ = seg;
            ++eventsRead_;
            exec_.metrics().counter("client.reader.events").inc();
            return EventRead{std::move(*payload), seg, stream->position()};
        }
    }
    return std::nullopt;
}

sim::Future<EventRead> EventReader::readNextEvent() {
    assert(!waiting_ && "one outstanding readNextEvent at a time");
    sim::Promise<EventRead> promise;
    auto fut = promise.future();
    if (closed_) {
        promise.setError(Err::Cancelled, "reader closed");
        return fut;
    }
    if (deliverBuffered(promise)) return fut;
    handleEndedSegments();
    waiting_.emplace(std::move(promise));
    waitStart_ = exec_.now();
    return fut;
}

void EventReader::onData() {
    if (waiting_) {
        auto promise = std::move(*waiting_);
        waiting_.reset();
        if (!deliverBuffered(promise)) {
            waiting_.emplace(std::move(promise));
        } else {
            // Tail-read dispatch: how long a parked reader waited for new
            // data to arrive and wake it (§4.2 read side).
            exec_.metrics()
                .histogram("trace.read.0_dispatch_ns")
                .record(exec_.now() - waitStart_);
        }
    }
    handleEndedSegments();
}

void EventReader::handleEndedSegments() {
    if (closed_) return;
    for (auto& [seg, stream] : streams_) {
        if (!stream->endOfSegment() || completing_.contains(seg) || releasing_.contains(seg)) {
            continue;
        }
        completing_.insert(seg);
        SegmentId segment = seg;

        // Fetch successors; they appear only once the scale event commits,
        // so retry while the stream reports a scale in progress (§3.3).
        auto successors = controller_.getSuccessors(segment);
        std::vector<controller::SuccessorRecord> succ =
            successors ? successors.value() : std::vector<controller::SuccessorRecord>{};
        if (succ.empty()) {
            auto streamName = controller_.streamOf(segment);
            bool scalePending =
                streamName.isOk() && controller_.isScaling(streamName.value());
            if (scalePending) {
                completing_.erase(segment);
                exec_.schedule(sim::msec(5), [this, alive = alive_]() {
                    if (*alive) handleEndedSegments();
                });
                return;
            }
        }
        sync_.updateState([this, segment, succ](const ReaderGroupState& s)
                              -> std::optional<Bytes> {
                auto it = s.assignments.find(name_);
                if (it == s.assignments.end() || !it->second.contains(segment)) {
                    return std::nullopt;
                }
                return ReaderGroupState::makeCompleted(name_, segment, succ);
            })
            .onComplete([this, segment, alive = alive_](const Result<bool>&) {
                if (!*alive) return;
                completing_.erase(segment);
                streams_.erase(segment);
                rebalance();
                handleEndedSegments();
            });
        return;  // streams_ may mutate; re-entered via the completion
    }
}

void EventReader::close() {
    if (closed_) return;
    closed_ = true;
    ++timerEpoch_;
    // Release every segment at its current position, then deregister.
    std::vector<std::pair<SegmentId, int64_t>> positions;
    for (auto& [seg, stream] : streams_) positions.emplace_back(seg, stream->position());
    auto releaseAll = [this, positions](const ReaderGroupState&) -> std::optional<Bytes> {
        (void)positions;
        return ReaderGroupState::makeRemoveReader(name_);
    };
    // Releases first so offsets are preserved, then removal.
    for (const auto& [seg, off] : positions) {
        sync_.updateState([this, seg = seg, off = off](const ReaderGroupState& s)
                              -> std::optional<Bytes> {
            auto it = s.assignments.find(name_);
            if (it == s.assignments.end() || !it->second.contains(seg)) return std::nullopt;
            return ReaderGroupState::makeRelease(name_, seg, off);
        });
    }
    sync_.updateState(releaseAll);
    streams_.clear();
    if (waiting_) {
        waiting_->setError(Err::Cancelled, "reader closed");
        waiting_.reset();
    }
}

}  // namespace pravega::client
