// EventReader (§3.3): reads events from the segments assigned to it by the
// reader group, acquiring/releasing segments for fairness and following the
// successor protocol at scale boundaries.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "client/reader_group.h"
#include "client/segment_input_stream.h"
#include "client/state_synchronizer.h"

namespace pravega::client {

struct EventRead {
    Bytes payload;
    SegmentId segment = 0;
    int64_t offset = 0;  // position after this event (resume point)
};

class EventReader {
public:
    /// Reader-group coordination cadence (state-sync fetch interval).
    static constexpr sim::Duration kSyncInterval = sim::msec(100);

    EventReader(sim::Core& exec, sim::Network& net, sim::HostId readerHost,
                controller::Controller& controller, controller::SegmentUri syncUri,
                std::string readerName, ReaderConfig cfg);
    ~EventReader();

    EventReader(const EventReader&) = delete;
    EventReader& operator=(const EventReader&) = delete;

    /// Completes when the next event is available. Only one outstanding
    /// read at a time. Events with the same routing key arrive in append
    /// order across scale events (the group's merge-hold guarantees it).
    sim::Future<EventRead> readNextEvent();

    /// Non-blocking variant: next buffered event if one is ready.
    std::optional<EventRead> pollEvent();

    /// Releases all segments and deregisters from the group.
    void close();

    const std::string& name() const { return name_; }
    size_t assignedSegments() const { return streams_.size(); }
    uint64_t eventsRead() const { return eventsRead_; }

private:
    void syncTick();
    void rebalance();
    void openSegment(SegmentId segment, int64_t offset);
    void onData();
    void handleEndedSegments();
    bool deliverBuffered(sim::Promise<EventRead>& promise);

    sim::Core& exec_;
    sim::Network& net_;
    sim::HostId readerHost_;
    controller::Controller& controller_;
    std::string name_;
    ReaderConfig cfg_;
    StateSynchronizer<ReaderGroupState> sync_;

    std::map<SegmentId, std::unique_ptr<SegmentInputStream>> streams_;
    std::set<SegmentId> releasing_;   // excluded from reads while a release is in flight
    std::set<SegmentId> completing_;  // end-of-segment protocol in progress
    std::optional<sim::Promise<EventRead>> waiting_;
    sim::TimePoint waitStart_ = 0;  // when waiting_ was parked (trace stage)
    SegmentId rrLast_ = 0;  // round-robin cursor across assigned segments
    bool updateInFlight_ = false;
    bool closed_ = false;
    uint64_t timerEpoch_ = 0;
    uint64_t eventsRead_ = 0;
    std::shared_ptr<bool> alive_;
};

}  // namespace pravega::client
