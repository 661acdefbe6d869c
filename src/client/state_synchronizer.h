// StateSynchronizer (§3.3, [27]): consistent shared state over a Pravega
// segment via optimistic concurrency.
//
// Participants hold a local copy of the state; every mutation is an update
// record appended to the backing segment with a conditional append at the
// expected tail offset. If another participant got there first, the append
// fails with BadOffset, the loser fetches and applies the missed updates,
// and retries its mutation against the new state. Reader groups use this to
// agree on segment-to-reader assignments.
//
// Operations issued through ONE synchronizer instance are internally
// serialized (an overlapping fetch and update would otherwise double-apply
// records to the local copy); cross-instance concurrency is what the
// conditional append arbitrates.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>

#include "client/framing.h"
#include "common/bytes.h"
#include "controller/controller.h"
#include "sim/future.h"
#include "sim/network.h"

namespace pravega::client {

/// State must be default-constructible and provide
/// `void apply(BytesView update)`.
template <typename State>
class StateSynchronizer {
public:
    StateSynchronizer(sim::Core& exec, sim::Network& net, sim::HostId clientHost,
                      controller::SegmentUri uri)
        : exec_(exec),
          net_(net),
          clientHost_(clientHost),
          uri_(std::move(uri)),
          alive_(std::make_shared<bool>(true)) {}

    ~StateSynchronizer() { *alive_ = false; }
    StateSynchronizer(const StateSynchronizer&) = delete;
    StateSynchronizer& operator=(const StateSynchronizer&) = delete;

    const State& state() const { return state_; }
    int64_t revision() const { return offset_; }

    /// Fetches updates appended since our revision and applies them.
    sim::Future<sim::Unit> fetchUpdates() {
        sim::Promise<sim::Unit> done;
        auto fut = done.future();
        enqueue([this, alive = alive_, done]() mutable {
            doFetch([this, alive, done](Status s) mutable {
                if (s.isOk()) {
                    done.setValue(sim::Unit{});
                } else {
                    done.setError(s);
                }
                // Completing the promise may run a continuation that destroys
                // this synchronizer; only pump the op queue if we survived.
                if (*alive) finishOp();
            });
        });
        return fut;
    }

    /// Optimistic mutation: `generator(state)` returns the serialized
    /// update to append, or nullopt to abort (condition no longer holds).
    /// Retries on contention. Completes with true if an update landed.
    sim::Future<bool> updateState(std::function<std::optional<Bytes>(const State&)> generator) {
        sim::Promise<bool> done;
        auto fut = done.future();
        enqueue([this, generator = std::move(generator), done]() mutable {
            attempt(std::move(generator), std::move(done), 0);
        });
        return fut;
    }

private:
    // ---- per-instance operation serialization ----
    void enqueue(std::function<void()> op) {
        pending_.push_back(std::move(op));
        pump();
    }
    void pump() {
        if (busy_ || pending_.empty()) return;
        busy_ = true;
        auto op = std::move(pending_.front());
        pending_.pop_front();
        op();
    }
    void finishOp() {
        busy_ = false;
        pump();
    }

    void applyUpdates(BytesView data) {
        size_t pos = 0;
        BytesView update;
        while (decodeEventEx(data, pos, update) == DecodeStatus::Ok) state_.apply(update);
        offset_ += static_cast<int64_t>(pos);
    }

    /// Reads [offset_, tail) and applies it; `cb(status)` on completion.
    void doFetch(std::function<void(Status)> cb) {
        auto* container = uri_.store->container(uri_.containerId);
        if (!container) {
            cb(Status(Err::ContainerOffline, "sync segment offline"));
            return;
        }
        auto info = container->getInfo(uri_.record.id);
        if (!info) {
            cb(info.status());
            return;
        }
        if (info.value().length <= offset_) {
            cb(Status::ok());
            return;
        }
        int64_t want = info.value().length - offset_;
        auto alive = alive_;
        net_.send(clientHost_, uri_.store->host(), sim::kWireOverheadBytes,
                  [this, alive, want, cb = std::move(cb)]() mutable {
            if (!*alive) return;
            auto* c = uri_.store->container(uri_.containerId);
            if (!c) {
                cb(Status(Err::ContainerOffline, ""));
                return;
            }
            c->read(uri_.record.id, offset_, want)
                .onComplete([this, alive, cb = std::move(cb)](
                                const Result<segmentstore::ReadResult>& r) mutable {
                    if (!*alive) return;
                    uint64_t bytes =
                        sim::kWireOverheadBytes + (r.isOk() ? r.value().data.size() : 0);
                    net_.send(uri_.store->host(), clientHost_, bytes,
                              [this, alive, cb = std::move(cb), r]() mutable {
                                  if (!*alive) return;
                                  if (!r.isOk()) {
                                      cb(r.status());
                                      return;
                                  }
                                  applyUpdates(BytesView(r.value().data));
                                  cb(Status::ok());
                              });
                });
        });
    }

    void attempt(std::function<std::optional<Bytes>(const State&)> generator,
                 sim::Promise<bool> done, int tries) {
        auto alive = alive_;
        if (tries > 64) {
            done.setError(Err::Timeout, "state synchronizer contention");
            if (*alive) finishOp();
            return;
        }
        doFetch([this, alive, generator = std::move(generator), done,
                 tries](Status fetched) mutable {
            if (!*alive) return;
            if (!fetched.isOk()) {
                done.setError(fetched);
                if (*alive) finishOp();
                return;
            }
            auto update = generator(state_);
            if (!update) {
                done.setValue(false);
                if (*alive) finishOp();
                return;
            }
            Bytes framed;
            encodeEvent(framed, BytesView(*update));
            auto buf = SharedBuf(std::move(framed));
            int64_t expected = offset_;
            net_.send(
                clientHost_, uri_.store->host(), buf.size() + sim::kWireOverheadBytes,
                [this, alive, buf, expected, generator = std::move(generator), done,
                 tries]() mutable {
                    if (!*alive) return;
                    auto* c = uri_.store->container(uri_.containerId);
                    if (!c) {
                        done.setError(Err::ContainerOffline);
                        if (*alive) finishOp();
                        return;
                    }
                    c->conditionalAppend(uri_.record.id, buf, expected)
                        .onComplete([this, alive, buf, generator = std::move(generator), done,
                                     tries](const Result<int64_t>& r) mutable {
                            if (!*alive) return;
                            net_.send(
                                uri_.store->host(), clientHost_, sim::kWireOverheadBytes,
                                [this, alive, buf, generator = std::move(generator), done,
                                 tries, r]() mutable {
                                    if (!*alive) return;
                                    if (r.isOk()) {
                                        // Our own update: apply locally.
                                        applyUpdates(buf.view());
                                        done.setValue(true);
                                        if (*alive) finishOp();
                                        return;
                                    }
                                    if (r.code() == Err::BadOffset) {
                                        // Lost the race: catch up, retry.
                                        attempt(std::move(generator), std::move(done),
                                                tries + 1);
                                        return;
                                    }
                                    done.complete(r.status());
                                    if (*alive) finishOp();
                                });
                        });
                });
        });
    }

    sim::Core& exec_;
    sim::Network& net_;
    sim::HostId clientHost_;
    controller::SegmentUri uri_;
    State state_;
    int64_t offset_ = 0;
    bool busy_ = false;
    std::deque<std::function<void()>> pending_;
    std::shared_ptr<bool> alive_;
};

}  // namespace pravega::client
