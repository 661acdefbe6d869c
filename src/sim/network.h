// Lazily-created point-to-point links between simulated hosts.
//
// Besides routing, the network is the chaos layer's entry point for
// connectivity faults: `partition(a, b)` blackholes both directions of a
// host pair, `heal` restores them, and loss/degradation knobs forward to
// the per-direction Link fault state. Each link gets its own fault PRNG
// seeded deterministically from the network seed and the (from, to) pair,
// so probabilistic loss replays bit-for-bit from the same seed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "common/hash.h"
#include "sim/models.h"

namespace pravega::sim {

/// Host ids are plain integers assigned by the harness (clients, segment
/// stores, bookies, brokers each get one).
using HostId = int;

/// Per-request wire overhead (protocol framing) charged on every simulated
/// request and response, by the Pravega client and WAL and by the Kafka and
/// Pulsar baselines alike.
constexpr uint64_t kWireOverheadBytes = 64;

class Network {
public:
    Network(Core& exec, Link::Config cfg, uint64_t faultSeed = 0x5EED0FFAULL)
        : exec_(exec), cfg_(cfg), faultSeed_(faultSeed) {}

    /// Pins `host` to a Core shard: links INTO the host deliver on that
    /// core, so a message lands on the shard that owns the receiver's
    /// state. Unpinned hosts deliver on the network's default core. Pin
    /// before the first message to/from the host — links bind their core
    /// at creation.
    void pinHost(HostId host, Core& core) { pins_[host] = &core; }

    /// The Core shard a host is pinned to (default core when unpinned).
    Core& coreOf(HostId host) {
        auto it = pins_.find(host);
        return it == pins_.end() ? exec_ : *it->second;
    }

    /// The unidirectional link from `from` to `to` (created on first use).
    Link& link(HostId from, HostId to) {
        auto key = std::make_pair(from, to);
        auto it = links_.find(key);
        if (it == links_.end()) {
            uint64_t seed = pravega::mix64(
                faultSeed_ ^ (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32 |
                              static_cast<uint32_t>(to)));
            it = links_.emplace(key, std::make_unique<Link>(coreOf(to), cfg_, seed)).first;
            it->second->setLabel(std::to_string(from) + "->" + std::to_string(to));
        }
        return *it->second;
    }

    /// Convenience: deliver `fn` at `to` after sending `bytes` from `from`.
    void send(HostId from, HostId to, uint64_t bytes, Core::Task fn) {
        link(from, to).deliver(bytes, std::move(fn));
    }

    // ---- fault controls (chaos layer), all bidirectional ----------------

    /// Drops every message between `a` and `b` until healed.
    void partition(HostId a, HostId b) {
        link(a, b).setPartitioned(true);
        link(b, a).setPartitioned(true);
        partitioned_.insert(orderPair(a, b));
    }

    void heal(HostId a, HostId b) {
        link(a, b).setPartitioned(false);
        link(b, a).setPartitioned(false);
        partitioned_.erase(orderPair(a, b));
    }

    /// Heals every partition (loss/degradation windows are untouched).
    void healAll() {
        for (auto [a, b] : std::set<std::pair<HostId, HostId>>(partitioned_)) heal(a, b);
    }

    bool isPartitioned(HostId a, HostId b) const {
        return partitioned_.contains(orderPair(a, b));
    }
    size_t partitionCount() const { return partitioned_.size(); }

    /// Probabilistic message loss on both directions of a host pair.
    void setLoss(HostId a, HostId b, double probability) {
        link(a, b).setLossProbability(probability);
        link(b, a).setLossProbability(probability);
    }

    /// Temporary latency/bandwidth degradation on both directions.
    void degrade(HostId a, HostId b, Duration extraLatency, double bandwidthFactor,
                 Duration duration) {
        link(a, b).degrade(extraLatency, bandwidthFactor, duration);
        link(b, a).degrade(extraLatency, bandwidthFactor, duration);
    }

    /// Messages dropped by faults across all links (every kind summed).
    uint64_t droppedMessages() const {
        uint64_t total = 0;
        for (const auto& [key, l] : links_) total += l->droppedMessages();
        return total;
    }

    /// Network-wide drops broken down by fault kind.
    Link::DropCounts droppedByKind() const {
        Link::DropCounts sum;
        for (const auto& [key, l] : links_) {
            const Link::DropCounts& d = l->drops();
            sum.partition += d.partition;
            sum.forced += d.forced;
            sum.loss += d.loss;
        }
        return sum;
    }

    /// Drops on both directions of the (a, b) host pair, by fault kind —
    /// lets a chaos test assert WHICH partition ate the traffic.
    Link::DropCounts droppedBetween(HostId a, HostId b) const {
        Link::DropCounts sum;
        for (auto key : {std::make_pair(a, b), std::make_pair(b, a)}) {
            auto it = links_.find(key);
            if (it == links_.end()) continue;
            const Link::DropCounts& d = it->second->drops();
            sum.partition += d.partition;
            sum.forced += d.forced;
            sum.loss += d.loss;
        }
        return sum;
    }

    /// Per-directed-link breakdown for every link that dropped anything.
    std::map<std::pair<HostId, HostId>, Link::DropCounts> droppedByLink() const {
        std::map<std::pair<HostId, HostId>, Link::DropCounts> out;
        for (const auto& [key, l] : links_) {
            if (l->droppedMessages() > 0) out.emplace(key, l->drops());
        }
        return out;
    }

    const Link::Config& config() const { return cfg_; }

private:
    static std::pair<HostId, HostId> orderPair(HostId a, HostId b) {
        return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
    }

    Core& exec_;
    Link::Config cfg_;
    uint64_t faultSeed_;
    std::map<HostId, Core*> pins_;
    std::map<std::pair<HostId, HostId>, std::unique_ptr<Link>> links_;
    std::set<std::pair<HostId, HostId>> partitioned_;
};

}  // namespace pravega::sim
