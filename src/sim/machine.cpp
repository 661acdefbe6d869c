#include "sim/machine.h"

#include <cassert>
#include <utility>

#include "common/hash.h"
#include "obs/metrics.h"

namespace pravega::sim {

Core::Core(Machine& machine, int id, uint64_t rngSeed)
    : machine_(&machine),
      id_(id),
      slots_(kWheelSlots),
      rng_(rngSeed),
      metrics_(std::make_unique<obs::MetricsRegistry>(
          [m = &machine] { return m->now(); })) {}

Core::~Core() = default;

void Core::push(Duration delay, Task fn, bool weak) {
    assert(delay >= 0 && "cannot schedule into the past");
    if (!weak) {
        ++regularPending_;
        ++machine_->regularPending_;
    }
    const TimePoint at = machine_->now() + delay;
    const uint64_t seq = seq_++;

    Tier tier;
    size_t slot = 0;
    size_t idx = 0;
    const uint64_t absSlot = static_cast<uint64_t>(at) >> kWheelShift;
    const uint64_t nowSlot = static_cast<uint64_t>(machine_->now()) >> kWheelShift;
    if (absSlot - nowSlot < kWheelSlots) {
        tier = Tier::Wheel;
        slot = static_cast<size_t>(absSlot & (kWheelSlots - 1));
        idx = slots_[slot].size();
        slots_[slot].push_back(Entry{at, seq, weak, std::move(fn)});
        ++wheelCount_;
        if (absSlot < wheelCursor_) wheelCursor_ = absSlot;
    } else {
        tier = Tier::Far;
        far_.push(Entry{at, seq, weak, std::move(fn)});
    }

    // Incremental cached-min maintenance: a push can only improve the min.
    consider(at, seq, tier, slot, idx);
}

Core::Entry Core::pop() {
    assert(minTier_ != Tier::None && "pop on empty core queue");
    Entry e;
    switch (minTier_) {
        case Tier::Wheel: {
            auto& v = slots_[minSlot_];
            e = std::move(v[minIdx_]);
            // Swap-remove: slot order is irrelevant (the min scan compares
            // (time, seq) keys, never positions).
            if (minIdx_ + 1 != v.size()) v[minIdx_] = std::move(v.back());
            v.pop_back();
            --wheelCount_;
            break;
        }
        case Tier::Far:
            // priority_queue::top() is const; move out via const_cast,
            // standard idiom for pop-and-consume queues of move-only
            // payloads.
            e = std::move(const_cast<Entry&>(far_.top()));
            far_.pop();
            break;
        case Tier::None:
            break;  // unreachable (asserted above)
    }
    if (!e.weak) {
        --regularPending_;
        --machine_->regularPending_;
    }
    recomputeMin();
    return e;
}

void Core::consider(TimePoint at, uint64_t seq, Tier tier, size_t slot, size_t idx) {
    if (minTier_ == Tier::None || at < minAt_ || (at == minAt_ && seq < minSeq_)) {
        minTier_ = tier;
        minAt_ = at;
        minSeq_ = seq;
        minSlot_ = slot;
        minIdx_ = idx;
    }
}

void Core::recomputeMin() {
    minTier_ = Tier::None;
    if (wheelCount_ > 0) {
        // All pending wheel entries lie within one horizon window above the
        // current virtual time (at >= now, and admission requires
        // at < pushNow + horizon <= now + horizon), so starting the scan at
        // the current time's slot can't skip anything and no physical slot
        // mixes laps.
        const uint64_t nowSlot = static_cast<uint64_t>(machine_->now()) >> kWheelShift;
        if (wheelCursor_ < nowSlot) wheelCursor_ = nowSlot;
        while (slots_[static_cast<size_t>(wheelCursor_ & (kWheelSlots - 1))].empty()) {
            ++wheelCursor_;
        }
        const size_t slot = static_cast<size_t>(wheelCursor_ & (kWheelSlots - 1));
        const auto& v = slots_[slot];
        size_t bestIdx = 0;
        for (size_t i = 1; i < v.size(); ++i) {
            if (v[i].at < v[bestIdx].at ||
                (v[i].at == v[bestIdx].at && v[i].seq < v[bestIdx].seq)) {
                bestIdx = i;
            }
        }
        consider(v[bestIdx].at, v[bestIdx].seq, Tier::Wheel, slot, bestIdx);
    }
    if (!far_.empty()) {
        const Entry& e = far_.top();
        consider(e.at, e.seq, Tier::Far, 0, 0);
    }
}

Machine::Machine(MachineConfig cfg) : cfg_(cfg) {
    assert(cfg_.cores > 0);
    cores_.reserve(static_cast<size_t>(cfg_.cores));
    for (int c = 0; c < cfg_.cores; ++c) {
        cores_.emplace_back(new Core(*this, c,
                                     pravega::mix64(cfg_.rngSeed ^
                                                    static_cast<uint64_t>(c + 1))));
    }
}

Machine::~Machine() = default;

void Machine::submitTo(int core, Core::Task task) {
    assert(core >= 0 && core < coreCount());
    if (core == runningCore_) {
        // Same shard: a direct call, exactly like the pre-shard substrate's
        // synchronous dispatch (and like sharded runtimes' same-shard
        // submits). Keeps 1-core runs byte-identical to the seed traces.
        task();
        return;
    }
    ++xcoreMessages_;
    // Hand-off latency models the mailbox: queue transfer + remote wake-up.
    // Harness submits (runningCore_ == -1) are world setup, not modeled
    // shard-to-shard traffic, and pay nothing.
    Duration cost = runningCore_ >= 0 ? kHandoffLatency : 0;
    if (runningCore_ >= 0) {
        cores_[static_cast<size_t>(runningCore_)]
            ->metrics()
            .counter("sim.xcore.sent")
            .inc();
    }
    cores_[static_cast<size_t>(core)]->schedule(cost, std::move(task));
}

int Machine::pickNext() {
    ++schedulerSelections_;
    int best = -1;
    for (int c = 0; c < coreCount(); ++c) {
        const Core& core = *cores_[static_cast<size_t>(c)];
        if (!core.hasPending()) continue;
        if (best < 0) {
            best = c;
            continue;
        }
        // Global merge order: (time, core id, per-core seq). Core id breaks
        // same-time ties across shards (strict < keeps the lowest id);
        // per-core seq orders within a shard and is folded into the cached
        // minimum. Only cached integers are compared here — no queue peeks.
        if (core.minAt() < cores_[static_cast<size_t>(best)]->minAt()) best = c;
    }
    return best;
}

void Machine::dispatch(int c) {
    Core& core = *cores_[static_cast<size_t>(c)];
    Core::Entry e = core.pop();
    assert(e.at >= now_ && "merge order regressed the clock");
    now_ = e.at;
    runningCore_ = c;
    e.fn();
    runningCore_ = -1;
    ++executedEvents_;
}

bool Machine::runOne() {
    int c = pickNext();
    if (c < 0) return false;
    dispatch(c);
    return true;
}

uint64_t Machine::runUntilIdle() {
    uint64_t n = 0;
    while (regularPending_ > 0 && runOne()) ++n;
    return n;
}

uint64_t Machine::runUntil(TimePoint deadline) {
    uint64_t n = 0;
    for (;;) {
        // Single scan per dispatched event: the selection that found the
        // core is the one we dispatch (the old code scanned once to check
        // the deadline and a second time inside runOne).
        int c = pickNext();
        if (c < 0 || cores_[static_cast<size_t>(c)]->minAt() > deadline) break;
        dispatch(c);
        ++n;
    }
    if (now_ < deadline) now_ = deadline;
    return n;
}

size_t Machine::pendingTasks() const {
    size_t n = 0;
    for (const auto& c : cores_) n += c->pendingTasks();
    return n;
}

const obs::MetricsRegistry& Machine::mergedMetrics() {
    if (cores_.size() == 1) return cores_[0]->metrics();
    // Rebuild the snapshot from scratch: per-core partitions stay the
    // source of truth, and same-name instruments across cores fold into a
    // single merged instrument (find-or-create + accumulate — the fix for
    // the counter double-registration two cores would otherwise cause).
    merged_ = std::make_unique<obs::MetricsRegistry>([this] { return now_; });
    for (const auto& c : cores_) merged_->mergeFrom(c->metrics());
    return *merged_;
}

}  // namespace pravega::sim
