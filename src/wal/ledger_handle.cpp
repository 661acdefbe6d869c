#include "wal/ledger_handle.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"

namespace pravega::wal {

LedgerHandle::LedgerHandle(sim::Core& exec, sim::Network& net, sim::HostId clientHost,
                           LedgerRegistry& registry, LedgerId id, ReplicationConfig repl)
    : exec_(exec),
      net_(net),
      clientHost_(clientHost),
      registry_(registry),
      id_(id),
      repl_(repl),
      alive_(std::make_shared<bool>(true)) {
    auto* info = registry_.find(id);
    assert(info && "ledger must exist in the registry");
    ensemble_ = info->ensemble;
    assert(static_cast<int>(ensemble_.size()) >= repl_.writeQuorum);
}

LedgerHandle::~LedgerHandle() { *alive_ = false; }

sim::Future<EntryId> LedgerHandle::addEntry(BufChain data) {
    if (closed_ || fencedOut_) {
        return sim::Future<EntryId>::failed(
            Status(fencedOut_ ? Err::Fenced : Err::Sealed, "ledger not writable"));
    }
    if (static_cast<int>(ensemble_.size()) < repl_.ackQuorum) {
        return sim::Future<EntryId>::failed(
            Status(Err::Unavailable, "not enough bookies for ack quorum"));
    }
    EntryId entry = nextEntry_++;
    appendedBytes_ += data.size();
    unackedBytes_ += data.size();
    fullUnackedBytes_ += data.size();
    auto& inf = inFlight_[entry];
    inf.bytes = data.size();
    inf.data = data;
    auto fut = inf.done.future();

    size_t targets = std::min(ensemble_.size(), static_cast<size_t>(repl_.writeQuorum));
    for (size_t i = 0; i < targets; ++i) inf.writeSet.push_back(ensemble_[i]);
    for (Bookie* bookie : inf.writeSet) sendToBookie(bookie, entry, data);
    armTimeout(entry);
    return fut;
}

void LedgerHandle::sendToBookie(Bookie* bookie, EntryId entry, const BufChain& data) {
    const uint64_t wireBytes = data.size() + sim::kWireOverheadBytes;
    net_.send(clientHost_, bookie->host(), wireBytes,
              [this, alive = alive_, bookie, entry, data]() {
                  if (!*alive) return;
                  bookie->addEntry(id_, entry, data)
                      .onComplete([this, alive, bookie, entry](const Result<sim::Unit>& r) {
                          if (!*alive) return;
                          // Response travels back to the client.
                          net_.send(bookie->host(), clientHost_, sim::kWireOverheadBytes,
                                    [this, alive, bookie, entry, r]() {
                                        if (*alive) onAck(bookie, entry, r);
                                    });
                      });
              });
}

void LedgerHandle::armTimeout(EntryId entry) {
    if (repl_.writeTimeout <= 0) return;
    exec_.schedule(repl_.writeTimeout, [this, alive = alive_, entry]() {
        if (!*alive) return;
        auto it = inFlight_.find(entry);
        if (it == inFlight_.end()) return;
        // Every write-set bookie that still owes an ack is declared failed;
        // re-arm to police the replacements (and full-quorum stragglers).
        std::vector<Bookie*> suspects;
        for (Bookie* b : it->second.writeSet) {
            if (!it->second.ackedBy.contains(b)) suspects.push_back(b);
        }
        for (Bookie* b : suspects) handleBookieFailure(b);
        if (inFlight_.contains(entry)) armTimeout(entry);
    });
}

bool LedgerHandle::fullyReplicated(const InFlight& inf) const {
    for (Bookie* b : inf.writeSet) {
        if (!inf.ackedBy.contains(b)) return false;
    }
    return true;
}

void LedgerHandle::onAck(Bookie* bookie, EntryId entry, const Result<sim::Unit>& r) {
    auto it = inFlight_.find(entry);
    if (it == inFlight_.end()) return;  // already resolved (e.g., failure path)
    auto& inf = it->second;
    if (r.isOk()) {
        // A late ack from a bookie that was since replaced still counts
        // toward the quorum: the entry IS durable there.
        inf.ackedBy.insert(bookie);
        if (!inf.fullReleased && fullyReplicated(inf)) {
            inf.fullReleased = true;
            fullUnackedBytes_ -= std::min(fullUnackedBytes_, inf.bytes);
        }
        drainConfirmed();
        return;
    }
    if (r.code() == Err::Fenced) {
        // A newer owner fenced us: fatal for this handle, not the bookie.
        fencedOut_ = true;
        if (!inf.confirmed) {
            inf.failed = true;
            inf.error = r.status();
        }
        drainConfirmed();
        return;
    }
    if (r.code() == Err::Unavailable || r.code() == Err::IoError ||
        r.code() == Err::Timeout) {
        // Connection-level failure: the bookie is bad, not the entry.
        handleBookieFailure(bookie);
        return;
    }
    // Any other rejection (e.g. ledger deleted under us) fails the entry.
    if (!inf.confirmed) {
        inf.failed = true;
        inf.error = r.status();
    }
    drainConfirmed();
}

void LedgerHandle::handleBookieFailure(Bookie* bad) {
    if (failedBookies_.contains(bad)) return;
    failedBookies_.insert(bad);
    if (std::find(ensemble_.begin(), ensemble_.end(), bad) == ensemble_.end()) return;

    // Ensemble change: prefer a pool bookie not already used and not known
    // bad. The registry stands in for the ZK-kept bookie availability view,
    // so only live bookies are eligible.
    Bookie* replacement = nullptr;
    for (Bookie* cand : registry_.bookiePool()) {
        if (!cand->alive() || failedBookies_.contains(cand)) continue;
        if (std::find(ensemble_.begin(), ensemble_.end(), cand) != ensemble_.end()) continue;
        replacement = cand;
        break;
    }

    auto* info = registry_.find(id_);
    if (replacement) {
        ++ensembleChanges_;
        exec_.metrics().counter("wal.ensemble_changes").inc();
        std::replace(ensemble_.begin(), ensemble_.end(), bad, replacement);
        if (info) {
            std::replace(info->ensemble.begin(), info->ensemble.end(), bad, replacement);
            if (std::find(info->everMembers.begin(), info->everMembers.end(), replacement) ==
                info->everMembers.end()) {
                info->everMembers.push_back(replacement);
            }
        }
        // Re-replicate everything the failed bookie still owed.
        for (auto& [e, inf] : inFlight_) {
            if (std::find(inf.writeSet.begin(), inf.writeSet.end(), bad) !=
                inf.writeSet.end()) {
                std::replace(inf.writeSet.begin(), inf.writeSet.end(), bad, replacement);
                sendToBookie(replacement, e, inf.data);
            }
        }
        PLOG_INFO("wal", "ledger %llu: ensemble change, bookie %d -> %d",
                  static_cast<unsigned long long>(id_), bad->host(), replacement->host());
    } else {
        // No spare bookie: degrade to the survivors. Appends stay available
        // while at least ackQuorum ensemble members remain.
        std::erase(ensemble_, bad);
        for (auto& [e, inf] : inFlight_) std::erase(inf.writeSet, bad);
        PLOG_WARN("wal", "ledger %llu: no replacement for bookie %d, degrading to %zu members",
                  static_cast<unsigned long long>(id_), bad->host(), ensemble_.size());
    }

    // Shrunken write sets may now be fully acked; entries that can no
    // longer reach the ack quorum must fail.
    for (auto& [e, inf] : inFlight_) {
        if (!inf.fullReleased && fullyReplicated(inf)) {
            inf.fullReleased = true;
            fullUnackedBytes_ -= std::min(fullUnackedBytes_, inf.bytes);
        }
    }
    for (auto& [e, inf] : inFlight_) {
        if (inf.confirmed || inf.failed) continue;
        std::set<Bookie*> reachable = inf.ackedBy;
        reachable.insert(inf.writeSet.begin(), inf.writeSet.end());
        if (static_cast<int>(reachable.size()) < repl_.ackQuorum) {
            inf.failed = true;
            inf.error = Status(Err::Unavailable, "ack quorum unreachable");
            break;  // drainConfirmed poisons the suffix anyway
        }
    }
    drainConfirmed();
}

void LedgerHandle::drainConfirmed() {
    // Entries confirm strictly in entry order: an entry resolves only when
    // it has an ack quorum AND all earlier entries are confirmed. Fully-
    // replicated confirmed entries are erased eagerly; confirmed entries
    // still short of the full write set stay (re-replication buffer) but do
    // not block later confirmations.
    for (auto it = inFlight_.begin(); it != inFlight_.end();) {
        auto& inf = it->second;
        if (inf.confirmed) {
            if (inf.fullReleased) {
                it = inFlight_.erase(it);
            } else {
                ++it;
            }
            continue;
        }
        if (inf.failed) {
            // A failed entry poisons the unconfirmed suffix: nothing after
            // it can confirm in order, so fail them all (the owner
            // re-opens the log).
            Status error = inf.error;
            std::vector<sim::Promise<EntryId>> doomed;
            for (auto dit = it; dit != inFlight_.end(); ++dit) {
                if (!dit->second.confirmed) {
                    doomed.push_back(std::move(dit->second.done));
                    unackedBytes_ -= std::min(unackedBytes_, dit->second.bytes);
                    if (!dit->second.fullReleased) {
                        fullUnackedBytes_ -= std::min(fullUnackedBytes_, dit->second.bytes);
                    }
                }
            }
            inFlight_.erase(it, inFlight_.end());
            for (auto& p : doomed) p.setError(error);
            if (closed_ && !registryClosed_ && inFlight_.empty()) {
                registryClosed_ = true;
                registry_.close(id_, lastAddConfirmed_);
            }
            return;
        }
        if (static_cast<int>(inf.ackedBy.size()) < repl_.ackQuorum) break;
        EntryId entry = it->first;
        lastAddConfirmed_ = std::max(lastAddConfirmed_, entry);
        inf.confirmed = true;
        unackedBytes_ -= std::min(unackedBytes_, inf.bytes);
        auto done = inf.done;
        if (inf.fullReleased) {
            it = inFlight_.erase(it);
        } else {
            ++it;
        }
        done.setValue(entry);
    }
    if (closed_ && !registryClosed_ && inFlight_.empty()) {
        registryClosed_ = true;
        registry_.close(id_, lastAddConfirmed_);
    }
}

void LedgerHandle::close() {
    if (closed_) return;
    closed_ = true;
    // Entries may still be awaiting their quorum; the registry records the
    // final LAC only once in-flight appends drain (drainConfirmed), so
    // recovery never reads a stale last-entry for a "closed" ledger.
    if (inFlight_.empty()) {
        registryClosed_ = true;
        registry_.close(id_, lastAddConfirmed_);
    }
}

Result<std::vector<SharedBuf>> LedgerHandle::recoverAndClose(LedgerRegistry& registry,
                                                             LedgerId id) {
    auto* info = registry.find(id);
    if (!info) return Status(Err::NotFound, "ledger not in registry");

    // Fence every bookie that ever held entries of this ledger (ensemble
    // changes append members; the original ones may still hold the oldest
    // entries) so the previous owner can no longer add, then recover up to
    // the highest entry any bookie reports. (A full BK implementation
    // recovers to the highest entry seen by an ack quorum; with writeQuorum
    // == ensembleSize the max over responses is correct.)
    const std::vector<Bookie*>& members =
        info->everMembers.empty() ? info->ensemble : info->everMembers;
    EntryId last = kNoEntry;
    for (Bookie* b : members) {
        auto r = b->fenceLedger(id);
        if (r.isOk()) last = std::max(last, r.value());
    }
    if (info->closed) last = info->lastEntry;  // closed ledgers are authoritative

    std::vector<SharedBuf> entries;
    for (EntryId e = 0; e <= last; ++e) {
        bool found = false;
        for (Bookie* b : members) {
            auto r = b->readEntry(id, e);
            if (r.isOk()) {
                entries.push_back(std::move(r.value()));
                found = true;
                break;
            }
        }
        if (!found) {
            // Entry beyond the durable prefix (never reached ack quorum and
            // bookies lost it): recovery stops at the last contiguous entry.
            last = e - 1;
            break;
        }
    }
    registry.close(id, last);
    return entries;
}

}  // namespace pravega::wal
