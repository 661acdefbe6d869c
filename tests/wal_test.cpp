// Tests for the WAL substrate: bookie group commit, replicated ledger
// appends with in-order quorum acknowledgement, fencing, log rollover,
// truncation (ledger deletion) and recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sim/machine.h"
#include "sim/network.h"
#include "wal/bookie.h"
#include "wal/ledger_handle.h"
#include "wal/log_client.h"

namespace pravega::wal {
namespace {

struct WalFixture : public ::testing::Test {
    sim::Machine exec;
    sim::Network net{exec, sim::Link::Config{}};
    sim::DiskModel::Config diskCfg;
    std::vector<std::unique_ptr<sim::DiskModel>> disks;
    std::vector<std::unique_ptr<Bookie>> bookies;
    LedgerRegistry registry;
    LogMetadataStore logMeta;

    void makeBookies(int n, Bookie::Config cfg = {}) {
        for (int i = 0; i < n; ++i) {
            disks.push_back(std::make_unique<sim::DiskModel>(exec, diskCfg));
            bookies.push_back(
                std::make_unique<Bookie>(exec, 100 + i, *disks.back(), cfg));
        }
    }
    std::vector<Bookie*> bookiePtrs() {
        std::vector<Bookie*> out;
        for (auto& b : bookies) out.push_back(b.get());
        return out;
    }
    WalEnv env() { return WalEnv{exec, net, registry, logMeta, bookiePtrs()}; }

    SharedBuf payload(const std::string& s) { return SharedBuf(toBytes(s)); }
};

TEST_F(WalFixture, BookieStoresAndReadsEntries) {
    makeBookies(1);
    bool done = false;
    bookies[0]->addEntry(1, 0, payload("hello")).onComplete([&](const Result<sim::Unit>& r) {
        EXPECT_TRUE(r.isOk());
        done = true;
    });
    exec.runUntilIdle();
    EXPECT_TRUE(done);
    EXPECT_EQ(toString(bookies[0]->readEntry(1, 0).value().view()), "hello");
    EXPECT_EQ(bookies[0]->lastEntry(1).value(), 0);
    EXPECT_EQ(bookies[0]->readEntry(1, 5).code(), Err::NotFound);
    EXPECT_EQ(bookies[0]->readEntry(9, 0).code(), Err::NotFound);
}

TEST_F(WalFixture, BookieGroupCommit) {
    // Many entries submitted while a journal flush is in flight must be
    // committed as one group (fewer journal writes than entries).
    makeBookies(1);
    int acked = 0;
    for (int i = 0; i < 100; ++i) {
        bookies[0]->addEntry(1, i, payload("x")).onComplete(
            [&](const Result<sim::Unit>&) { ++acked; });
    }
    exec.runUntilIdle();
    EXPECT_EQ(acked, 100);
    // 100 entries × (1B + 32B overhead) journal bytes plus the per-entry
    // processing charge (expressed as equivalent bytes), in only 2 journal
    // writes: the first entry alone, then the remaining 99 as one group.
    uint64_t perEntryBytes = static_cast<uint64_t>(
        static_cast<double>(Bookie::kPerEntryLatency) / 1e9 *
        sim::DiskModel::Config{}.bytesPerSec);
    EXPECT_GE(disks[0]->bytesWritten(), 100u * 33u);
    EXPECT_LE(disks[0]->bytesWritten(), 100u * 33u + 100 * (perEntryBytes + 1));
}

TEST_F(WalFixture, BookieFencingRejectsWrites) {
    makeBookies(1);
    bookies[0]->addEntry(1, 0, payload("a"));
    exec.runUntilIdle();
    auto last = bookies[0]->fenceLedger(1);
    EXPECT_EQ(last.value(), 0);
    Status status;
    bookies[0]->addEntry(1, 1, payload("b")).onComplete([&](const Result<sim::Unit>& r) {
        status = r.status();
    });
    exec.runUntilIdle();
    EXPECT_EQ(status.code(), Err::Fenced);
}

TEST_F(WalFixture, BookieDeleteLedgerFreesBytes) {
    makeBookies(1);
    bookies[0]->addEntry(1, 0, payload("12345"));
    exec.runUntilIdle();
    EXPECT_EQ(bookies[0]->storedBytes(), 5u);
    bookies[0]->deleteLedger(1);
    EXPECT_EQ(bookies[0]->storedBytes(), 0u);
    EXPECT_EQ(bookies[0]->readEntry(1, 0).code(), Err::NotFound);
    // Deleted ledgers reject future writes too.
    Status status;
    bookies[0]->addEntry(1, 1, payload("x")).onComplete([&](const Result<sim::Unit>& r) {
        status = r.status();
    });
    exec.runUntilIdle();
    EXPECT_EQ(status.code(), Err::NotFound);
}

TEST_F(WalFixture, LedgerQuorumAck) {
    makeBookies(3);
    LedgerId id = registry.create(bookiePtrs());
    LedgerHandle handle(exec, net, 1, registry, id, ReplicationConfig{});
    std::vector<EntryId> acked;
    for (int i = 0; i < 5; ++i) {
        handle.addEntry(payload("entry")).onComplete([&](const Result<EntryId>& r) {
            ASSERT_TRUE(r.isOk());
            acked.push_back(r.value());
        });
    }
    exec.runUntilIdle();
    // Acks must arrive in order 0..4 (prefix durability).
    ASSERT_EQ(acked.size(), 5u);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(acked[static_cast<size_t>(i)], i);
    EXPECT_EQ(handle.lastAddConfirmed(), 4);
    // All three bookies hold all entries (writeQuorum = 3).
    for (auto& b : bookies) EXPECT_EQ(b->lastEntry(id).value(), 4);
}

TEST_F(WalFixture, LedgerTracksUnackedBytes) {
    makeBookies(3);
    LedgerId id = registry.create(bookiePtrs());
    LedgerHandle handle(exec, net, 1, registry, id, ReplicationConfig{});
    handle.addEntry(payload("0123456789"));
    EXPECT_EQ(handle.unackedBytes(), 10u);
    EXPECT_EQ(handle.unackedToFullQuorumBytes(), 10u);
    exec.runUntilIdle();
    EXPECT_EQ(handle.unackedBytes(), 0u);
    EXPECT_EQ(handle.unackedToFullQuorumBytes(), 0u);
}

TEST_F(WalFixture, RecoveryFencesAndReturnsEntries) {
    makeBookies(3);
    LedgerId id = registry.create(bookiePtrs());
    {
        LedgerHandle writer(exec, net, 1, registry, id, ReplicationConfig{});
        for (int i = 0; i < 3; ++i) writer.addEntry(payload("e" + std::to_string(i)));
        exec.runUntilIdle();
    }
    auto recovered = LedgerHandle::recoverAndClose(registry, id);
    ASSERT_TRUE(recovered.isOk());
    ASSERT_EQ(recovered.value().size(), 3u);
    EXPECT_EQ(toString(recovered.value()[0].view()), "e0");
    EXPECT_EQ(toString(recovered.value()[2].view()), "e2");

    // A previous owner writing after recovery is fenced out.
    LedgerHandle old(exec, net, 1, registry, id, ReplicationConfig{});
    Status status;
    old.addEntry(payload("late")).onComplete([&](const Result<EntryId>& r) {
        status = r.status();
    });
    exec.runUntilIdle();
    EXPECT_EQ(status.code(), Err::Fenced);
}

TEST_F(WalFixture, LogClientAppendsAcrossRollover) {
    makeBookies(3);
    LogClient::Config cfg;
    cfg.rolloverBytes = 50;  // force frequent rollovers
    LogClient log(env(), 1, /*logId=*/7, cfg);
    ASSERT_TRUE(log.recover().isOk());

    std::vector<int64_t> sequences;
    for (int i = 0; i < 10; ++i) {
        log.append(payload("0123456789")).onComplete([&](const Result<LogAddress>& r) {
            ASSERT_TRUE(r.isOk());
            sequences.push_back(r.value().sequence);
        });
    }
    exec.runUntilIdle();
    ASSERT_EQ(sequences.size(), 10u);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(sequences[static_cast<size_t>(i)], i);
    EXPECT_GT(log.ledgerCount(), 1u);  // rollover happened
}

TEST_F(WalFixture, LogClientRecoverReturnsAllInOrder) {
    makeBookies(3);
    LogClient::Config cfg;
    cfg.rolloverBytes = 30;
    {
        LogClient log(env(), 1, 7, cfg);
        log.recover();
        for (int i = 0; i < 8; ++i) log.append(payload("entry-" + std::to_string(i)));
        exec.runUntilIdle();
    }
    LogClient fresh(env(), 2, 7, cfg);
    auto recovered = fresh.recover();
    ASSERT_TRUE(recovered.isOk());
    ASSERT_EQ(recovered.value().size(), 8u);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(recovered.value()[static_cast<size_t>(i)].first.sequence, i);
        EXPECT_EQ(toString(recovered.value()[static_cast<size_t>(i)].second.view()),
                  "entry-" + std::to_string(i));
    }
    // New appends continue the sequence.
    int64_t seq = -1;
    fresh.append(payload("after")).onComplete([&](const Result<LogAddress>& r) {
        seq = r.value().sequence;
    });
    exec.runUntilIdle();
    EXPECT_EQ(seq, 8);
}

TEST_F(WalFixture, LogClientFencesPreviousOwner) {
    makeBookies(3);
    LogClient::Config cfg;
    LogClient old(env(), 1, 7, cfg);
    old.recover();
    old.append(payload("one"));
    exec.runUntilIdle();

    LogClient fresh(env(), 2, 7, cfg);
    fresh.recover();

    Status status;
    old.append(payload("two")).onComplete([&](const Result<LogAddress>& r) {
        status = r.status();
    });
    exec.runUntilIdle();
    EXPECT_EQ(status.code(), Err::Fenced);
}

TEST_F(WalFixture, TruncateDeletesWholeLedgersOnly) {
    makeBookies(3);
    LogClient::Config cfg;
    cfg.rolloverBytes = 20;
    LogClient log(env(), 1, 7, cfg);
    log.recover();
    for (int i = 0; i < 12; ++i) log.append(payload("0123456789"));
    exec.runUntilIdle();
    size_t before = log.ledgerCount();
    ASSERT_GT(before, 2u);

    log.truncate(LogAddress{0, 0, 7});  // everything ≤ seq 7 deletable
    EXPECT_LT(log.ledgerCount(), before);

    // Recovery after truncation returns only the retained suffix, still in
    // sequence order and with correct sequence numbers.
    LogClient fresh(env(), 2, 7, cfg);
    auto recovered = fresh.recover();
    ASSERT_TRUE(recovered.isOk());
    ASSERT_FALSE(recovered.value().empty());
    EXPECT_GT(recovered.value().front().first.sequence, 0);
    EXPECT_EQ(recovered.value().back().first.sequence, 11);
    int64_t prev = -1;
    for (auto& [addr, data] : recovered.value()) {
        EXPECT_GT(addr.sequence, prev);
        prev = addr.sequence;
    }
}

TEST_F(WalFixture, TruncateNeverDeletesCurrentLedger) {
    makeBookies(3);
    LogClient::Config cfg;  // huge rollover: single ledger
    LogClient log(env(), 1, 7, cfg);
    log.recover();
    for (int i = 0; i < 5; ++i) log.append(payload("x"));
    exec.runUntilIdle();
    log.truncate(LogAddress{0, 0, 100});
    EXPECT_EQ(log.ledgerCount(), 1u);  // the open ledger survives
}

TEST_F(WalFixture, NoFlushModeSkipsFsync) {
    Bookie::Config sync;
    sync.journalSync = true;
    Bookie::Config nosync;
    nosync.journalSync = false;

    diskCfg.fsyncLatency = sim::msec(1);
    makeBookies(1, sync);
    sim::TimePoint syncTime = 0;
    bookies[0]->addEntry(1, 0, payload("a")).onComplete([&](const Result<sim::Unit>&) {
        syncTime = exec.now();
    });
    exec.runUntilIdle();

    disks.push_back(std::make_unique<sim::DiskModel>(exec, diskCfg));
    auto noFlush = std::make_unique<Bookie>(exec, 200, *disks.back(), nosync);
    sim::TimePoint start = exec.now();
    sim::TimePoint noSyncTime = 0;
    noFlush->addEntry(1, 0, payload("a")).onComplete([&](const Result<sim::Unit>&) {
        noSyncTime = exec.now() - start;
    });
    exec.runUntilIdle();
    EXPECT_GE(syncTime, sim::msec(1));
    EXPECT_LT(noSyncTime, sim::msec(1));
}

// ---- chaos: crash/restart, strict ack ordering, ensemble changes --------

TEST_F(WalFixture, BookieCrashLosesUnsyncedRestartRecoversJournal) {
    diskCfg.fsyncLatency = sim::msec(1);
    makeBookies(1);
    bookies[0]->addEntry(1, 0, payload("durable"));
    exec.runUntilIdle();

    // One entry mid-flush, one still queued at crash time: both fail with
    // Unavailable and neither reaches the journal.
    std::vector<Err> codes;
    auto record = [&](const Result<sim::Unit>& r) { codes.push_back(r.code()); };
    bookies[0]->addEntry(1, 1, payload("mid-flush")).onComplete(record);
    bookies[0]->addEntry(1, 2, payload("queued")).onComplete(record);
    bookies[0]->crash();
    ASSERT_EQ(codes.size(), 2u);
    EXPECT_EQ(codes[0], Err::Unavailable);
    EXPECT_EQ(codes[1], Err::Unavailable);
    EXPECT_FALSE(bookies[0]->alive());
    EXPECT_EQ(bookies[0]->readEntry(1, 0).code(), Err::Unavailable);
    EXPECT_EQ(bookies[0]->addEntry(1, 3, payload("x")).result().code(), Err::Unavailable);
    exec.runUntilIdle();  // the orphaned disk write completes harmlessly

    bookies[0]->restart();
    EXPECT_TRUE(bookies[0]->alive());
    EXPECT_EQ(bookies[0]->crashCount(), 1u);
    // Journal replay: the acknowledged entry survives, the unsynced do not.
    EXPECT_EQ(toString(bookies[0]->readEntry(1, 0).value().view()), "durable");
    EXPECT_EQ(bookies[0]->readEntry(1, 1).code(), Err::NotFound);
    EXPECT_EQ(bookies[0]->lastEntry(1).value(), 0);
    EXPECT_EQ(bookies[0]->storedBytes(), 7u);

    // Fence markers are durable metadata: they survive a crash/restart.
    bookies[0]->fenceLedger(1);
    bookies[0]->crash();
    bookies[0]->restart();
    Status status;
    bookies[0]->addEntry(1, 4, payload("y")).onComplete([&](const Result<sim::Unit>& r) {
        status = r.status();
    });
    exec.runUntilIdle();
    EXPECT_EQ(status.code(), Err::Fenced);
}

TEST_F(WalFixture, AcksStayInOrderWhenLaterEntryQuorumCompletesFirst) {
    // Ensemble [fast, slow] with writeQuorum=2, ackQuorum=1. Entry 0's
    // request to the fast bookie is dropped on the wire, so its only copy
    // lands via the slow bookie (5 ms fsync); entry 1 reaches its quorum on
    // the fast bookie almost immediately. Entry 1 must NOT acknowledge
    // before entry 0 does (prefix durability).
    makeBookies(1);  // fast: default 50 us fsync
    diskCfg.fsyncLatency = sim::msec(5);
    disks.push_back(std::make_unique<sim::DiskModel>(exec, diskCfg));
    bookies.push_back(std::make_unique<Bookie>(exec, 101, *disks.back(), Bookie::Config{}));

    LedgerId id = registry.create(bookiePtrs());
    ReplicationConfig repl;
    repl.ensembleSize = 2;
    repl.writeQuorum = 2;
    repl.ackQuorum = 1;
    LedgerHandle handle(exec, net, 1, registry, id, repl);

    net.link(1, 100).dropNext(1);  // silently lose entry 0 -> fast bookie
    std::vector<EntryId> acked;
    std::vector<sim::TimePoint> ackedAt;
    for (int i = 0; i < 2; ++i) {
        handle.addEntry(payload("e" + std::to_string(i)))
            .onComplete([&](const Result<EntryId>& r) {
                ASSERT_TRUE(r.isOk());
                acked.push_back(r.value());
                ackedAt.push_back(exec.now());
            });
    }
    exec.runFor(sim::msec(2));
    // Entry 1 already has an ack quorum (fast bookie) but is gated on
    // entry 0, which is still in the slow bookie's journal.
    EXPECT_TRUE(acked.empty());
    exec.runUntilIdle();
    ASSERT_EQ(acked.size(), 2u);
    EXPECT_EQ(acked[0], 0);
    EXPECT_EQ(acked[1], 1);
    // Both resolve at the same instant: entry 0's confirmation releases the
    // already-quorate entry 1 in the same drain.
    EXPECT_EQ(ackedAt[0], ackedAt[1]);
    EXPECT_GE(ackedAt[0], sim::msec(5));
    // The dropped copy never reached the fast bookie, so entry 0 is still
    // short of the full write quorum (re-replication buffer retains it).
    EXPECT_EQ(handle.unackedToFullQuorumBytes(), 2u);
    EXPECT_EQ(net.droppedMessages(), 1u);
}

TEST_F(WalFixture, EnsembleChangeReplacesCrashedBookie) {
    makeBookies(5);
    registry.setBookiePool(bookiePtrs());
    auto pool = bookiePtrs();
    std::vector<Bookie*> ensemble(pool.begin(), pool.begin() + 3);
    LedgerId id = registry.create(ensemble);
    LedgerHandle handle(exec, net, 1, registry, id, ReplicationConfig{});

    std::vector<EntryId> acked;
    auto append = [&](int n) {
        for (int i = 0; i < n; ++i) {
            handle.addEntry(payload("entry")).onComplete([&](const Result<EntryId>& r) {
                ASSERT_TRUE(r.isOk()) << r.status().toString();
                acked.push_back(r.value());
            });
        }
    };
    append(3);
    exec.runUntilIdle();
    bookies[1]->crash();
    append(4);
    exec.runUntilIdle();

    // All appends acknowledged, in order, despite the crash.
    ASSERT_EQ(acked.size(), 7u);
    for (int i = 0; i < 7; ++i) EXPECT_EQ(acked[static_cast<size_t>(i)], i);
    EXPECT_EQ(handle.ensembleChanges(), 1u);
    // The replacement (first pool bookie outside the ensemble) now holds the
    // re-replicated entries; the metadata reflects the swap.
    auto* info = registry.find(id);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->ensemble.size(), 3u);
    EXPECT_TRUE(std::find(info->ensemble.begin(), info->ensemble.end(),
                          bookies[3].get()) != info->ensemble.end());
    EXPECT_EQ(info->everMembers.size(), 4u);
    EXPECT_EQ(bookies[3]->lastEntry(id).value(), 6);
}

TEST_F(WalFixture, WriteTimeoutReplacesSilentlyPartitionedBookie) {
    // A partition is a silent blackhole (no error response); only the
    // per-entry write timeout can detect it.
    makeBookies(4);
    registry.setBookiePool(bookiePtrs());
    auto pool = bookiePtrs();
    std::vector<Bookie*> ensemble(pool.begin(), pool.begin() + 3);
    LedgerId id = registry.create(ensemble);
    ReplicationConfig repl;
    repl.writeTimeout = sim::msec(50);
    LedgerHandle handle(exec, net, 1, registry, id, repl);

    net.partition(1, bookies[2]->host());
    std::vector<EntryId> acked;
    for (int i = 0; i < 3; ++i) {
        handle.addEntry(payload("entry")).onComplete([&](const Result<EntryId>& r) {
            ASSERT_TRUE(r.isOk()) << r.status().toString();
            acked.push_back(r.value());
        });
    }
    // The ack quorum (2 of 3) is reachable, so entries confirm promptly...
    exec.runFor(sim::msec(10));
    EXPECT_EQ(acked.size(), 3u);
    EXPECT_EQ(handle.ensembleChanges(), 0u);
    // ...and the timeout later swaps the unreachable bookie so the write
    // quorum recovers (re-replication buffer drains).
    EXPECT_GT(handle.unackedToFullQuorumBytes(), 0u);
    exec.runUntilIdle();
    EXPECT_EQ(handle.ensembleChanges(), 1u);
    EXPECT_EQ(handle.unackedToFullQuorumBytes(), 0u);
    EXPECT_EQ(bookies[3]->lastEntry(id).value(), 2);
}

TEST_F(WalFixture, DegradesToSurvivorsWhenNoSpareBookie) {
    makeBookies(3);
    registry.setBookiePool(bookiePtrs());
    LedgerId id = registry.create(bookiePtrs());
    LedgerHandle handle(exec, net, 1, registry, id, ReplicationConfig{});

    bookies[2]->crash();
    std::vector<EntryId> acked;
    for (int i = 0; i < 3; ++i) {
        handle.addEntry(payload("entry")).onComplete([&](const Result<EntryId>& r) {
            ASSERT_TRUE(r.isOk()) << r.status().toString();
            acked.push_back(r.value());
        });
    }
    exec.runUntilIdle();
    // No spare: the ensemble degrades to 2 members, which still meets the
    // ack quorum, so appends remain available.
    ASSERT_EQ(acked.size(), 3u);
    EXPECT_EQ(handle.ensembleChanges(), 0u);

    // Losing a second bookie leaves 1 < ackQuorum: appends must fail fast.
    bookies[1]->crash();
    Status status;
    handle.addEntry(payload("entry")).onComplete([&](const Result<EntryId>& r) {
        status = r.status();
    });
    exec.runUntilIdle();
    EXPECT_EQ(status.code(), Err::Unavailable);
}

TEST_F(WalFixture, RecoveryReadsEntriesHeldOnlyByReplacedBookies) {
    // Entries written before an ensemble change may live only on the
    // since-replaced bookies; recovery must consult them (everMembers).
    makeBookies(4);
    registry.setBookiePool(bookiePtrs());
    auto pool = bookiePtrs();
    std::vector<Bookie*> ensemble(pool.begin(), pool.begin() + 3);
    LedgerId id = registry.create(ensemble);
    {
        LedgerHandle writer(exec, net, 1, registry, id, ReplicationConfig{});
        for (int i = 0; i < 3; ++i) writer.addEntry(payload("old-" + std::to_string(i)));
        exec.runUntilIdle();
        bookies[0]->crash();
        for (int i = 0; i < 3; ++i) writer.addEntry(payload("new-" + std::to_string(i)));
        exec.runUntilIdle();
        EXPECT_EQ(writer.ensembleChanges(), 1u);
        bookies[0]->restart();
    }
    auto recovered = LedgerHandle::recoverAndClose(registry, id);
    ASSERT_TRUE(recovered.isOk());
    ASSERT_EQ(recovered.value().size(), 6u);
    EXPECT_EQ(toString(recovered.value()[0].view()), "old-0");
    EXPECT_EQ(toString(recovered.value()[5].view()), "new-2");
}

TEST_F(WalFixture, LogClientSurvivesBookieCrash) {
    makeBookies(5);
    LogClient::Config cfg;
    cfg.repl.ensembleSize = 3;
    LogClient log(env(), 1, /*logId=*/3, cfg);
    ASSERT_TRUE(log.recover().isOk());

    int acked = 0;
    for (int i = 0; i < 5; ++i) {
        log.append(payload("pre-" + std::to_string(i)))
            .onComplete([&](const Result<LogAddress>& r) { acked += r.isOk(); });
    }
    exec.runUntilIdle();
    ASSERT_EQ(acked, 5);

    // Crash a bookie that holds this log's ledger, then keep appending.
    Bookie* victim = nullptr;
    for (auto& b : bookies) {
        if (b->storedBytes() > 0) {
            victim = b.get();
            break;
        }
    }
    ASSERT_NE(victim, nullptr);
    victim->crash();
    for (int i = 0; i < 5; ++i) {
        log.append(payload("post-" + std::to_string(i)))
            .onComplete([&](const Result<LogAddress>& r) { acked += r.isOk(); });
    }
    exec.runUntilIdle();
    EXPECT_EQ(acked, 10);
    EXPECT_GE(log.ensembleChanges(), 1u);

    // A fresh owner recovers every acknowledged append, in order.
    LogClient fresh(env(), 2, 3, cfg);
    auto recovered = fresh.recover();
    ASSERT_TRUE(recovered.isOk());
    ASSERT_EQ(recovered.value().size(), 10u);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(recovered.value()[static_cast<size_t>(i)].first.sequence, i);
    }
}

TEST_F(WalFixture, EnsembleRotationSpreadsLogs) {
    makeBookies(5);
    LogClient::Config cfg;
    cfg.repl.ensembleSize = 3;
    // With enough distinct log ids, every bookie should store something.
    for (uint64_t logId = 0; logId < 10; ++logId) {
        LogClient log(env(), 1, logId, cfg);
        log.recover();
        log.append(payload("x"));
        exec.runUntilIdle();
    }
    int withData = 0;
    for (auto& b : bookies) {
        if (b->storedBytes() > 0) ++withData;
    }
    EXPECT_EQ(withData, 5);
}

}  // namespace
}  // namespace pravega::wal
