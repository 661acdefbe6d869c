// Cold archive tier behind ChunkStorage (TALICS³-style tape library).
//
// ArchiveTierChunkStorage decorates a primary chunk store (the object-store
// tier) with a second, much slower store whose access profile is a tape
// library: a mount penalty when the chunk's cartridge is not already on a
// drive, a per-access seek, then streaming at tape bandwidth. Chunks start
// life in the primary tier; a periodic scan migrates chunks that have been
// idle past `minIdle` — or, while the primary footprint exceeds
// `primaryCapacityBytes`, the least-recently-appended chunks (oldest
// `lastAppend` first, and never one written within `kPressureMinIdle`) — by
// copying them to the archive and then removing
// the primary copy. Reads stay address-transparent: a caller never learns a
// chunk moved except through latency (deep-read first byte) — payload bytes
// are identical either way, which is exactly what the fig12 archive
// ablation asserts.
//
// Cartridge placement hashes the chunk's segment prefix, so the chunks of
// one segment share a cartridge: a historical catch-up read of one segment
// pays one mount and then streams, while scans across segments pay a mount
// per cartridge switch (bounded by the drive pool).
//
// Migration ordering is crash-consistent by construction: copy to archive
// (charging a tape write), flip routing to the archive, and only then
// remove the primary copy. A chunk removed mid-migration aborts the
// migration and cleans up its archive copy. Appends stay routed to the
// primary tier while a migration is in flight; before flipping routing the
// migration re-checks that the chunk did not grow past its snapshot
// (`bytes`/`lastAppend` vs migration start) and aborts — dropping the
// archive copy, keeping the primary one — if it did, so a racing append is
// never destroyed. A later scan retries once the chunk is quiet again.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "lts/chunk_storage.h"
#include "obs/metrics.h"
#include "sim/machine.h"
#include "sim/models.h"

namespace pravega::lts {

class ArchiveTierChunkStorage : public ChunkStorage {
public:
    /// Floor on victim idleness under size pressure: a chunk appended within
    /// this window is never migrated, so an actively-written tail chunk
    /// cannot race its own appends (migrate() additionally aborts if an
    /// append lands mid-flight).
    static constexpr sim::Duration kPressureMinIdle = sim::msec(100);

    struct Config {
        /// A chunk with no appends for this long becomes migratable (age
        /// policy).
        sim::Duration minIdle = sim::sec(5);
        /// Primary-tier footprint above which the scan also migrates
        /// not-yet-idle chunks, least-recently-appended first, until the
        /// projected footprint is back under the cap (size policy).
        uint64_t primaryCapacityBytes = UINT64_MAX;
        /// Cadence of the migration scan. <= 0 disables the automatic scan
        /// (tests drive `scanNow()` directly).
        sim::Duration scanInterval = sim::sec(1);
        /// Migration fan-out cap per scan tick, so a backlog of cold chunks
        /// drains gradually instead of monopolizing the tape drives.
        int maxMigrationsPerScan = 8;
    };

    ArchiveTierChunkStorage(sim::Core& exec, ChunkStorage& primary, Config cfg);
    ArchiveTierChunkStorage(sim::Core& exec, ChunkStorage& primary)
        : ArchiveTierChunkStorage(exec, primary, Config{}) {}
    ~ArchiveTierChunkStorage() override { *alive_ = false; }

    sim::Future<sim::Unit> create(const std::string& name) override;
    sim::Future<sim::Unit> append(const std::string& name, BufChain data) override;
    sim::Future<SharedBuf> read(const std::string& name, uint64_t offset,
                                uint64_t length) override;
    sim::Future<sim::Unit> remove(const std::string& name) override;
    Result<ChunkInfo> stat(const std::string& name) const override;

    uint64_t totalBytes() const override {
        return primary_.totalBytes() + archMem_.totalBytes();
    }
    double backlogSeconds() const override { return primary_.backlogSeconds(); }
    uint64_t readOps() const override { return primary_.readOps() + archReadOps_; }

    /// Runs one migration scan immediately (deterministic test hook; the
    /// periodic scan calls this too).
    void scanNow();

    uint64_t archivedChunks() const { return archivedChunks_; }
    uint64_t archivedBytes() const { return archivedBytes_; }
    uint64_t primaryBytes() const { return primaryBytes_; }
    uint64_t archiveReads() const { return archReadOps_; }
    const sim::TapeLibraryModel& tape() const { return tape_; }
    const Config& config() const { return cfg_; }

private:
    struct Meta {
        uint64_t bytes = 0;          // stored length as seen by this layer
        sim::TimePoint lastAppend = 0;
        bool archived = false;
        bool migrating = false;
    };

    uint64_t cartridgeFor(const std::string& name) const;
    void migrate(const std::string& name);
    void scheduleScan();

    sim::Core& exec_;
    ChunkStorage& primary_;
    Config cfg_;
    /// Liveness token for the periodic scan timer (scheduleWeak holds a raw
    /// `this` inside the machine, which can outlive this object).
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
    InMemoryChunkStorage archMem_;  // archive data plane (timing via tape_)
    sim::TapeLibraryModel tape_;
    std::map<std::string, Meta> meta_;
    uint64_t primaryBytes_ = 0;
    uint64_t archivedBytes_ = 0;
    uint64_t archivedChunks_ = 0;
    uint64_t archReadOps_ = 0;

    obs::Counter& mMigrations_;
    obs::Counter& mMigratedBytes_;
    obs::Counter& mReads_;
    obs::Counter& mReadBytes_;
    obs::Gauge& mArchivedBytes_;
    obs::Gauge& mPrimaryBytes_;
};

}  // namespace pravega::lts
