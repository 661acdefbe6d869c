// Fleet-scale aggregate-client workload driver (ROADMAP item 1).
//
// Models a multi-tenant fleet — thousands of streams, hundreds of
// thousands of producers — without a client object per producer. Each
// stream carries one ArrivalProcess (the aggregate of its producer
// population); a periodic driver tick samples every stream's arrival count
// for the window, draws Zipf-skewed routing keys, folds same-segment
// events into ONE aggregated append (eventCount carries the multiplicity,
// exactly the rate the auto-scaler and rebalancer consume), and issues it
// through the segment store's real request path: chargeRequest (CPU +
// cross-core mailbox hop) then container append (WAL, cache, storage
// writer). The cost per tick is O(active streams), not O(events).
//
// Determinism: every stream owns Rngs seeded from (fleet seed, stream
// index) only, so the generated sequence — counts, keys, checksum — is
// byte-identical across runs AND across machine core counts; the sharding
// property test pins this down. Routing uses the controller's epoch
// records, cached per stream and invalidated on epoch change or append
// error, mirroring how real clients chase scale events.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/pravega_cluster.h"
#include "controller/quota.h"
#include "workload/arrival.h"
#include "workload/zipf.h"

namespace pravega::workload {

/// One tenant: a scope holding `streams` look-alike streams whose rates
/// follow a Zipf profile (rank 0 is the tenant's hottest stream).
struct TenantSpec {
    std::string scope = "tenant";
    int streams = 1;
    /// Modeled producers per stream (population size; the aggregate rate
    /// is producersPerStream × producerEventsPerSec, Zipf-weighted across
    /// the tenant's streams).
    int producersPerStream = 1;
    double producerEventsPerSec = 1.0;
    uint32_t eventBytes = 256;
    /// Zipf θ over the tenant's streams (0 = uniform rates).
    double streamSkewTheta = 1.0;
    /// Zipf θ over routing keys within every stream (0 = uniform).
    double keySkewTheta = 1.0;
    uint64_t keysPerStream = 100;
    ArrivalProcess::Kind arrivals = ArrivalProcess::Kind::Poisson;
    std::vector<double> mmppFactors = {0.25, 1.75};
    sim::Duration mmppMeanDwell = sim::sec(1);
    DiurnalProfile diurnal;
    controller::StreamConfig streamConfig;
};

struct FleetConfig {
    std::vector<TenantSpec> tenants;
    sim::Duration tick = sim::msec(250);
    uint64_t seed = 42;
};

class FleetWorkload {
public:
    FleetWorkload(cluster::PravegaCluster& cluster, FleetConfig cfg);
    ~FleetWorkload();

    /// Creates every scope and stream, driving the simulation to drain
    /// each batch. Call once, from harness context, before start().
    Status setup();

    void start();
    void stop();

    /// Routes tenant throttle allowances through `quotas` (may be null).
    void attachQuotas(controller::TenantQuotaManager* quotas) { quotas_ = quotas; }

    // ---- scale facts ---------------------------------------------------
    uint64_t streamCount() const { return streams_.size(); }
    uint64_t modeledProducers() const;
    /// Long-run mean offered rate across the fleet (events/s).
    double nominalEventsPerSec() const;

    // ---- generation-side stats (independent of core count) -------------
    uint64_t offeredEvents() const { return offered_; }
    uint64_t throttledEvents() const { return throttled_; }
    /// Order-independent fold of every sampled routing key.
    uint64_t keyChecksum() const { return keyChecksum_; }
    uint64_t offeredFor(const std::string& scope) const;

    // ---- delivery-side stats (equal after a full drain) -----------------
    uint64_t sentEvents() const { return sent_; }
    uint64_t ackedEvents() const { return acked_; }
    uint64_t erroredEvents() const { return errored_; }
    uint64_t ackedFor(const std::string& scope) const;
    uint64_t inflightAppends() const { return inflight_; }

private:
    struct StreamState {
        std::string scopedName;
        size_t tenant = 0;
        ArrivalProcess proc;
        sim::Rng keyRng;
        const controller::StreamRecord* rec = nullptr;
        /// Routing cache: current-epoch segments, refreshed when the
        /// stream's epoch count changes or an append fails.
        std::vector<controller::SegmentRecord> segments;
        size_t cachedEpochs = 0;
        bool dirty = true;
        double quotaCarry = 0.0;

        StreamState(ArrivalProcess p, uint64_t keySeed)
            : proc(std::move(p)), keyRng(keySeed) {}
    };

    void armTimer();
    void tick();
    void routeAndSend(size_t streamIdx, uint64_t count);
    void sendBatch(size_t streamIdx, segmentstore::SegmentId segment, uint32_t count);
    SharedBuf payloadFor(uint64_t bytes);

    cluster::PravegaCluster& cluster_;
    FleetConfig cfg_;
    controller::TenantQuotaManager* quotas_ = nullptr;

    std::vector<StreamState> streams_;
    /// Per tenant: shared key sampler + precomputed key-rank → [0,1) hash.
    std::vector<std::unique_ptr<ZipfSampler>> keyZipf_;
    std::vector<std::vector<double>> keyHash_;
    std::vector<uint64_t> offeredPerTenant_;
    std::vector<uint64_t> ackedPerTenant_;
    std::map<uint64_t, SharedBuf> payloadCache_;

    sim::TimePoint lastTick_ = 0;
    uint64_t offered_ = 0;
    uint64_t sent_ = 0;
    uint64_t acked_ = 0;
    uint64_t errored_ = 0;
    uint64_t throttled_ = 0;
    uint64_t inflight_ = 0;
    uint64_t keyChecksum_ = 0;
    uint64_t epoch_ = 0;
    bool running_ = false;
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace pravega::workload
