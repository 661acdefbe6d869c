// Kafka-like baseline (§5, "Apache Kafka 2.6" comparisons).
//
// Models the design properties the paper attributes Kafka's behaviour to,
// on the same simulated hardware as Pravega:
//   - one log FILE PER PARTITION on the broker drive (no multiplexing): at
//     high partition counts the drive pays a file-switch cost per flush,
//     which is the §5.6 degradation;
//   - page-cache writes by default (no fsync before ack; the §5.2
//     durability trade-off) vs flush.messages=1 (fsync per produce batch);
//   - leader/follower replication with acks=all, min.insync.replicas=2;
//   - client-side batching only: linger.ms + batch.size per partition,
//     sticky partitioner without keys, hash partitioning with keys (the
//     §5.3/§5.5 routing-key effect: random keys spread events thin across
//     per-partition batches).
//
// Payloads are modeled by size only (the data path cost is bytes, not
// content); producer→consumer latency is tracked per produce batch.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sim/models.h"
#include "sim/network.h"

namespace pravega::baselines {

using MessageAck = std::function<void(Status)>;

struct KafkaConfig {
    int brokers = 3;
    /// log.flush.interval.messages=1 — fsync before every ack (§5.2).
    bool flushEveryMessage = false;

    // Producer knobs (defaults per §5.1: 128KB / 1ms).
    uint64_t batchBytes = 128 * 1024;
    sim::Duration lingerTime = sim::msec(1);
    uint64_t maxPendingBytes = 32 * 1024 * 1024;  // producer buffer.memory

    sim::CpuModel::Config cpu;
    sim::DiskModel::Config disk;
};

class KafkaCluster;

/// Producer handle: per-partition batching with linger/size close rules.
class KafkaProducer {
public:
    KafkaProducer(KafkaCluster& cluster, sim::HostId clientHost, std::string topic,
                  uint64_t seed);

    /// `key` empty → sticky partitioner; otherwise hash partitioning.
    void send(std::string_view key, uint32_t sizeBytes, MessageAck ack);
    void flush();

    uint64_t pendingBytes() const { return pendingBytes_; }

private:
    friend class KafkaCluster;
    struct Batch {
        int partition = 0;
        uint64_t bytes = 0;
        uint32_t events = 0;
        sim::TimePoint openedAt = 0;
        std::vector<MessageAck> acks;
    };

    void closeBatch(int partition);
    void trySend(int brokerId);
    void armLinger(int partition);

    KafkaCluster& cluster_;
    sim::HostId clientHost_;
    std::string topic_;
    std::map<int, Batch> open_;                 // partition → open batch
    std::map<int, std::deque<Batch>> queued_;   // broker → ready batches
    std::map<int, int> inFlight_;               // broker → outstanding requests
    std::map<int, uint64_t> lingerEpoch_;
    uint64_t pendingBytes_ = 0;
    int stickyPartition_ = 0;
    uint64_t stickyBytes_ = 0;
    uint64_t rngState_;
};

/// Consumer handle: long-poll fetch of one partition, reporting per-batch
/// end-to-end latency (produce time → delivery).
class KafkaConsumer {
public:
    using Delivery = std::function<void(uint32_t events, uint64_t bytes, sim::Duration e2e)>;

    KafkaConsumer(KafkaCluster& cluster, sim::HostId clientHost, std::string topic,
                  int partition, Delivery onDelivery);
    ~KafkaConsumer();

private:
    friend class KafkaCluster;
    void fetchLoop();

    KafkaCluster& cluster_;
    sim::HostId clientHost_;
    std::string topic_;
    int partition_;
    Delivery onDelivery_;
    int64_t offset_ = 0;
    std::shared_ptr<bool> alive_;
};

class KafkaCluster {
public:
    KafkaCluster(sim::Core& exec, sim::Network& net, sim::HostId firstBrokerHost,
                 KafkaConfig cfg);

    void createTopic(const std::string& name, int partitions);

    std::unique_ptr<KafkaProducer> makeProducer(sim::HostId clientHost,
                                                const std::string& topic);
    std::unique_ptr<KafkaConsumer> makeConsumer(sim::HostId clientHost,
                                                const std::string& topic, int partition,
                                                KafkaConsumer::Delivery onDelivery);

    const KafkaConfig& config() const { return cfg_; }
    uint64_t bytesProduced() const { return bytesProduced_; }
    uint64_t diskBytesWritten() const;

private:
    friend class KafkaProducer;
    friend class KafkaConsumer;

    struct BatchRecord {
        int64_t endOffset;
        uint32_t events;
        uint64_t bytes;
        sim::TimePoint producedAt;
    };
    struct Partition {
        int leader = 0;
        std::vector<int> followers;
        int64_t length = 0;
        /// Serialized leader-side append pipeline (see kPartitionBytesPerSec).
        std::unique_ptr<sim::QueuedResource> appendPipe;
        /// Page-cache bytes not yet written to disk, per replica broker.
        std::map<int, uint64_t> dirtyByBroker;
        std::deque<BatchRecord> records;  // for consumer delivery/latency
        std::vector<std::function<void()>> waiters;  // long-poll fetches
        bool hasConsumer = false;
    };
    struct Broker {
        sim::HostId host;
        std::unique_ptr<sim::CpuModel> cpu;
        std::unique_ptr<sim::DiskModel> disk;
    };
    struct Topic {
        std::vector<Partition> partitions;
    };

    /// Handles one produce request at the leader; `done` fires when the
    /// replication/durability requirements are satisfied.
    void produce(const std::string& topic, int partition, uint64_t bytes, uint32_t events,
                 sim::TimePoint producedAt, std::function<void(Status)> done);
    void pageFlushTick(int brokerId);
    uint64_t partitionFileId(const std::string& topic, int partition) const;
    Partition* find(const std::string& topic, int partition);

    sim::Core& exec_;
    sim::Network& net_;
    KafkaConfig cfg_;
    std::vector<Broker> brokers_;
    std::map<std::string, Topic> topics_;
    uint64_t bytesProduced_ = 0;
    uint64_t flushEpoch_ = 0;
};

}  // namespace pravega::baselines
