#include "client/kv_table.h"

namespace pravega::client {

Result<std::unique_ptr<KeyValueTable>> KeyValueTable::create(sim::Core& exec,
                                                             sim::Network& net,
                                                             sim::HostId clientHost,
                                                             controller::Controller& controller,
                                                             const std::string& scopedName) {
    auto uri = controller.createInternalSegment("_kvtables/" + scopedName, /*isTable=*/true);
    if (!uri) return uri.status();
    return std::unique_ptr<KeyValueTable>(
        new KeyValueTable(exec, net, clientHost, uri.value()));
}

KeyValueTable::KeyValueTable(sim::Core& exec, sim::Network& net, sim::HostId clientHost,
                             controller::SegmentUri uri)
    : exec_(exec),
      net_(net),
      clientHost_(clientHost),
      uri_(std::move(uri)),
      alive_(std::make_shared<bool>(true)) {}

template <typename T, typename Fn>
sim::Future<T> KeyValueTable::roundTrip(uint64_t requestBytes, Fn serverFn) {
    sim::Promise<T> done;
    auto fut = done.future();
    auto alive = alive_;
    net_.send(clientHost_, uri_.store->host(), requestBytes + sim::kWireOverheadBytes,
              [this, alive, serverFn = std::move(serverFn), done]() mutable {
                  auto* container = uri_.store->container(uri_.containerId);
                  if (!container) {
                      done.setError(Err::ContainerOffline, "kv table container offline");
                      return;
                  }
                  serverFn(container).onComplete([this, alive, done](const Result<T>& r) mutable {
                      net_.send(uri_.store->host(), clientHost_, sim::kWireOverheadBytes,
                                [done, r]() mutable { done.complete(r); });
                  });
              });
    return fut;
}

sim::Future<int64_t> KeyValueTable::put(const std::string& key, Bytes value,
                                        int64_t expectedVersion) {
    std::vector<segmentstore::TableUpdate> batch(1);
    batch[0].key = key;
    batch[0].value = std::move(value);
    batch[0].expectedVersion = expectedVersion;
    uint64_t bytes = key.size() + batch[0].value->size();
    segmentstore::SegmentId table = uri_.record.id;
    return roundTrip<int64_t>(bytes, [table, batch = std::move(batch)](
                                         segmentstore::SegmentContainer* c) mutable {
        return c->tableUpdate(table, std::move(batch))
            .then([](const std::vector<int64_t>& versions) { return versions.at(0); });
    });
}

sim::Future<std::optional<segmentstore::TableValue>> KeyValueTable::get(const std::string& key) {
    using Out = std::optional<segmentstore::TableValue>;
    segmentstore::SegmentId table = uri_.record.id;
    return roundTrip<Out>(key.size(), [table, key](segmentstore::SegmentContainer* c) {
        auto r = c->tableGet(table, key);
        if (r.isOk()) return sim::Future<Out>::ready(Out(r.value()));
        if (r.code() == Err::NotFound && c->getInfo(table).isOk()) {
            return sim::Future<Out>::ready(Out(std::nullopt));
        }
        return sim::Future<Out>::failed(r.status());
    });
}

sim::Future<sim::Unit> KeyValueTable::remove(const std::string& key, int64_t expectedVersion) {
    std::vector<segmentstore::TableUpdate> batch(1);
    batch[0].key = key;
    batch[0].value = std::nullopt;
    batch[0].expectedVersion = expectedVersion;
    segmentstore::SegmentId table = uri_.record.id;
    return roundTrip<sim::Unit>(
        key.size(),
        [table, batch = std::move(batch)](segmentstore::SegmentContainer* c) mutable {
            return c->tableUpdate(table, std::move(batch))
                .then([](const std::vector<int64_t>&) { return sim::Unit{}; });
        });
}

sim::Future<std::vector<int64_t>> KeyValueTable::updateAll(
    std::vector<segmentstore::TableUpdate> batch) {
    uint64_t bytes = 0;
    for (const auto& u : batch) bytes += u.key.size() + (u.value ? u.value->size() : 0);
    segmentstore::SegmentId table = uri_.record.id;
    return roundTrip<std::vector<int64_t>>(
        bytes, [table, batch = std::move(batch)](segmentstore::SegmentContainer* c) mutable {
            return c->tableUpdate(table, std::move(batch));
        });
}

}  // namespace pravega::client
