// Unit tests for common utilities: buffers, serialization, hashing, Result.
#include <gtest/gtest.h>

#include <cstring>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/result.h"
#include "common/serde.h"
#include "sim/random.h"

namespace pravega {
namespace {

TEST(SharedBufTest, EmptyByDefault) {
    SharedBuf buf;
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.view().size(), 0u);
}

TEST(SharedBufTest, WrapsBytes) {
    SharedBuf buf(toBytes("hello"));
    EXPECT_EQ(buf.size(), 5u);
    EXPECT_EQ(toString(buf.view()), "hello");
}

TEST(SharedBufTest, SliceSharesStorage) {
    SharedBuf buf(toBytes("hello world"));
    SharedBuf slice = buf.slice(6, 5);
    EXPECT_EQ(toString(slice.view()), "world");
    EXPECT_EQ(slice.data(), buf.data() + 6);  // zero copy
}

TEST(SharedBufTest, SliceClampsToBounds) {
    SharedBuf buf(toBytes("abc"));
    EXPECT_EQ(buf.slice(1, 100).size(), 2u);
    EXPECT_EQ(buf.slice(3, 1).size(), 0u);
    EXPECT_EQ(buf.slice(100, 1).size(), 0u);
}

TEST(SharedBufTest, NestedSlices) {
    SharedBuf buf(toBytes("0123456789"));
    SharedBuf mid = buf.slice(2, 6);   // "234567"
    SharedBuf inner = mid.slice(1, 3);  // "345"
    EXPECT_EQ(toString(inner.view()), "345");
}

TEST(SharedBufTest, CopyOfDetachesFromSource) {
    Bytes src = toBytes("data");
    SharedBuf buf = SharedBuf::copyOf(BytesView(src));
    src[0] = 'X';
    EXPECT_EQ(toString(buf.view()), "data");
}

TEST(SharedBufTest, WritableBufFreezesWithoutCopy) {
    WritableBuf w(8);
    ASSERT_EQ(w.size(), 8u);
    std::memcpy(w.data(), "abcdefgh", 8);
    const uint8_t* bytes = w.data();
    SharedBuf frozen = std::move(w).freeze(5);
    EXPECT_EQ(toString(frozen.view()), "abcde");
    EXPECT_EQ(frozen.data(), bytes);  // zero copy
    EXPECT_EQ(frozen.slice(2, 10).data(), bytes + 2);

    WritableBuf over(3);
    std::memcpy(over.data(), "xyz", 3);
    EXPECT_EQ(std::move(over).freeze(100).size(), 3u);  // clamped to the allocation
}

TEST(SerdeTest, FixedWidthRoundTrip) {
    Bytes out;
    BinaryWriter w(out);
    w.u8(0xAB);
    w.u16(0xBEEF);
    w.u32(0xDEADBEEF);
    w.u64(0x0123456789ABCDEFULL);
    w.i64(-42);
    w.f64(3.14159);

    BinaryReader r{BytesView(out)};
    EXPECT_EQ(r.u8().value(), 0xAB);
    EXPECT_EQ(r.u16().value(), 0xBEEF);
    EXPECT_EQ(r.u32().value(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64().value(), 0x0123456789ABCDEFULL);
    EXPECT_EQ(r.i64().value(), -42);
    EXPECT_DOUBLE_EQ(r.f64().value(), 3.14159);
    EXPECT_TRUE(r.atEnd());
}

TEST(SerdeTest, VarintBoundaries) {
    for (uint64_t v : std::vector<uint64_t>{0, 1, 127, 128, 16383, 16384, UINT64_MAX}) {
        Bytes out;
        BinaryWriter w(out);
        w.varint(v);
        BinaryReader r{BytesView(out)};
        EXPECT_EQ(r.varint().value(), v) << v;
    }
}

TEST(SerdeTest, StringsAndBytes) {
    Bytes out;
    BinaryWriter w(out);
    w.str("routing-key");
    w.bytes(toBytes("payload"));
    w.str("");

    BinaryReader r{BytesView(out)};
    EXPECT_EQ(r.str().value(), "routing-key");
    EXPECT_EQ(toString(r.bytes().value()), "payload");
    EXPECT_EQ(r.str().value(), "");
}

TEST(SerdeTest, ReadPastEndFails) {
    Bytes out;
    BinaryWriter w(out);
    w.u8(1);
    BinaryReader r{BytesView(out)};
    EXPECT_TRUE(r.u8().isOk());
    EXPECT_EQ(r.u64().code(), Err::IoError);
    EXPECT_EQ(r.str().code(), Err::IoError);
}

TEST(SerdeTest, TruncatedVarintFails) {
    Bytes out{0x80, 0x80};  // continuation bits with no terminator
    BinaryReader r{BytesView(out)};
    EXPECT_FALSE(r.varint().isOk());
}

class SerdeRandomRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerdeRandomRoundTrip, MixedRecords) {
    sim::Rng rng(GetParam());
    Bytes out;
    BinaryWriter w(out);
    std::vector<uint64_t> varints;
    std::vector<std::string> strings;
    for (int i = 0; i < 50; ++i) {
        uint64_t v = rng.next() >> static_cast<int>(rng.nextBounded(60));
        varints.push_back(v);
        w.varint(v);
        std::string s = rng.nextKey(1000000);
        strings.push_back(s);
        w.str(s);
    }
    BinaryReader r{BytesView(out)};
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(r.varint().value(), varints[static_cast<size_t>(i)]);
        EXPECT_EQ(r.str().value(), strings[static_cast<size_t>(i)]);
    }
    EXPECT_TRUE(r.atEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdeRandomRoundTrip, ::testing::Values(1, 2, 3, 42, 1234));

// Bytewise CRC-32/IEEE straight from the reflected-polynomial definition,
// the reference the slice-by-8 crc32 must match bit for bit.
uint32_t referenceCrc32(const uint8_t* data, size_t len, uint32_t seed = 0) {
    uint32_t c = seed ^ 0xFFFFFFFFu;
    for (size_t i = 0; i < len; ++i) {
        c ^= data[i];
        for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

Bytes randomBytes(uint64_t seed, size_t n) {
    sim::Rng rng(seed);
    Bytes b(n);
    for (auto& x : b) x = static_cast<uint8_t>(rng.next());
    return b;
}

TEST(HashTest, Crc32CheckVector) {
    const Bytes check = toBytes("123456789");
    EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(HashTest, Crc32MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
    // Lengths 0..1100 cover the bytewise tail alone, every tail length after
    // whole 8-byte words, and many words; the 8 start offsets cover every
    // alignment of the unaligned word loads.
    for (uint64_t seed : {1u, 2u, 3u}) {
        const Bytes buf = randomBytes(seed, 1100 + 8);
        for (size_t align = 0; align < 8; ++align) {
            for (size_t len = 0; len <= 1100; ++len) {
                const uint8_t* p = buf.data() + align;
                ASSERT_EQ(crc32(p, len), referenceCrc32(p, len))
                    << "seed " << seed << " align " << align << " len " << len;
            }
        }
    }
}

TEST(HashTest, Crc32ChainsAtEverySplit) {
    const Bytes buf = randomBytes(9, 4096);
    const uint32_t whole = crc32(buf.data(), buf.size());
    EXPECT_EQ(whole, referenceCrc32(buf.data(), buf.size()));
    for (size_t split = 0; split <= buf.size(); ++split) {
        const uint32_t head = crc32(buf.data(), split);
        ASSERT_EQ(crc32(buf.data() + split, buf.size() - split, head), whole) << "split " << split;
    }
}

TEST(HashTest, KeyHashInUnitInterval) {
    sim::Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double h = keyHash01(rng.nextKey(1u << 30));
        EXPECT_GE(h, 0.0);
        EXPECT_LT(h, 1.0);
    }
}

TEST(HashTest, KeyHashDeterministic) {
    EXPECT_EQ(keyHash01("sensor-1"), keyHash01("sensor-1"));
    EXPECT_NE(keyHash01("sensor-1"), keyHash01("sensor-2"));
}

TEST(HashTest, KeyHashRoughlyUniform) {
    // 10k random keys over 10 buckets: each bucket should get 600..1400.
    sim::Rng rng(11);
    int buckets[10] = {};
    for (int i = 0; i < 10000; ++i) {
        ++buckets[static_cast<int>(keyHash01(rng.nextKey(1u << 31)) * 10)];
    }
    for (int b : buckets) {
        EXPECT_GT(b, 600);
        EXPECT_LT(b, 1400);
    }
}

TEST(HashTest, ContainerAssignmentCoversAllContainers) {
    // 1000 segment ids over 8 containers: every container gets some.
    int counts[8] = {};
    for (uint64_t id = 0; id < 1000; ++id) ++counts[containerFor(id, 8)];
    for (int c : counts) EXPECT_GT(c, 0);
}

TEST(HashTest, ContainerAssignmentStateless) {
    EXPECT_EQ(containerFor(12345, 16), containerFor(12345, 16));
    EXPECT_EQ(containerFor(7, 0), 0u);  // degenerate case
}

TEST(ResultTest, OkValue) {
    Result<int> r(42);
    ASSERT_TRUE(r.isOk());
    EXPECT_EQ(r.value(), 42);
    EXPECT_EQ(r.code(), Err::Ok);
}

TEST(ResultTest, ErrorPropagates) {
    Result<int> r(Err::Sealed, "segment sealed");
    EXPECT_FALSE(r.isOk());
    EXPECT_EQ(r.code(), Err::Sealed);
    EXPECT_EQ(r.status().message(), "segment sealed");
    EXPECT_EQ(r.valueOr(-1), -1);
}

TEST(ResultTest, StatusToString) {
    EXPECT_EQ(Status(Err::BadVersion, "key k").toString(), "BadVersion: key k");
    EXPECT_EQ(Status::ok().toString(), "Ok");
}

TEST(RngTest, Deterministic) {
    sim::Rng a(99), b(99);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, ExponentialMean) {
    sim::Rng rng(5);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) sum += rng.nextExp(10.0);
    EXPECT_NEAR(sum / n, 10.0, 0.3);
}

}  // namespace
}  // namespace pravega
