// perfbench: the repository benchmark.
//
//   perfbench --workload <ingest-tail|catchup-read|fleet-skew> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Repeats the workload with the same seed until --seconds have passed: one
// warm-up repetition, then at least four measured ones (in traced mode at
// least two untraced and two traced, alternating). Modelled metrics must
// repeat exactly across repetitions; host metrics are medians over the
// measured repetitions, except wall_s (see measuredWallS). The last stdout
// line is one JSON object {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics; traced runs report the
// per-layer metrics and write their spans to <out-dir>.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"
#include "client/framing.h"
#include "common/hash.h"
#include "common/logging.h"
#include "lts/chunk_codec.h"
#include "obs/histogram.h"

using namespace perfbench;

namespace {

struct Metric {
    const char* name;
    const char* unit;
};

// Kept in the order of BENCHMARK.json.
const Metric kEndToEnd[] = {
    {"ack_p50_ms", "ms"},     {"ack_p999_ms", "ms"},  {"deliver_p50_ms", "ms"},
    {"deliver_p999_ms", "ms"}, {"peak_mbps", "MB/s"}, {"catchup_mbps", "MB/s"},
    {"load_ratio", "ratio"},  {"ok_frac", "ratio"},   {"wall_s", "s"},
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},
};

const Metric kPerLayer[] = {
    {"client.events_per_block", "count"},
    {"client.batch_wait_p50_ms", "ms"},
    {"client.write_host_ns", "ns"},
    {"client.encode_host_ns", "ns"},
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.host_drift", "ratio"},
    {"sim.disk.util", "ratio"},
    {"sim.net.queue_p99_ms", "ms"},
    {"store.queue_p50_ms", "ms"},
    {"store.queue_p99_ms", "ms"},
    {"store.ops_per_frame", "count"},
    {"store.cache.hit_ratio", "ratio"},
    {"store.read.coalesced_ratio", "ratio"},
    {"store.prefetch.useful_ratio", "ratio"},
    {"store.prefetch.wasted_mb", "MB"},
    {"store.throttle.ms", "ms"},
    {"store.writer.flush_p50_ms", "ms"},
    {"store.checkpoints", "count"},
    {"wal.commit_p50_ms", "ms"},
    {"wal.commit_p99_ms", "ms"},
    {"wal.journal_sync_p99_ms", "ms"},
    {"wal.entries_per_flush", "count"},
    {"wal.truncations", "count"},
    {"lts.ops", "count"},
    {"lts.op_p50_ms", "ms"},
    {"lts.codec.ratio", "ratio"},
    {"lts.codec.decode_p50_ms", "ms"},
    {"lts.codec.decodes_per_block", "ratio"},
    {"lts.codec.host_ns_per_kib", "ns"},
    {"lts.checksum_failures", "count"},
    {"ctrl.rebalance.moves", "count"},
    {"ctrl.rebalance.ticks", "count"},
    {"ctrl.autoscale.splits", "count"},
    {"ctrl.quota.throttled_frac", "ratio"},
    {"wl.setup_host_s", "s"},
    {"cluster.build_host_s", "s"},
    {"cluster.stream_create_host_s", "s"},
    {"common.crc32.host_ns_per_kib", "ns"},
    {"obs.record_host_ns", "ns"},
    {"bench.gen_host_s", "s"},
    {"bench.trace_overhead", "ratio"},
};

struct Args {
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string outDir = ".";
};

bool parseArgs(int argc, char** argv, Args& a) {
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds") a.seconds = std::atof(v.c_str());
        else if (k == "--trace") a.trace = std::atoi(v.c_str());
        else if (k == "--out-dir") a.outDir = v;
        else return false;
    }
    return !a.workload.empty() && a.seconds > 0 && (a.trace == 0 || a.trace == 1);
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string num(double v) {
    if (!std::isfinite(v)) v = 0;  // only a failed run gets here; keep the JSON valid
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string jsonEscape(const std::string& s) {
    std::string out;
    for (char ch : s) {
        if (ch == '"' || ch == '\\') out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
    }
    return out;
}

// ------------------------------------------------------- host fingerprint

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
    unsigned int regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned int i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002 + i, &regs[i * 4], &regs[i * 4 + 1], &regs[i * 4 + 2],
                        &regs[i * 4 + 3]);
        }
        std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
        s = s.c_str();
        while (!s.empty() && s.front() == ' ') s.erase(s.begin());
        return s;
    }
#endif
    return "unknown";
}

int onlineCpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

std::string hostJson() {
    return std::string("{\"nproc\": ") + std::to_string(onlineCpus()) + ", \"cpu\": \"" +
           jsonEscape(cpuModel()) + "\", \"compiler\": \"" + jsonEscape(__VERSION__) +
           "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"}";
}

double peakRssMb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// --------------------------------------------------- layer micro-timings

/// Results of the timed calls land here so the compiler cannot drop them.
volatile uint64_t g_sink = 0;

/// Median over `batches` of host ns per unit for `fn`, which does `units`
/// units of work per call.
template <typename Fn>
double timePerUnit(int batches, double units, Fn fn) {
    std::vector<double> v;
    for (int b = 0; b < batches; ++b) {
        int64_t t0 = hostNowNs();
        fn();
        v.push_back(static_cast<double>(hostNowNs() - t0) / units);
    }
    return median(v);
}

/// Times the layer functions that simulator-speed work targets, called
/// directly on the benchmark's own payloads.
void microTimings(uint64_t seed, std::map<std::string, double>& out, std::vector<std::string>& errs) {
    PayloadPool pool(seed, 4 * 1024 * 1024);
    constexpr size_t kKiB = 1024;

    out["common.crc32.host_ns_per_kib"] = timePerUnit(7, 4096, [&] {
        g_sink = g_sink + crc32(pool.at(0), pool.size());
    });

    // Codec round trip: append 1 MiB in 64 KiB blocks, then read it back.
    constexpr size_t kBlock = 64 * kKiB, kTotal = 1024 * kKiB;
    bool codecOk = true;
    out["lts.codec.host_ns_per_kib"] = timePerUnit(5, kTotal / kKiB, [&] {
        sim::Machine m;
        lts::InMemoryChunkStorage mem;
        lts::CodecChunkStorage codec(m, mem);
        codec.create("c");
        m.runUntilIdle();
        for (size_t off = 0; off < kTotal; off += kBlock) {
            codec.append("c", BufChain::copyOf(BytesView(pool.at(off), kBlock)));
        }
        m.runUntilIdle();
        auto f = codec.read("c", 0, kTotal);
        m.runUntilIdle();
        if (!f.isReady() || !f.result().isOk() || f.result().value().size() != kTotal ||
            std::memcmp(f.result().value().view().data(), pool.at(0), kTotal) != 0) {
            codecOk = false;
        }
    });
    if (!codecOk) errs.push_back("codec round trip returned different bytes");

    // encodeEvent on 1 KiB event payloads.
    Bytes block;
    block.reserve(1100 * 1024);
    out["client.encode_host_ns"] = timePerUnit(7, 1024, [&] {
        block.clear();
        for (size_t i = 0; i < 1024; ++i) {
            client::encodeEvent(block, BytesView(pool.at(i * 997), 1024));
        }
    });
    g_sink = g_sink + block.size();

    // Histogram record over a spread of durations.
    std::vector<sim::Duration> durations(1 << 16);
    sim::Rng rng(seed);
    for (auto& d : durations) d = static_cast<sim::Duration>(rng.nextBounded(50'000'000));
    obs::LatencyHistogram hist;
    out["obs.record_host_ns"] = timePerUnit(7, static_cast<double>(durations.size()), [&] {
        for (auto d : durations) hist.record(d);
    });
    g_sink = g_sink + hist.count();
}

// -------------------------------------------------------------- host time

/// Host seconds of the measured phase. Every repetition runs the same seed,
/// so its measured phase is the same sequence of simulation slices doing
/// the same work; the shared host slows some slices of some repetitions in
/// bursts. Each slice counts with its fastest repetition, and the host time
/// outside the slices (small: the benchmark's own loop bodies) with its
/// median. A slower program is slower in every repetition, so this moves
/// with the program and not with the bursts.
double measuredWallS(const std::vector<RepResult>& reps) {
    if (reps.empty()) return 0;
    const size_t n = reps.front().slices.size();
    std::vector<double> outside;
    std::vector<int64_t> fastest(n, std::numeric_limits<int64_t>::max());
    for (const auto& rep : reps) {
        if (rep.slices.size() != n) {
            // Only a failed repetition can slice differently; fall back.
            std::vector<double> wall;
            for (const auto& r : reps) wall.push_back(r.wallS);
            return median(wall);
        }
        int64_t inside = 0;
        for (size_t i = 0; i < n; ++i) {
            inside += rep.slices[i].hostNs;
            fastest[i] = std::min(fastest[i], rep.slices[i].hostNs);
        }
        outside.push_back(rep.wallS - static_cast<double>(inside) / 1e9);
    }
    int64_t sum = 0;
    for (int64_t ns : fastest) sum += ns;
    return static_cast<double>(sum) / 1e9 + median(outside);
}

// ----------------------------------------------------------------- output

void writeTrace(const Args& a, const Tracer& tracer, const RepResult& rep) {
    // One file per workload, replaced by each traced run: a traced
    // ingest-tail run records ~3M spans (~300 MB).
    std::string path = a.outDir + "/spans-" + a.workload + ".jsonl";
    std::ofstream f(path);
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    f << "{\"host\": " << hostJson() << ", \"workload\": \"" << a.workload
      << "\", \"seed\": " << a.seed << ", \"slices\": [";
    for (size_t i = 0; i < rep.slices.size(); ++i) {
        const Slice& s = rep.slices[i];
        f << (i ? ", " : "") << "{\"host_ns\": " << s.hostNs << ", \"events\": " << s.events
          << ", \"host_ns_per_event\": "
          << num(s.events ? static_cast<double>(s.hostNs) / static_cast<double>(s.events) : 0)
          << "}";
    }
    f << "]}\n";
    for (const auto& s : tracer.spans()) {
        f << "{\"name\": \"" << s.name << "\", \"start\": " << s.start << ", \"end\": " << s.end
          << ", \"parent\": " << s.parent << "}\n";
    }
    std::fprintf(stderr, "perfbench: wrote %zu spans to %s\n", tracer.spans().size(),
                 path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <ingest-tail|catchup-read|fleet-skew> "
                     "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n");
        return 2;
    }
    RepResult (*fn)(uint64_t, Ctx&) = nullptr;
    if (a.workload == "ingest-tail") fn = runIngestTail;
    else if (a.workload == "catchup-read") fn = runCatchupRead;
    else if (a.workload == "fleet-skew") fn = runFleetSkew;
    else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
        return 2;
    }

    // Keep freed memory in the heap for the next repetition instead of
    // returning it to the kernel: otherwise every repetition page-faults its
    // GBs of cache blocks and bookie entries in afresh, and that kernel time
    // varies with the load of the rest of the host.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
    // Containers log a warning each when a world is torn down; expected here.
    pravega::setLogLevel(pravega::LogLevel::Error);
    const int64_t begin = hostNowNs();
    const bool traced = a.trace == 1;
    // Rep 0 warms the process up (allocator, page faults, caches): it is
    // checked like every other repetition, but its host times are dropped.
    std::vector<RepResult> warmup, plain, withTrace;
    std::unique_ptr<Tracer> lastTracer;
    std::vector<std::string> errors;
    for (int i = 0;; ++i) {
        bool traceThis = traced && i > 0 && i % 2 == 0;
        auto tracer = traceThis ? std::make_unique<Tracer>() : nullptr;
        Ctx ctx;
        ctx.tracer = tracer.get();
        RepResult rep = fn(a.seed, ctx);
        rep.slices = ctx.slices;
        std::fprintf(stderr, "perfbench: %s seed %llu rep %d%s: setup %.3f s, wall %.3f s\n",
                     a.workload.c_str(), static_cast<unsigned long long>(a.seed), i,
                     traceThis ? " (traced)" : "", rep.setupS, rep.wallS);
        for (const auto& e : rep.errors) errors.push_back("rep " + std::to_string(i) + ": " + e);
        (i == 0 ? warmup : traceThis ? withTrace : plain).push_back(std::move(rep));
        if (traceThis) lastTracer = std::move(tracer);
        if (!errors.empty()) break;
        double elapsed = static_cast<double>(hostNowNs() - begin) / 1e9;
        size_t minPlain = traced ? 2 : 4, minTraced = traced ? 2 : 0;
        if (elapsed >= a.seconds && plain.size() >= minPlain && withTrace.size() >= minTraced) {
            break;
        }
    }

    // Same seed, same modelled world: every repetition must agree exactly.
    const RepResult& ref = warmup.front();
    for (const auto* reps : {&plain, &withTrace}) {
        for (const auto& rep : *reps) {
            if (rep.errors.empty() &&
                (rep.modelled != ref.modelled || rep.fingerprint != ref.fingerprint)) {
                errors.push_back("modelled metrics differ between same-seed repetitions");
            }
        }
    }

    uint64_t attempted = 0, failed = 0;
    for (const auto* reps : {&warmup, &plain, &withTrace}) {
        for (const auto& rep : *reps) {
            attempted += rep.attempted;
            failed += rep.failed;
        }
    }
    if (failed > 0 && errors.empty()) errors.push_back("failed operations");
    for (const auto& e : errors) std::fprintf(stderr, "perfbench: FAILED: %s\n", e.c_str());

    std::map<std::string, double> values;
    if (!traced) {
        values = ref.modelled;
        std::vector<double> setup;
        for (const auto& rep : plain) setup.push_back(rep.setupS);
        values["wall_s"] = measuredWallS(plain);
        values["setup_s"] = median(setup);
        values["peak_rss_mb"] = peakRssMb();
        values["ok_frac"] = attempted ? 1.0 - static_cast<double>(failed) /
                                                  static_cast<double>(attempted)
                                      : 0.0;
    } else {
        std::map<std::string, std::vector<double>> layer;
        for (const auto& rep : withTrace) {
            for (const auto& [k, v] : rep.layer) layer[k].push_back(v);
        }
        for (const auto& [k, v] : layer) values[k] = median(v);
        if (!plain.empty() && !withTrace.empty()) {
            values["bench.trace_overhead"] = measuredWallS(withTrace) / measuredWallS(plain);
        }
        microTimings(a.seed, values, errors);
        if (lastTracer) writeTrace(a, *lastTracer, withTrace.back());
    }

    // Context for the result line: host fingerprint, repetitions, and the
    // sample counts behind the latency percentiles.
    auto samples = [&](const char* k) {
        auto it = ref.fingerprint.find(k);
        return it == ref.fingerprint.end() ? 0.0 : it->second;
    };
    std::vector<double> repWalls;
    for (const auto& rep : plain) repWalls.push_back(rep.wallS);
    std::printf("{\"host\": %s, \"reps\": %zu, \"traced_reps\": %zu, \"ack_samples\": %.0f, "
                "\"deliver_samples\": %.0f, \"slices\": %zu, \"rep_wall_median_s\": %s}\n",
                hostJson().c_str(), plain.size(), withTrace.size(), samples("ack_samples"),
                samples("deliver_samples"), ref.slices.size(), num(median(repWalls)).c_str());
    std::string out = std::string("{\"correct\": ") + (errors.empty() ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    bool first = true;
    auto emit = [&](const Metric& m) {
        auto it = values.find(m.name);
        double v = it == values.end() ? 0.0 : it->second;  // layer idle in this workload
        out += std::string(first ? "" : ", ") + "\"" + m.name + "\": {\"value\": " + num(v) +
               ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    };
    if (traced) {
        for (const auto& m : kPerLayer) emit(m);
    } else {
        for (const auto& m : kEndToEnd) emit(m);
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return errors.empty() ? 0 : 1;
}
