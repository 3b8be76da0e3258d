/**
 * @file
 * google-benchmark probes of the simulator's hottest component
 * models: the workload stream generator, its Zipf address sampler,
 * the cache lookup and the load/store queue's load check. Run them to
 * see a hot-path change in isolation; end-to-end speed is measured by
 * perfbench (see perfbench/README.md).
 */

#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "uarch/cache.h"
#include "uarch/lsq.h"
#include "workload/spec_suite.h"
#include "workload/stream_gen.h"

namespace {

using namespace mtperf;
using namespace mtperf::workload;

void
BM_StreamGeneratorOnly(benchmark::State &state)
{
    StreamGenerator gen(suiteWorkload("mcf_like").phases[0].params, 99);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamGeneratorOnly);

/** One Zipf draw over @p lines with exponent @p s: the generator's
 *  hot-line, data-footprint and code-footprint shapes (mcf_like). */
void
BM_ZipfSample(benchmark::State &state, std::uint64_t lines, double s)
{
    const ZipfSampler zipf(lines, s);
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_ZipfSample, hot, 256, 1.2);
BENCHMARK_CAPTURE(BM_ZipfSample, data, 1572864, 0.85);
BENCHMARK_CAPTURE(BM_ZipfSample, code, 384, 1.1);

void
BM_CacheAccess(benchmark::State &state)
{
    uarch::Cache cache(uarch::CacheConfig{"bench", 32 * 1024, 8, 64,
                                          false, 1});
    uarch::Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr));
        addr += 64;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

/** Loads checked against the store buffer, in gcc_like's stream of
 *  loads and stores (stores are recorded between the timed loads). */
void
BM_LsqCheckLoad(benchmark::State &state)
{
    StreamGenerator gen(suiteWorkload("gcc_like").phases[0].params, 99);
    std::vector<uarch::MicroOp> ops;
    std::vector<std::uint64_t> seqs;
    for (std::uint64_t seq = 0; ops.size() < 65536; ++seq) {
        const uarch::MicroOp op = gen.next();
        if (op.cls == uarch::OpClass::Load ||
            op.cls == uarch::OpClass::Store) {
            ops.push_back(op);
            seqs.push_back(seq);
        }
    }
    uarch::LoadStoreQueue lsq;
    std::size_t i = 0;
    std::uint64_t loads = 0;
    for (auto _ : state) {
        // Wrapping restarts the sequence numbers, so start afresh.
        if (i == ops.size()) {
            i = 0;
            lsq.reset();
        }
        const uarch::MicroOp &op = ops[i];
        if (op.cls == uarch::OpClass::Store) {
            lsq.recordStore(op.addr, op.size, op.storeAddrSlow, seqs[i]);
        } else {
            benchmark::DoNotOptimize(lsq.checkLoad(op.addr, op.size,
                                                   seqs[i]));
            ++loads;
        }
        ++i;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(loads));
}
BENCHMARK(BM_LsqCheckLoad);

} // namespace

BENCHMARK_MAIN();
