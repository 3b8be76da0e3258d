/**
 * @file
 * google-benchmark probes of the simulator's two hottest component
 * models: the workload stream generator and the cache lookup. Run
 * them to see a hot-path change in isolation; end-to-end speed is
 * measured by perfbench (see perfbench/README.md).
 */

#include <benchmark/benchmark.h>

#include "uarch/cache.h"
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

} // namespace

BENCHMARK_MAIN();
