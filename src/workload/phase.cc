#include "workload/phase.h"

#include <iomanip>

#include "common/logging.h"

namespace mtperf::workload {

namespace {

void
checkFraction(double value, const char *field, const std::string &phase)
{
    if (value < 0.0 || value > 1.0) {
        mtperf_fatal("phase '", phase, "': ", field,
                     " must lie in [0, 1], got ", value);
    }
}

} // namespace

void
PhaseParams::validate() const
{
    checkFraction(loadFrac, "loadFrac", name);
    checkFraction(storeFrac, "storeFrac", name);
    checkFraction(branchFrac, "branchFrac", name);
    checkFraction(fpAddFrac, "fpAddFrac", name);
    checkFraction(fpMulFrac, "fpMulFrac", name);
    checkFraction(fpDivFrac, "fpDivFrac", name);
    checkFraction(intMulFrac, "intMulFrac", name);
    const double mix = loadFrac + storeFrac + branchFrac + fpAddFrac +
                       fpMulFrac + fpDivFrac + intMulFrac;
    if (mix > 1.0) {
        mtperf_fatal("phase '", name,
                     "': instruction mix fractions sum to ",
                     std::setprecision(17), mix, " (> 1)");
    }
    checkFraction(pointerChaseFrac, "pointerChaseFrac", name);
    checkFraction(chasePageLocalFrac, "chasePageLocalFrac", name);
    checkFraction(streamFrac, "streamFrac", name);
    if (pointerChaseFrac + streamFrac > 1.0) {
        mtperf_fatal("phase '", name,
                     "': pointerChaseFrac + streamFrac exceeds 1");
    }
    checkFraction(branchEntropy, "branchEntropy", name);
    checkFraction(takenBias, "takenBias", name);
    checkFraction(farJumpFrac, "farJumpFrac", name);
    checkFraction(depNoneFrac, "depNoneFrac", name);
    checkFraction(lcpFrac, "lcpFrac", name);
    checkFraction(misalignedFrac, "misalignedFrac", name);
    checkFraction(storeForwardFrac, "storeForwardFrac", name);
    checkFraction(storeForwardPartialFrac, "storeForwardPartialFrac",
                  name);
    checkFraction(storeAddrSlowFrac, "storeAddrSlowFrac", name);
    if (depGeoP <= 0.0 || depGeoP > 1.0)
        mtperf_fatal("phase '", name, "': depGeoP must lie in (0, 1]");
    checkFraction(hotFrac, "hotFrac", name);
    if (workingSetBytes == 0)
        mtperf_fatal("phase '", name, "': workingSetBytes must be > 0");
    if (hotBytes == 0)
        mtperf_fatal("phase '", name, "': hotBytes must be > 0");
    if (codeFootprintBytes == 0)
        mtperf_fatal("phase '", name, "': codeFootprintBytes must be > 0");
    if (strideBytes == 0)
        mtperf_fatal("phase '", name, "': strideBytes must be > 0");
    if (zipfS <= 0.0 || codeZipfS <= 0.0)
        mtperf_fatal("phase '", name, "': zipf exponents must be > 0");
}

std::size_t
WorkloadSpec::totalSections() const
{
    std::size_t total = 0;
    for (const auto &phase : phases)
        total += phase.sections;
    return total;
}

} // namespace mtperf::workload
