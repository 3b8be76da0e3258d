#include "ml/tree/bagged_m5.h"

#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace mtperf {

BaggedM5::BaggedM5(BaggedM5Options options) : options_(std::move(options))
{
    if (options_.bags == 0)
        mtperf_fatal("BaggedM5: need at least one bag");
    checkM5Options(options_.treeOptions, "BaggedM5");
}

void
BaggedM5::fit(const Dataset &train)
{
    if (train.empty())
        mtperf_fatal("BaggedM5: empty training set");
    numAttributes_ = train.numAttributes();
    trees_.clear();

    // Draw every bootstrap resample from the single seeded stream
    // first (exactly as the serial loop did), then fit the bags
    // concurrently: tree construction is the expensive part and each
    // bag writes only its own slot.
    Rng rng(options_.seed);
    std::vector<std::vector<std::size_t>> samples(
        options_.bags, std::vector<std::size_t>(train.size()));
    for (std::size_t b = 0; b < options_.bags; ++b) {
        // Bootstrap resample with replacement, same size as train.
        for (auto &idx : samples[b])
            idx = rng.uniformInt(std::uint64_t(train.size()));
    }

    trees_.resize(options_.bags);
    globalPool().parallelFor(options_.bags, [&](std::size_t b) {
        const Dataset bag = train.subset(samples[b]);
        auto tree = std::make_unique<M5Prime>(options_.treeOptions);
        tree->fit(bag);
        trees_[b] = std::move(tree);
    });
}

double
BaggedM5::predict(std::span<const double> row) const
{
    mtperf_assert(!trees_.empty(), "predict() before fit()");
    double acc = 0.0;
    for (const auto &tree : trees_)
        acc += tree->predict(row);
    return acc / static_cast<double>(trees_.size());
}

void
BaggedM5::predictBatch(std::span<const double> rows, std::size_t width,
                       std::span<double> out) const
{
    mtperf_assert(!trees_.empty(), "predictBatch() before fit()");
    mtperf_assert(rows.size() == out.size() * width,
                  "batch size mismatch: ", rows.size(), " values for ",
                  out.size(), " rows of width ", width);
    // One task per member tree; averaging runs serially in tree order
    // afterwards, which is the same floating-point addition order as
    // the per-row predict() loop.
    const auto per_tree =
        parallelMap(globalPool(), trees_.size(), [&](std::size_t t) {
            std::vector<double> p(out.size());
            trees_[t]->predictBatch(rows, width, p);
            return p;
        });
    for (std::size_t r = 0; r < out.size(); ++r) {
        double acc = 0.0;
        for (const auto &p : per_tree)
            acc += p[r];
        out[r] = acc / static_cast<double>(trees_.size());
    }
}

const M5Prime &
BaggedM5::tree(std::size_t i) const
{
    mtperf_assert(i < trees_.size(), "tree index out of range");
    return *trees_[i];
}

std::vector<std::size_t>
BaggedM5::splitFrequency() const
{
    mtperf_assert(!trees_.empty(), "splitFrequency() before fit()");
    std::vector<std::size_t> frequency(numAttributes_, 0);
    for (const auto &tree : trees_) {
        for (std::size_t attr : tree->splitAttributes())
            ++frequency[attr];
    }
    return frequency;
}

} // namespace mtperf
