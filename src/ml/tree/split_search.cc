#include "ml/tree/split_search.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mtperf {

namespace {

/**
 * Bits per radix digit: 8 digits of 256 counters. Wider digits take
 * fewer passes over large columns but clear and prefix-sum more
 * counters per column, which small fits (M5Rules, bagging) pay.
 */
constexpr std::size_t kRadixBits = 8;
constexpr std::size_t kRadixBuckets = std::size_t{1} << kRadixBits;
constexpr std::size_t kRadixDigits = 64 / kRadixBits;
constexpr std::uint64_t kRadixMask = kRadixBuckets - 1;

/**
 * A key whose unsigned order is the order of @p v as a double, for
 * every value but NaN. Positives get the sign bit set and negatives
 * have every bit flipped, so larger magnitudes sort lower; -0.0 is
 * folded onto +0.0, which it compares equal to.
 */
std::uint64_t
orderedKey(double v)
{
    const std::uint64_t bits =
        v == 0.0 ? 0 : std::bit_cast<std::uint64_t>(v);
    const std::uint64_t sign = std::uint64_t{1} << 63;
    return bits ^ ((0 - (bits >> 63)) | sign);
}

/**
 * Write into @p rows the row ids 0..n-1 sorted by (value ascending,
 * row id ascending), the comparator order of bruteForceBestSplit(),
 * where row i's value is values[i * stride].
 *
 * A stable LSD radix sort on orderedKey(), in two halves: by the key's
 * low 32 bits, then by its high 32 bits. Each half scatters 64-bit
 * words holding its 32 key bits above the row id, one digit per pass,
 * and skips the digits every key shares. Each pass is stable, and the
 * first starts from row order, so equal keys stay in row id order.
 * @p keys, @p words and @p spare_words are n-entry scratch.
 */
void
sortRows(const double *values, std::size_t stride, std::size_t n,
         std::uint64_t *keys, std::uint64_t *words,
         std::uint64_t *spare_words, std::uint32_t *rows)
{
    // One pass counts every digit of every key.
    std::array<std::array<std::uint32_t, kRadixBuckets>, kRadixDigits>
        counts{};
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t key = orderedKey(values[i * stride]);
        keys[i] = key;
        for (std::size_t digit = 0; digit < kRadixDigits; ++digit)
            ++counts[digit][(key >> (digit * kRadixBits)) & kRadixMask];
    }
    std::array<bool, kRadixDigits> varies{};
    for (std::size_t digit = 0; n > 0 && digit < kRadixDigits; ++digit) {
        const std::uint64_t first =
            (keys[0] >> (digit * kRadixBits)) & kRadixMask;
        varies[digit] = counts[digit][first] != n;
    }

    // Scatter the words by digits [from, from + half) of the key,
    // which the words hold from bit 32 up; @p words ends up holding
    // the result.
    constexpr std::size_t half = kRadixDigits / 2;
    const auto scatter = [&](std::size_t from) {
        for (std::size_t digit = from; digit < from + half; ++digit) {
            if (!varies[digit])
                continue;
            std::uint32_t *offset = counts[digit].data();
            std::uint32_t sum = 0;
            for (std::size_t b = 0; b < kRadixBuckets; ++b) {
                const std::uint32_t count = offset[b];
                offset[b] = sum;
                sum += count;
            }
            const std::size_t shift = 32 + (digit - from) * kRadixBits;
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint64_t word = words[i];
                spare_words[offset[(word >> shift) & kRadixMask]++] = word;
            }
            std::swap(words, spare_words);
        }
    };
    constexpr std::uint64_t low = 0xffffffffu;
    const bool low_half_varies =
        std::find(varies.begin(), varies.begin() + half, true) !=
        varies.begin() + half;
    if (low_half_varies) {
        for (std::size_t i = 0; i < n; ++i)
            words[i] = (keys[i] << 32) | i;
        scatter(0);
        // Same row order, now carrying the high half of each key.
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t row = words[i] & low;
            words[i] = (keys[row] & ~low) | row;
        }
    } else {
        for (std::size_t i = 0; i < n; ++i)
            words[i] = (keys[i] & ~low) | i;
    }
    scatter(half);
    for (std::size_t i = 0; i < n; ++i)
        rows[i] = static_cast<std::uint32_t>(words[i]);
}

} // namespace

void
scanSplitCandidates(std::span<const double> keys,
                    std::span<const double> targets, std::size_t attr,
                    std::size_t min_instances, SplitChoice &best)
{
    const std::size_t n = keys.size();
    if (n == 0 || keys.front() == keys.back())
        return; // constant attribute at this node

    double left_sum = 0.0, left_sq = 0.0;
    double total_sum = 0.0, total_sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        total_sum += targets[i];
        total_sq += targets[i] * targets[i];
    }
    const auto dn = static_cast<double>(n);
    const double sd_all = std::sqrt(std::max(
        0.0, total_sq / dn - (total_sum / dn) * (total_sum / dn)));

    for (std::size_t i = 0; i + 1 < n; ++i) {
        left_sum += targets[i];
        left_sq += targets[i] * targets[i];
        const std::size_t nl = i + 1;
        const std::size_t nr = n - nl;
        if (nl < min_instances || nr < min_instances)
            continue;
        if (keys[i] == keys[i + 1])
            continue; // not a boundary between distinct values

        const auto dl = static_cast<double>(nl);
        const auto dr = static_cast<double>(nr);
        const double right_sum = total_sum - left_sum;
        const double right_sq = total_sq - left_sq;
        const double sd_l = std::sqrt(std::max(
            0.0, left_sq / dl - (left_sum / dl) * (left_sum / dl)));
        const double sd_r = std::sqrt(std::max(
            0.0, right_sq / dr - (right_sum / dr) * (right_sum / dr)));
        const double sdr = sd_all - (dl / dn) * sd_l - (dr / dn) * sd_r;
        const double value = 0.5 * (keys[i] + keys[i + 1]);
        if (splitBeats(best, sdr, attr, value)) {
            best.valid = true;
            best.sdr = sdr;
            best.attr = attr;
            best.value = value;
        }
    }
}

SplitChoice
bruteForceBestSplit(const Dataset &ds, std::span<const std::size_t> rows,
                    std::size_t min_instances)
{
    SplitChoice best;
    const std::size_t n = rows.size();
    std::vector<std::size_t> sorted(rows.begin(), rows.end());
    std::vector<double> keys(n), targets(n);

    for (std::size_t attr = 0; attr < ds.numAttributes(); ++attr) {
        std::sort(sorted.begin(), sorted.end(),
                  [&ds, attr](std::size_t a, std::size_t b) {
                      const double va = ds.value(a, attr);
                      const double vb = ds.value(b, attr);
                      if (va != vb)
                          return va < vb;
                      return a < b; // stable: row position breaks ties
                  });
        for (std::size_t i = 0; i < n; ++i) {
            keys[i] = ds.value(sorted[i], attr);
            targets[i] = ds.target(sorted[i]);
        }
        scanSplitCandidates(keys, targets, attr, min_instances, best);
    }
    return best;
}

void
PresortedColumns::build(const Dataset &ds)
{
    const std::size_t n = ds.size();
    const std::size_t d = ds.numAttributes();
    mtperf_assert(n < (std::size_t{1} << 32),
                  "presorted split search caps at 2^32 rows");

    goesLeft_.assign(n, 0);
    ids_.resize(n);
    std::iota(ids_.begin(), ids_.end(), 0u);
    scratch_.resize(n);
    keys_.resize(n);
    targets_.resize(n);

    // Read the raw row-major block: the key loop runs d * n times, and
    // per-element accessor calls (with their bounds asserts) would
    // dominate it.
    const double *flat = ds.flatValues().data();
    std::vector<std::uint64_t> keys(n), words(n), spare_words(n);
    cols_.assign(d, {});
    for (std::size_t attr = 0; attr < d; ++attr) {
        cols_[attr].resize(n);
        sortRows(flat + attr, d, n, keys.data(), words.data(),
                 spare_words.data(), cols_[attr].data());
    }
}

SplitChoice
PresortedColumns::bestSplit(const Dataset &ds, std::size_t lo,
                            std::size_t hi, std::size_t min_instances)
{
    mtperf_assert(built() && hi <= size() && lo <= hi,
                  "bestSplit over an invalid presorted range");
    SplitChoice best;
    const std::size_t n = hi - lo;
    const std::size_t d = cols_.size();
    const double *flat = ds.flatValues().data();
    const double *tgt = ds.targets().data();
    for (std::size_t attr = 0; attr < d; ++attr) {
        const std::uint32_t *col = cols_[attr].data() + lo;
        for (std::size_t i = 0; i < n; ++i) {
            keys_[i] = flat[col[i] * d + attr];
            targets_[i] = tgt[col[i]];
        }
        scanSplitCandidates({keys_.data(), n}, {targets_.data(), n},
                            attr, min_instances, best);
    }
    return best;
}

std::size_t
PresortedColumns::partition(const Dataset &ds, std::size_t lo,
                            std::size_t hi, std::size_t attr,
                            double value)
{
    mtperf_assert(built() && hi <= size() && lo <= hi,
                  "partition over an invalid presorted range");
    // Mark membership once; each column, and the row-id column, is
    // then split by a stable two-way pass (left rows compact in place,
    // right rows spill to the scratch buffer and copy back), preserving
    // the (value, row) order inside both halves.
    const std::size_t d = cols_.size();
    const double *flat = ds.flatValues().data();
    std::size_t n_left = 0;
    for (std::size_t i = lo; i < hi; ++i) {
        const std::uint32_t r = cols_[attr][i];
        const bool left = flat[r * d + attr] <= value;
        goesLeft_[r] = left ? 1 : 0;
        n_left += left ? 1 : 0;
    }
    const auto split = [&](std::vector<std::uint32_t> &col) {
        std::size_t out = lo;
        std::size_t spilled = 0;
        for (std::size_t i = lo; i < hi; ++i) {
            const std::uint32_t r = col[i];
            if (goesLeft_[r])
                col[out++] = r;
            else
                scratch_[spilled++] = r;
        }
        std::copy(scratch_.begin(),
                  scratch_.begin() +
                      static_cast<std::ptrdiff_t>(spilled),
                  col.begin() + static_cast<std::ptrdiff_t>(out));
    };
    for (auto &col : cols_)
        split(col);
    split(ids_);
    return lo + n_left;
}

namespace {

/** Mean and population standard deviation of targets over @p rows. */
void
targetStats(const Dataset &ds, std::span<const std::size_t> rows,
            double &mean_out, double &sd_out)
{
    const double *tgt = ds.targets().data();
    double sum = 0.0, sq = 0.0;
    for (std::size_t r : rows) {
        sum += tgt[r];
        sq += tgt[r] * tgt[r];
    }
    const auto n = static_cast<double>(rows.size());
    mean_out = rows.empty() ? 0.0 : sum / n;
    const double var = rows.empty() ? 0.0 : std::max(0.0, sq / n -
                                                     mean_out * mean_out);
    sd_out = std::sqrt(var);
}

/** State of one growTree() call. */
struct Grower
{
    const Dataset &ds;
    const GrowLimits &limits;
    double rootSd = 0.0;
    PresortedColumns cols{};

    /**
     * Grow the subtree at @p node, whose rows occupy range [lo, hi) of
     * every presorted column.
     */
    void
    grow(TreeNode &node, std::size_t lo, std::size_t hi, std::size_t depth)
    {
        node.count = node.rows.size();
        targetStats(ds, node.rows, node.meanTarget, node.sdTarget);
        if (depth == 0)
            rootSd = node.sdTarget;

        const bool too_small = node.count < 2 * limits.minInstances ||
                               node.count < 4;
        const bool pure = node.sdTarget < limits.sdFraction * rootSd;
        const bool too_deep =
            limits.maxDepth != 0 && depth >= limits.maxDepth;
        if (too_small || pure || too_deep)
            return;

        // Each feature column is sorted once (lazily, at the root — the
        // first node to search) and stably partitioned down the tree,
        // so every non-root search is a plain O(d * n) scan.
        // tree.sort_elided counts the per-attribute sorts the old
        // per-node algorithm would have run.
        static obs::Counter &sortElided = obs::counter("tree.sort_elided");
        if (!cols.built()) {
            obs::ScopedSpan span("tree", "tree.presort");
            cols.build(ds);
        } else {
            sortElided.add(ds.numAttributes());
        }
        const SplitChoice best =
            cols.bestSplit(ds, lo, hi, limits.minInstances);
        if (!best.valid)
            return;

        node.leaf = false;
        node.splitAttr = best.attr;
        node.splitValue = best.value;
        const std::size_t mid =
            cols.partition(ds, lo, hi, best.attr, best.value);
        mtperf_assert(lo < mid && mid < hi, "degenerate split");

        // The right range is untouched until its own turn, so each
        // child copies its rows just before it grows.
        const auto child = [&](std::unique_ptr<TreeNode> &slot,
                               std::size_t from, std::size_t to) {
            slot = std::make_unique<TreeNode>();
            const auto rows = cols.rows(from, to);
            slot->rows.assign(rows.begin(), rows.end());
            grow(*slot, from, to, depth + 1);
        };
        child(node.left, lo, mid);
        child(node.right, mid, hi);
    }
};

/** Raw residual and parameter count of a (sub)tree, for pruning. */
struct SubtreeCost
{
    double rawMae = 0.0;
    std::size_t parameters = 0;
};

SubtreeCost
pruneSubtree(TreeNode &node)
{
    const SubtreeCost own{node.modelMae, node.model.numParameters()};
    if (node.leaf)
        return own;

    const SubtreeCost left = pruneSubtree(*node.left);
    const SubtreeCost right = pruneSubtree(*node.right);
    const auto nl = static_cast<double>(node.left->count);
    const auto nr = static_cast<double>(node.right->count);

    SubtreeCost subtree;
    subtree.rawMae = (nl * left.rawMae + nr * right.rawMae) / (nl + nr);
    subtree.parameters = left.parameters + right.parameters + 1;

    // Quinlan's pessimistic compensation. Subtrees are charged for
    // every leaf-model parameter *and* every split threshold below the
    // node, so deep structure must buy a real residual reduction to
    // survive.
    const double subtree_err =
        compensatedError(subtree.rawMae, node.count, subtree.parameters);
    const double node_err =
        compensatedError(own.rawMae, node.count, own.parameters);
    if (node_err <= subtree_err) {
        node.leaf = true;
        node.left.reset();
        node.right.reset();
        return own;
    }
    return subtree;
}

} // namespace

void
checkGrowLimits(const GrowLimits &limits, const std::string &learner)
{
    if (limits.minInstances < 1)
        mtperf_fatal(learner, ": minInstances must be >= 1");
    if (!std::isfinite(limits.sdFraction) || limits.sdFraction < 0.0)
        mtperf_fatal(learner, ": sdFraction must be finite and >= 0");
}

std::unique_ptr<TreeNode>
growTree(const Dataset &ds, const GrowLimits &limits)
{
    auto root = std::make_unique<TreeNode>();
    root->rows.resize(ds.size());
    std::iota(root->rows.begin(), root->rows.end(), 0);
    Grower{.ds = ds, .limits = limits}.grow(*root, 0, ds.size(), 0);
    return root;
}

void
pruneTree(TreeNode &root)
{
    pruneSubtree(root);
}

const TreeNode &
leafFor(const TreeNode &root, std::span<const double> row)
{
    const TreeNode *node = &root;
    while (!node->leaf) {
        node = row[node->splitAttr] <= node->splitValue ? node->left.get()
                                                        : node->right.get();
    }
    return *node;
}

std::size_t
countLeaves(const TreeNode &root)
{
    if (root.leaf)
        return 1;
    return countLeaves(*root.left) + countLeaves(*root.right);
}

void
releaseRows(TreeNode &root)
{
    root.rows.clear();
    root.rows.shrink_to_fit();
    if (root.leaf)
        return;
    releaseRows(*root.left);
    releaseRows(*root.right);
}

} // namespace mtperf
