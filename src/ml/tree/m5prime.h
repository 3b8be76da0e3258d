/**
 * @file
 * The M5' model-tree learner (Quinlan 1992; Wang & Witten 1997).
 *
 * This is the paper's core algorithm: a binary regression tree whose
 * leaves carry multi-variate linear models. Construction follows the
 * classical recipe:
 *
 *  1. *Grow*: recursively split on the (attribute, value) pair that
 *     maximizes the standard-deviation reduction (SDR), stopping when
 *     a node is too small (pre-pruning; the paper used a minimum of
 *     430 instances) or its target deviation falls below a fraction
 *     of the root deviation.
 *  2. *Model*: at every node fit a linear model over the attributes
 *     referenced by split tests in the subtree below it plus the
 *     split variables on the path to it (a grown leaf thus regresses
 *     on the variables that define its class), then greedily drop
 *     terms under the pessimistic (n+v)/(n-v) error estimate —
 *     which is how constant leaves like the paper's LM18 arise.
 *  3. *Prune*: bottom-up, replace a subtree with its node model when
 *     the model's estimated error is no worse than the subtree's.
 *  4. *Smooth*: blend each leaf model with its ancestors' models,
 *     p' = (n p + k q) / (n + k) with k = 15, compiled into the leaf
 *     coefficients so the printed models are exactly what predicts.
 *
 * Steps 1 and 3 run through the grower and prune walk the CART
 * baseline shares (split_search.h); this class owns steps 2 and 4.
 *
 * The class exposes the full structure — leaves, their linear models,
 * split paths, and per-leaf training coverage — because the paper's
 * analysis ("what" limits performance, "how much" is recoverable)
 * reads those artifacts directly.
 */

#ifndef MTPERF_ML_TREE_M5PRIME_H_
#define MTPERF_ML_TREE_M5PRIME_H_

#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "ml/linear/linear_model.h"
#include "ml/regressor.h"

namespace mtperf {

class FlatTree;
struct TreeNode;

/** Tunable knobs for M5' construction. */
struct M5Options
{
    /**
     * Minimum training instances per leaf (each side of any split must
     * keep at least this many). WEKA's default is 4; the paper
     * determined 430 experimentally for its counter dataset.
     */
    std::size_t minInstances = 4;

    /**
     * Stop splitting once a node's target standard deviation drops
     * below this fraction of the root standard deviation.
     */
    double sdFraction = 0.05;

    /** Run the bottom-up pruning pass. */
    bool prune = true;

    /** Compile Quinlan's smoothing into the leaf models. */
    bool smooth = true;

    /** Smoothing constant k in p' = (n p + k q) / (n + k). */
    double smoothingK = 15.0;

    /** Greedily drop model terms under the compensated error. */
    bool simplifyModels = true;

    /** Maximum tree depth (safety valve; 0 = unlimited). */
    std::size_t maxDepth = 0;
};

/**
 * @throw FatalError naming @p learner unless minInstances >= 1 and
 * sdFraction and smoothingK are finite and >= 0. Every learner built
 * on M5' checks its options here when it is constructed.
 */
void checkM5Options(const M5Options &options, const std::string &learner);

/** One decision on a root-to-leaf path. */
struct PathStep
{
    std::size_t attr = 0;   //!< split attribute index
    double value = 0.0;     //!< split threshold
    bool goesRight = false; //!< true if the path takes attr > value
};

/** Public description of one interior split node. */
struct SplitSite
{
    std::vector<PathStep> pathTo; //!< decisions that reach the node
    std::size_t attr = 0;         //!< attribute this node tests
    double value = 0.0;           //!< threshold this node tests
    std::size_t count = 0;        //!< training instances at the node
};

/** Public description of one leaf (performance class). */
struct LeafInfo
{
    std::size_t id = 0;          //!< dense leaf index, left-to-right
    std::size_t count = 0;       //!< training instances in the leaf
    double trainFraction = 0.0;  //!< count / training-set size
    double meanTarget = 0.0;     //!< mean target of the leaf's instances
    double sdTarget = 0.0;       //!< target std-dev of the leaf's instances
    std::vector<PathStep> path;  //!< root-to-leaf decision rules
};

/** M5' model tree regressor. */
class M5Prime : public Regressor
{
  public:
    explicit M5Prime(M5Options options = {});
    ~M5Prime() override;

    M5Prime(M5Prime &&) noexcept;
    M5Prime &operator=(M5Prime &&) noexcept;
    M5Prime(const M5Prime &) = delete;
    M5Prime &operator=(const M5Prime &) = delete;

    void fit(const Dataset &train) override;
    double predict(std::span<const double> row) const override;

    /**
     * Batch prediction, chunk-parallel over the global pool. Each
     * chunk runs through the FlatTree compilation of this tree:
     * level-by-level block descent plus leaf-grouped term-major
     * linear-model evaluation on flat arrays — the same arithmetic in
     * the same order as the scalar walk, so the result is
     * bit-identical to per-row predict() at any thread count. This is
     * the server's hot path.
     */
    void predictBatch(std::span<const double> rows, std::size_t width,
                      std::span<double> out) const override;

    std::string name() const override { return "M5Prime"; }

    /** Configuration clone; the fitted tree is not copied (use save/load). */
    std::unique_ptr<Regressor>
    clone() const override
    {
        return std::make_unique<M5Prime>(options_);
    }

    const M5Options &options() const { return options_; }

    /** @name Structure introspection (valid after fit()) */
    ///@{

    /** Number of leaves (performance classes). */
    std::size_t numLeaves() const;

    /** Maximum root-to-leaf depth (a lone leaf has depth 0). */
    std::size_t depth() const;

    /** Total number of nodes. */
    std::size_t numNodes() const;

    /** Leaf reached by @p row. */
    std::size_t leafIndexFor(std::span<const double> row) const;

    /** Descriptive record for leaf @p leaf. */
    const LeafInfo &leafInfo(std::size_t leaf) const;

    /** The (possibly smoothed) linear model that predicts in @p leaf. */
    const LinearModel &leafModel(std::size_t leaf) const;

    /** All split attributes used anywhere in the tree, de-duplicated. */
    std::vector<std::size_t> splitAttributes() const;

    /** Every interior split node, in depth-first (pre-order) order. */
    std::vector<SplitSite> splitSites() const;

    /**
     * Attribute of the root split, or nullopt when the tree is a
     * single leaf.
     */
    std::optional<std::size_t> rootSplitAttribute() const;

    /**
     * WEKA-style rendering: indented split rules, leaves labelled
     * "LM<n> (<count>/<percent>%)", followed by the model listing.
     */
    std::string toString() const;

    /** Render to a stream (same format as toString()). */
    void print(std::ostream &os) const;
    ///@}

    /** @name Persistence */
    ///@{

    /**
     * Serialize the fitted tree (schema, options, structure and leaf
     * models) to a line-based text format that load() reads back.
     * Format v2 appends a "checksum <hex8>" CRC32 footer covering the
     * whole body, so any bit flip or truncation is detected on load.
     * @pre fit() has been called.
     */
    void save(std::ostream &os) const;

    /**
     * Save to a file path, atomically (temp file + rename): a killed
     * process never leaves a partial model at @p path.
     * @throw FatalError on I/O failure.
     */
    void saveFile(const std::string &path) const;

    /**
     * Reconstruct a fitted tree from save() output. The loaded tree
     * predicts identically to the saved one. Only format v2 loads: its
     * checksum footer is verified before the body is parsed.
     * @throw FatalError on malformed or corrupt input, naming
     * @p source (defaults to "<stream>") and the cause.
     */
    static M5Prime load(std::istream &is);
    static M5Prime load(std::istream &is, const std::string &source);

    /** Load from a file path. @throw FatalError on I/O failure. */
    static M5Prime loadFile(const std::string &path);

    /** Schema the tree was trained over (valid after fit or load). */
    const Schema &schema() const { return schema_; }
    ///@}

  private:
    struct BuildCtx; //!< path-attribute bookkeeping for buildModels

    /** Serialize everything but the checksum footer. */
    void writeBody(std::ostream &os) const;

    /**
     * List in ctx.fits the model fit of every node under @p node with
     * the attributes it may use (a lone root leaf gets its constant
     * model here instead).
     * @return the attributes split on in @p node's subtree, ascending.
     */
    std::vector<std::size_t> buildModels(TreeNode &node, BuildCtx &ctx);
    /** Run every fit buildModels() listed, on the pool when large. */
    void fitNodeModels(BuildCtx &ctx);
    /**
     * Fit (and optionally simplify) one node's model over @p attrs
     * through the Gram-cached fitter, caching its MAE for pruning.
     */
    void fitNodeModel(const Dataset &ds, TreeNode &node,
                      std::vector<std::size_t> attrs) const;
    void smoothLeaves(TreeNode &node,
                      std::vector<const TreeNode *> &ancestors);
    void collectLeaves(TreeNode &node, std::vector<PathStep> &path);
    /** Recompute the cached splitAttributes() answer from leaves_. */
    void refreshSplitAttributes();
    /** Compile root_ into flat_ (after fit() and load()). */
    void buildFlatTree();

    M5Options options_;
    Schema schema_;
    std::unique_ptr<TreeNode> root_;
    std::size_t trainSize_ = 0;
    std::vector<LeafInfo> leaves_;
    std::vector<const TreeNode *> leafNodes_;
    std::vector<std::size_t> splitAttributes_; //!< sorted, de-duplicated
    std::unique_ptr<FlatTree> flat_; //!< batch-inference compilation
};

} // namespace mtperf

#endif // MTPERF_ML_TREE_M5PRIME_H_
