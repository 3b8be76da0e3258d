#include "ml/tree/m5prime.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <ostream>
#include <sstream>

#include "common/atomic_file.h"
#include "common/checksum.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "ml/tree/flat_tree.h"
#include "ml/tree/split_search.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mtperf {

namespace {

/**
 * Guard a freshly fitted model against numeric blowup: a singular or
 * ill-conditioned regression can yield NaN/Inf coefficients, which
 * would poison every downstream prediction. Degrade to the node's
 * mean target (a constant model) instead — the same fallback M5'
 * already uses for leaves with no usable attributes.
 */
void
guardFiniteModel(LinearModel &model, double mean_target)
{
    bool finite = std::isfinite(model.intercept());
    for (const auto &term : model.terms())
        finite = finite && std::isfinite(term.coef);
    if (!finite) {
        model = LinearModel::constant(
            std::isfinite(mean_target) ? mean_target : 0.0);
    }
}

} // namespace

/** Path bookkeeping threaded through buildModels. */
struct M5Prime::BuildCtx
{
    const Dataset &ds;
    /** Occurrences of each attribute among the splits leading here. */
    std::vector<std::uint32_t> pathCount;
    std::size_t pathDepth = 0;
    /** Per-node presence scratch for building attribute lists. */
    std::vector<std::uint8_t> present;
};

namespace {

/** The stop rules M5' grows under. */
GrowLimits
growLimits(const M5Options &options)
{
    return {.minInstances = options.minInstances,
            .sdFraction = options.sdFraction,
            .maxDepth = options.maxDepth};
}

} // namespace

M5Prime::M5Prime(M5Options options) : options_(std::move(options))
{
    checkGrowLimits(growLimits(options_), "M5Prime");
    if (!std::isfinite(options_.smoothingK) || options_.smoothingK < 0.0)
        mtperf_fatal("M5Prime: smoothingK must be finite and >= 0");
}

M5Prime::~M5Prime() = default;
M5Prime::M5Prime(M5Prime &&) noexcept = default;
M5Prime &M5Prime::operator=(M5Prime &&) noexcept = default;

void
M5Prime::fit(const Dataset &train)
{
    if (train.empty())
        mtperf_fatal("M5Prime: empty training set");

    schema_ = train.schema();
    trainSize_ = train.size();
    leaves_.clear();
    leafNodes_.clear();

    std::size_t grown_nodes = 0;
    {
        obs::ScopedSpan span("tree", "tree.grow");
        root_ = growTree(train, growLimits(options_));
        grown_nodes = numNodes();
    }
    {
        obs::ScopedSpan span("tree", "tree.build_models");
        const std::size_t d = train.numAttributes();
        BuildCtx ctx{.ds = train,
                     .pathCount = std::vector<std::uint32_t>(d),
                     .present = std::vector<std::uint8_t>(d)};
        buildModels(*root_, ctx);
        // buildModels fits one linear model per node (interior nodes
        // need one for pruning's subtree-error comparison).
        obs::counter("tree.model_fits").add(grown_nodes);
    }
    {
        obs::ScopedSpan span("tree", "tree.prune");
        if (options_.prune)
            pruneTree(*root_);
        obs::counter("tree.nodes_pruned").add(grown_nodes - numNodes());
    }
    if (options_.smooth && options_.smoothingK > 0.0) {
        obs::ScopedSpan span("tree", "tree.smooth");
        std::vector<const TreeNode *> ancestors;
        smoothLeaves(*root_, ancestors);
    }

    std::vector<PathStep> path;
    collectLeaves(*root_, path);
    refreshSplitAttributes();
    buildFlatTree();

    obs::counter("tree.fits").increment();
    obs::counter("tree.nodes").add(numNodes());
    obs::counter("tree.leaves").add(numLeaves());

    releaseRows(*root_);
}

void
M5Prime::fitNodeModel(const Dataset &ds, TreeNode &node,
                      std::vector<std::size_t> attrs)
{
    LinearModelFitter fitter(ds, node.rows, std::move(attrs));
    node.model = fitter.fit();
    if (options_.simplifyModels)
        fitter.simplify(node.model);
    guardFiniteModel(node.model, node.meanTarget);
    node.modelMae = fitter.meanAbsoluteError(node.model);
}

std::vector<std::size_t>
M5Prime::buildModels(TreeNode &node, BuildCtx &ctx)
{
    const Dataset &ds = ctx.ds;
    const std::size_t d = ds.numAttributes();
    if (node.leaf) {
        // A grown leaf has no subtree tests; its model may regress on
        // the attributes tested on the way down (the split variables
        // that define its class), then simplification keeps only the
        // ones that matter — often none, which reproduces constant
        // leaves like the paper's LM18.
        if (ctx.pathDepth == 0) {
            node.model = LinearModel::constant(node.meanTarget);
            node.modelMae =
                node.model.meanAbsoluteError(ds, node.rows);
            return {};
        }
        // Attribute lists are emitted by scanning presence marks in
        // index order: ascending and de-duplicated by construction,
        // with no per-node sort (see DESIGN.md §11).
        std::vector<std::size_t> attrs;
        for (std::size_t a = 0; a < d; ++a) {
            if (ctx.pathCount[a] > 0)
                attrs.push_back(a);
        }
        fitNodeModel(ds, node, std::move(attrs));
        return {};
    }

    ++ctx.pathCount[node.splitAttr];
    ++ctx.pathDepth;
    const std::vector<std::size_t> left = buildModels(*node.left, ctx);
    const std::vector<std::size_t> right = buildModels(*node.right, ctx);
    --ctx.pathCount[node.splitAttr];
    --ctx.pathDepth;

    // The node model may use every attribute tested in its subtree
    // (Wang & Witten) plus the tests that led here.
    std::fill(ctx.present.begin(), ctx.present.end(), 0);
    ctx.present[node.splitAttr] = 1;
    for (std::size_t a : left)
        ctx.present[a] = 1;
    for (std::size_t a : right)
        ctx.present[a] = 1;
    std::vector<std::size_t> subtree_attrs;
    std::vector<std::size_t> fit_attrs;
    for (std::size_t a = 0; a < d; ++a) {
        if (ctx.present[a])
            subtree_attrs.push_back(a);
        if (ctx.present[a] || ctx.pathCount[a] > 0)
            fit_attrs.push_back(a);
    }

    fitNodeModel(ds, node, std::move(fit_attrs));
    return subtree_attrs;
}

void
M5Prime::smoothLeaves(TreeNode &node,
                      std::vector<const TreeNode *> &ancestors)
{
    if (node.leaf) {
        LinearModel blended = node.model;
        const TreeNode *below = &node;
        for (auto it = ancestors.rbegin(); it != ancestors.rend(); ++it) {
            blended.blendWith((*it)->model,
                              static_cast<double>(below->count),
                              options_.smoothingK);
            below = *it;
        }
        node.model = std::move(blended);
        return;
    }
    ancestors.push_back(&node);
    smoothLeaves(*node.left, ancestors);
    smoothLeaves(*node.right, ancestors);
    ancestors.pop_back();
}

void
M5Prime::collectLeaves(TreeNode &node, std::vector<PathStep> &path)
{
    if (node.leaf) {
        node.leafId = static_cast<int>(leaves_.size());
        LeafInfo info;
        info.id = leaves_.size();
        info.count = node.count;
        info.trainFraction =
            static_cast<double>(node.count) /
            static_cast<double>(trainSize_);
        info.meanTarget = node.meanTarget;
        info.sdTarget = node.sdTarget;
        info.path = path;
        leaves_.push_back(std::move(info));
        leafNodes_.push_back(&node);
        return;
    }
    path.push_back({node.splitAttr, node.splitValue, false});
    collectLeaves(*node.left, path);
    path.back().goesRight = true;
    collectLeaves(*node.right, path);
    path.pop_back();
}

double
M5Prime::predict(std::span<const double> row) const
{
    mtperf_assert(root_ != nullptr, "predict() before fit()");
    return leafFor(*root_, row).model.predict(row);
}

void
M5Prime::predictBatch(std::span<const double> rows, std::size_t width,
                      std::span<double> out) const
{
    mtperf_assert(root_ != nullptr, "predictBatch() before fit()");
    mtperf_assert(rows.size() == out.size() * width,
                  "batch size mismatch: ", rows.size(), " values for ",
                  out.size(), " rows of width ", width);
    mtperf_assert(flat_ != nullptr, "predictBatch() without a compiled "
                  "flat tree (fit/load not completed)");
    // Chunks keep per-task overhead negligible next to the tree walks
    // while still letting a large batch occupy the whole pool. Each
    // chunk is one FlatTree block: the chunk boundary never changes
    // per-row arithmetic, so any thread count gives the same bits.
    constexpr std::size_t kChunk = 256;
    const std::size_t n = out.size();
    const std::size_t chunks = (n + kChunk - 1) / kChunk;
    globalPool().parallelFor(chunks, [&](std::size_t c) {
        const std::size_t lo = c * kChunk;
        const std::size_t hi = std::min(n, lo + kChunk);
        flat_->predictBlock(rows.data() + lo * width, width, hi - lo,
                            out.data() + lo);
    });
}

void
M5Prime::buildFlatTree()
{
    // Pre-order, left child first: leaves are appended in exactly the
    // order collectLeaves numbered them, so FlatTree leaf indices and
    // leafId/leafModel() agree.
    struct Compiler
    {
        FlatTree::Builder &builder;

        FlatTree::Ref
        compile(const TreeNode &node)
        {
            if (node.leaf)
                return builder.addLeaf(node.model);
            const FlatTree::Ref self =
                builder.addSplit(node.splitAttr, node.splitValue);
            const FlatTree::Ref left = compile(*node.left);
            const FlatTree::Ref right = compile(*node.right);
            builder.setChildren(self, left, right);
            return self;
        }
    };
    FlatTree::Builder builder;
    Compiler compiler{builder};
    const FlatTree::Ref root = compiler.compile(*root_);
    flat_ = std::make_unique<FlatTree>(std::move(builder).build(root));
}

std::size_t
M5Prime::numLeaves() const
{
    return leaves_.size();
}

std::size_t
M5Prime::depth() const
{
    mtperf_assert(root_ != nullptr, "depth() before fit()");
    std::size_t best = 0;
    for (const auto &leaf : leaves_)
        best = std::max(best, leaf.path.size());
    return best;
}

std::size_t
M5Prime::numNodes() const
{
    mtperf_assert(root_ != nullptr, "numNodes() before fit()");
    return 2 * countLeaves(*root_) - 1;
}

std::size_t
M5Prime::leafIndexFor(std::span<const double> row) const
{
    mtperf_assert(root_ != nullptr, "leafIndexFor() before fit()");
    return static_cast<std::size_t>(leafFor(*root_, row).leafId);
}

const LeafInfo &
M5Prime::leafInfo(std::size_t leaf) const
{
    mtperf_assert(leaf < leaves_.size(), "leaf index out of range");
    return leaves_[leaf];
}

const LinearModel &
M5Prime::leafModel(std::size_t leaf) const
{
    mtperf_assert(leaf < leafNodes_.size(), "leaf index out of range");
    return leafNodes_[leaf]->model;
}

std::vector<std::size_t>
M5Prime::splitAttributes() const
{
    return splitAttributes_;
}

void
M5Prime::refreshSplitAttributes()
{
    // Computed once per fit/load instead of per query; callers used to
    // trigger a fresh sort+unique over every leaf path on each call.
    std::vector<std::size_t> attrs;
    for (const auto &leaf : leaves_)
        for (const auto &step : leaf.path)
            attrs.push_back(step.attr);
    std::sort(attrs.begin(), attrs.end());
    attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());
    splitAttributes_ = std::move(attrs);
}

std::vector<SplitSite>
M5Prime::splitSites() const
{
    mtperf_assert(root_ != nullptr, "splitSites() before fit()");
    std::vector<SplitSite> sites;
    std::vector<PathStep> path;

    struct Walker
    {
        std::vector<SplitSite> &sites;
        std::vector<PathStep> &path;

        void
        walk(const TreeNode &node)
        {
            if (node.leaf)
                return;
            sites.push_back({path, node.splitAttr, node.splitValue,
                             node.count});
            path.push_back({node.splitAttr, node.splitValue, false});
            walk(*node.left);
            path.back().goesRight = true;
            walk(*node.right);
            path.pop_back();
        }
    };
    Walker{sites, path}.walk(*root_);
    return sites;
}

std::optional<std::size_t>
M5Prime::rootSplitAttribute() const
{
    mtperf_assert(root_ != nullptr, "rootSplitAttribute() before fit()");
    if (root_->leaf)
        return std::nullopt;
    return root_->splitAttr;
}

void
M5Prime::print(std::ostream &os) const
{
    mtperf_assert(root_ != nullptr, "print() before fit()");

    // Recursive WEKA-style rendering. A child that is a leaf prints on
    // the same line as the split test that reaches it.
    struct Printer
    {
        const M5Prime &tree;
        std::ostream &os;

        void
        leafLabel(const TreeNode &n)
        {
            const auto &info = tree.leaves_[static_cast<std::size_t>(
                n.leafId)];
            os << " LM" << (n.leafId + 1) << " (" << n.count << "/"
               << formatDouble(info.trainFraction * 100.0, 1) << "%)";
        }

        void
        walk(const TreeNode &n, int depth)
        {
            if (n.leaf) {
                // Only reached when the whole tree is one leaf.
                os << "LM1 (" << n.count << "/100.0%)\n";
                return;
            }
            const std::string &attr =
                tree.schema_.attributeName(n.splitAttr);
            const std::string value = formatDouble(n.splitValue, 6);
            auto branch = [&](const TreeNode &child, const char *op) {
                for (int i = 0; i < depth; ++i)
                    os << "|   ";
                os << attr << ' ' << op << ' ' << value << " :";
                if (child.leaf) {
                    leafLabel(child);
                    os << '\n';
                } else {
                    os << '\n';
                    walk(child, depth + 1);
                }
            };
            branch(*n.left, "<=");
            branch(*n.right, "> ");
        }
    };

    os << schema_.targetName() << " model tree (M5')\n\n";
    Printer{*this, os}.walk(*root_, 0);
    os << "\nNumber of leaves: " << numLeaves() << "\n\n";
    for (std::size_t i = 0; i < leaves_.size(); ++i) {
        os << "LM" << (i + 1) << ": " << leafModel(i).toString(schema_)
           << "\n";
    }
}

std::string
M5Prime::toString() const
{
    std::ostringstream os;
    print(os);
    return os.str();
}

void
M5Prime::save(std::ostream &os) const
{
    mtperf_assert(root_ != nullptr, "save() before fit()");
    std::ostringstream body;
    body.precision(17);
    writeBody(body);
    MTPERF_FAULT_POINT("model.save.fail");
    const std::string text = body.str();
    os << text << "checksum " << crc32Hex(crc32(text)) << "\n";
}

void
M5Prime::writeBody(std::ostream &os) const
{
    os << "m5prime-model v2\n";
    os << "target " << schema_.targetName() << "\n";
    os << "attributes " << schema_.numAttributes() << "\n";
    for (std::size_t a = 0; a < schema_.numAttributes(); ++a)
        os << "a " << schema_.attributeName(a) << "\n";
    os << "trainSize " << trainSize_ << "\n";
    os << "options " << options_.minInstances << " "
       << options_.sdFraction << " " << (options_.prune ? 1 : 0) << " "
       << (options_.smooth ? 1 : 0) << " " << options_.smoothingK << " "
       << (options_.simplifyModels ? 1 : 0) << " " << options_.maxDepth
       << "\n";

    struct Writer
    {
        std::ostream &os;

        void
        walk(const TreeNode &node)
        {
            if (!node.leaf) {
                os << "node s " << node.splitAttr << " "
                   << node.splitValue << " " << node.count << " "
                   << node.meanTarget << " " << node.sdTarget << "\n";
                walk(*node.left);
                walk(*node.right);
                return;
            }
            os << "node l " << node.count << " " << node.meanTarget
               << " " << node.sdTarget << " "
               << node.model.intercept() << " "
               << node.model.terms().size();
            for (const auto &term : node.model.terms())
                os << " " << term.attr << " " << term.coef;
            os << "\n";
        }
    };
    Writer{os}.walk(*root_);
    os << "end\n";
}

void
M5Prime::saveFile(const std::string &path) const
{
    obs::ScopedSpan span("model", "model.save");
    atomicWriteFile(path, [this](std::ostream &out) { save(out); });
}

M5Prime
M5Prime::load(std::istream &is)
{
    return load(is, "<stream>");
}

M5Prime
M5Prime::load(std::istream &is, const std::string &source)
{
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    std::istringstream in(text);
    std::string word;
    auto expect = [&in, &word, &source](const char *expected) {
        if (!(in >> word) || word != expected)
            mtperf_fatal("malformed model ", source, ": expected '",
                         expected, "', got '", word, "'");
    };

    expect("m5prime-model");
    if (!(in >> word) || word != "v2")
        mtperf_fatal("malformed model ", source,
                     ": unsupported format version '", word, "'");

    // The footer is verified before the body is interpreted: corrupt
    // files fail with a checksum diagnostic rather than a confusing
    // parse error deep in the body. Parsing stops at 'end', so it never
    // reads the footer.
    const std::string marker = "\nchecksum ";
    const auto pos = text.rfind(marker);
    if (pos == std::string::npos) {
        mtperf_fatal("corrupt model ", source,
                     ": missing checksum footer (truncated file?)");
    }
    std::uint32_t stored = 0;
    if (!parseCrc32Hex(trim(text.substr(pos + marker.size())), stored)) {
        mtperf_fatal("corrupt model ", source,
                     ": malformed checksum footer");
    }
    const std::uint32_t actual =
        crc32(std::string_view(text).substr(0, pos + 1));
    if (stored != actual) {
        mtperf_fatal("corrupt model ", source,
                     ": checksum mismatch (footer says ",
                     crc32Hex(stored), ", content hashes to ",
                     crc32Hex(actual), ")");
    }

    expect("target");
    std::string target;
    if (!(in >> target))
        mtperf_fatal("malformed model ", source, ": missing target name");
    expect("attributes");
    std::size_t n_attrs = 0;
    if (!(in >> n_attrs))
        mtperf_fatal("malformed model ", source,
                     ": missing attribute count");
    std::vector<std::string> names;
    for (std::size_t a = 0; a < n_attrs; ++a) {
        expect("a");
        std::string name;
        if (!(in >> name))
            mtperf_fatal("malformed model ", source,
                         ": missing attribute name");
        names.push_back(std::move(name));
    }
    expect("trainSize");
    std::size_t train_size = 0;
    if (!(in >> train_size))
        mtperf_fatal("malformed model ", source, ": missing trainSize");

    expect("options");
    M5Options options;
    int prune = 1, smooth = 1, simplify = 1;
    if (!(in >> options.minInstances >> options.sdFraction >> prune >>
          smooth >> options.smoothingK >> simplify >>
          options.maxDepth)) {
        mtperf_fatal("malformed model ", source, ": bad options line");
    }
    options.prune = prune != 0;
    options.smooth = smooth != 0;
    options.simplifyModels = simplify != 0;

    // Recursive-descent reconstruction of the pre-order node list.
    struct Reader
    {
        std::istream &is;
        const std::string &source;
        std::size_t n_attrs;

        std::unique_ptr<TreeNode>
        readNode()
        {
            std::string keyword, kind;
            if (!(is >> keyword >> kind) || keyword != "node")
                mtperf_fatal("malformed model ", source,
                             ": expected a node");
            auto node = std::make_unique<TreeNode>();
            if (kind == "s") {
                if (!(is >> node->splitAttr >> node->splitValue >>
                      node->count >> node->meanTarget >>
                      node->sdTarget)) {
                    mtperf_fatal("malformed model ", source,
                                 ": bad split node");
                }
                if (node->splitAttr >= n_attrs)
                    mtperf_fatal("model ", source,
                                 " references attribute ",
                                 node->splitAttr, " out of range");
                node->leaf = false;
                node->left = readNode();
                node->right = readNode();
                return node;
            }
            if (kind != "l")
                mtperf_fatal("malformed model ", source,
                             ": unknown node kind '", kind, "'");
            double intercept = 0.0;
            std::size_t n_terms = 0;
            if (!(is >> node->count >> node->meanTarget >>
                  node->sdTarget >> intercept >> n_terms)) {
                mtperf_fatal("malformed model ", source,
                             ": bad leaf node");
            }
            if (!std::isfinite(intercept))
                mtperf_fatal("malformed model ", source,
                             ": non-finite leaf intercept");
            node->model = LinearModel::constant(intercept);
            for (std::size_t t = 0; t < n_terms; ++t) {
                std::size_t attr = 0;
                double coef = 0.0;
                if (!(is >> attr >> coef))
                    mtperf_fatal("malformed model ", source,
                                 ": bad model term");
                if (attr >= n_attrs)
                    mtperf_fatal("model ", source,
                                 " references attribute ", attr,
                                 " out of range");
                if (!std::isfinite(coef))
                    mtperf_fatal("malformed model ", source,
                                 ": non-finite model coefficient");
                node->model.addTerm(attr, coef);
            }
            node->leaf = true;
            return node;
        }
    };

    M5Prime tree(options);
    tree.schema_ = Schema(names, target);
    tree.trainSize_ = train_size;
    Reader reader{in, source, n_attrs};
    tree.root_ = reader.readNode();

    std::string tail;
    if (!(in >> tail) || tail != "end")
        mtperf_fatal("malformed model ", source, ": missing 'end'");

    std::vector<PathStep> path;
    tree.collectLeaves(*tree.root_, path);
    tree.refreshSplitAttributes();
    tree.buildFlatTree();
    return tree;
}

M5Prime
M5Prime::loadFile(const std::string &path)
{
    obs::ScopedSpan span("model", "model.load");
    MTPERF_FAULT_POINT("fs.open.fail");
    std::ifstream in(path);
    if (!in)
        mtperf_fatal("cannot open model file: ", path);
    return load(in, path);
}

} // namespace mtperf
