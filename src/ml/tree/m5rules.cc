#include "ml/tree/m5rules.h"

#include <numeric>
#include <sstream>

#include "common/logging.h"
#include "common/strings.h"

namespace mtperf {

bool
M5Rule::matches(std::span<const double> row) const
{
    for (const auto &step : conditions) {
        const bool right = row[step.attr] > step.value;
        if (right != step.goesRight)
            return false;
    }
    return true;
}

std::string
M5Rule::toString(const Schema &schema, int digits) const
{
    std::ostringstream os;
    if (conditions.empty()) {
        os << "OTHERWISE ";
    } else {
        os << "IF ";
        for (std::size_t i = 0; i < conditions.size(); ++i) {
            const auto &step = conditions[i];
            if (i)
                os << " and ";
            os << schema.attributeName(step.attr)
               << (step.goesRight ? " > " : " <= ")
               << formatDouble(step.value, digits);
        }
        os << " THEN ";
    }
    os << model.toString(schema, digits) << "  [" << covered
       << " instances]";
    return os.str();
}

M5Rules::M5Rules(M5RulesOptions options) : options_(std::move(options))
{
    checkM5Options(options_.treeOptions, "M5Rules");
}

void
M5Rules::fit(const Dataset &train)
{
    if (train.empty())
        mtperf_fatal("M5Rules: empty training set");
    schema_ = train.schema();
    rules_.clear();

    std::vector<std::size_t> remaining(train.size());
    std::iota(remaining.begin(), remaining.end(), 0);

    // Separate-and-conquer: grow a tree on what is left, harvest the
    // best-covering leaf as a rule, discard the covered instances.
    while (!remaining.empty()) {
        const bool rule_budget_spent =
            options_.maxRules != 0 && rules_.size() + 1 ==
                                          options_.maxRules;
        const bool too_small =
            remaining.size() < 2 * options_.treeOptions.minInstances;

        Dataset subset = train.subset(remaining);
        if (rule_budget_spent || too_small) {
            // The default rule: one linear model over everything left.
            LinearRegression global(options_.treeOptions.simplifyModels);
            global.fit(subset);
            M5Rule default_rule;
            default_rule.model = global.model();
            default_rule.covered = subset.size();
            rules_.push_back(std::move(default_rule));
            return;
        }

        M5Prime tree(options_.treeOptions);
        tree.fit(subset);

        if (tree.numLeaves() == 1) {
            M5Rule default_rule;
            default_rule.model = tree.leafModel(0);
            default_rule.covered = subset.size();
            rules_.push_back(std::move(default_rule));
            return;
        }

        // WEKA's default heuristic: take the leaf covering the most
        // instances.
        std::size_t best_leaf = 0;
        for (std::size_t leaf = 1; leaf < tree.numLeaves(); ++leaf) {
            if (tree.leafInfo(leaf).count >
                tree.leafInfo(best_leaf).count) {
                best_leaf = leaf;
            }
        }

        M5Rule rule;
        rule.conditions = tree.leafInfo(best_leaf).path;
        rule.model = tree.leafModel(best_leaf);
        rule.covered = tree.leafInfo(best_leaf).count;
        rules_.push_back(rule);

        std::vector<std::size_t> still_remaining;
        still_remaining.reserve(remaining.size() - rule.covered);
        for (std::size_t idx : remaining) {
            if (!rules_.back().matches(train.row(idx)))
                still_remaining.push_back(idx);
        }
        mtperf_assert(still_remaining.size() < remaining.size(),
                      "rule extraction made no progress");
        remaining = std::move(still_remaining);
    }
}

double
M5Rules::predict(std::span<const double> row) const
{
    mtperf_assert(!rules_.empty(), "predict() before fit()");
    return rules_[ruleIndexFor(row)].model.predict(row);
}

std::size_t
M5Rules::ruleIndexFor(std::span<const double> row) const
{
    mtperf_assert(!rules_.empty(), "ruleIndexFor() before fit()");
    for (std::size_t i = 0; i < rules_.size(); ++i) {
        if (rules_[i].matches(row))
            return i;
    }
    // No default rule fired (possible when maxRules truncated the
    // list): fall back to the last rule's model.
    return rules_.size() - 1;
}

std::string
M5Rules::toString() const
{
    std::ostringstream os;
    os << "M5Rules decision list (" << rules_.size() << " rules)\n";
    for (std::size_t i = 0; i < rules_.size(); ++i)
        os << "Rule " << (i + 1) << ": " << rules_[i].toString(schema_)
           << "\n";
    return os.str();
}

} // namespace mtperf
