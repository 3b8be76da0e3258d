#include "perf/json_report.h"

#include <sstream>

#include "common/logging.h"
#include "common/strings.h"
#include "perf/analyzer.h"

namespace mtperf::perf {

namespace {

/** Minimal JSON writer: tracks comma placement inside containers. */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostringstream &os) : os_(os)
    {
        os_.precision(12);
    }

    void
    beginObject()
    {
        separate();
        os_ << '{';
        first_ = true;
    }

    void
    endObject()
    {
        os_ << '}';
        first_ = false;
    }

    void
    beginArray(const char *key = nullptr)
    {
        separate();
        if (key)
            os_ << '"' << key << "\":";
        os_ << '[';
        first_ = true;
    }

    void
    endArray()
    {
        os_ << ']';
        first_ = false;
    }

    void
    key(const char *name)
    {
        separate();
        os_ << '"' << name << "\":";
        first_ = true; // the value itself must not emit a comma
    }

    void
    value(double v)
    {
        separate();
        os_ << v;
    }

    void
    value(std::size_t v)
    {
        separate();
        os_ << v;
    }

    void
    value(const std::string &v)
    {
        separate();
        os_ << '"' << jsonEscape(v) << '"';
    }

    /** Insert a pre-rendered JSON value verbatim. */
    void
    rawValue(const std::string &rendered)
    {
        separate();
        os_ << rendered;
    }

  private:
    void
    separate()
    {
        if (!first_)
            os_ << ',';
        first_ = false;
    }

    std::ostringstream &os_;
    bool first_ = true;
};

void
writeModel(JsonWriter &json, const LinearModel &model,
           const Schema &schema)
{
    json.beginObject();
    json.key("intercept");
    json.value(model.intercept());
    json.beginArray("terms");
    for (const auto &term : model.terms()) {
        json.beginObject();
        json.key("attribute");
        json.value(schema.attributeName(term.attr));
        json.key("coefficient");
        json.value(term.coef);
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

void
writeLeaf(JsonWriter &json, const M5Prime &tree, std::size_t leaf)
{
    const Schema &schema = tree.schema();
    const LeafInfo &info = tree.leafInfo(leaf);
    json.beginObject();
    json.key("id");
    json.value(std::string("LM") + std::to_string(leaf + 1));
    json.key("trainCount");
    json.value(info.count);
    json.key("trainFraction");
    json.value(info.trainFraction);
    json.key("meanTarget");
    json.value(info.meanTarget);
    json.beginArray("rules");
    for (const auto &step : info.path) {
        json.beginObject();
        json.key("attribute");
        json.value(schema.attributeName(step.attr));
        json.key("op");
        json.value(std::string(step.goesRight ? ">" : "<="));
        json.key("value");
        json.value(step.value);
        json.endObject();
    }
    json.endArray();
    json.key("model");
    writeModel(json, tree.leafModel(leaf), schema);
    json.endObject();
}

} // namespace

std::string
treeToJson(const M5Prime &tree)
{
    const Schema &schema = tree.schema();
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.key("target");
    json.value(schema.targetName());
    json.beginArray("attributes");
    for (std::size_t a = 0; a < schema.numAttributes(); ++a)
        json.value(schema.attributeName(a));
    json.endArray();
    json.key("numLeaves");
    json.value(tree.numLeaves());
    json.key("depth");
    json.value(tree.depth());
    json.key("minInstances");
    json.value(tree.options().minInstances);
    json.beginArray("leaves");
    for (std::size_t leaf = 0; leaf < tree.numLeaves(); ++leaf)
        writeLeaf(json, tree, leaf);
    json.endArray();
    json.endObject();
    return os.str();
}

std::string
analysisToJson(const M5Prime &tree, const Dataset &ds)
{
    if (!(ds.schema() == tree.schema()))
        mtperf_fatal("analysisToJson: dataset schema does not match "
                     "the model's");

    const PerformanceAnalyzer analyzer(tree, tree.schema());
    const ClassificationSummary summary = analyzer.classify(ds);

    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.key("sections");
    json.value(ds.size());
    json.key("tree");
    json.rawValue(treeToJson(tree));
    json.beginArray("classes");
    for (std::size_t leaf = 0; leaf < tree.numLeaves(); ++leaf) {
        json.beginObject();
        json.key("id");
        json.value(std::string("LM") + std::to_string(leaf + 1));
        json.key("sections");
        json.value(summary.leafCounts[leaf]);
        json.beginArray("workloads");
        for (const auto &[workload, count] :
             summary.workloadCounts[leaf]) {
            json.beginObject();
            json.key("name");
            json.value(workload);
            json.key("sections");
            json.value(count);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return os.str();
}

} // namespace mtperf::perf
