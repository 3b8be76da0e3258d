#include "data/dataset.h"

#include "common/logging.h"

namespace mtperf {

Dataset::Dataset(Schema schema) : schema_(std::move(schema))
{
}

void
Dataset::addRow(std::span<const double> attrs, double target, std::string tag)
{
    if (attrs.size() != schema_.numAttributes()) {
        mtperf_fatal("row width ", attrs.size(), " does not match schema (",
                     schema_.numAttributes(), " attributes)");
    }
    if (!corun_.empty())
        mtperf_fatal("cannot mix rows with and without co-run provenance");
    values_.insert(values_.end(), attrs.begin(), attrs.end());
    targets_.push_back(target);
    tags_.push_back(std::move(tag));
}

void
Dataset::addRowCorun(std::span<const double> attrs, double target,
                     std::string tag, RowCorun corun)
{
    if (attrs.size() != schema_.numAttributes()) {
        mtperf_fatal("row width ", attrs.size(), " does not match schema (",
                     schema_.numAttributes(), " attributes)");
    }
    if (corun_.size() != targets_.size())
        mtperf_fatal("cannot mix rows with and without co-run provenance");
    values_.insert(values_.end(), attrs.begin(), attrs.end());
    targets_.push_back(target);
    tags_.push_back(std::move(tag));
    corun_.push_back(std::move(corun));
}

void
Dataset::reserve(std::size_t rows)
{
    values_.reserve(rows * numAttributes());
    targets_.reserve(rows);
    tags_.reserve(rows);
}

const RowCorun &
Dataset::corun(std::size_t r) const
{
    mtperf_assert(hasCorun() && r < corun_.size(),
                  "co-run provenance index out of range");
    return corun_[r];
}

std::span<const double>
Dataset::row(std::size_t r) const
{
    mtperf_assert(r < size(), "row index out of range");
    return {values_.data() + r * numAttributes(), numAttributes()};
}

double
Dataset::value(std::size_t r, std::size_t a) const
{
    mtperf_assert(r < size() && a < numAttributes(),
                  "dataset index out of range");
    return values_[r * numAttributes() + a];
}

double
Dataset::target(std::size_t r) const
{
    mtperf_assert(r < size(), "row index out of range");
    return targets_[r];
}

const std::string &
Dataset::tag(std::size_t r) const
{
    mtperf_assert(r < size(), "row index out of range");
    return tags_[r];
}

std::vector<double>
Dataset::column(std::size_t a) const
{
    mtperf_assert(a < numAttributes(), "attribute index out of range");
    std::vector<double> col;
    col.reserve(size());
    for (std::size_t r = 0; r < size(); ++r)
        col.push_back(value(r, a));
    return col;
}

Dataset
Dataset::subset(std::span<const std::size_t> indices) const
{
    Dataset out(schema_);
    for (std::size_t idx : indices) {
        if (hasCorun())
            out.addRowCorun(row(idx), target(idx), tag(idx), corun(idx));
        else
            out.addRow(row(idx), target(idx), tag(idx));
    }
    return out;
}

Dataset
Dataset::withAttributes(
    std::span<const std::size_t> attribute_indices) const
{
    std::vector<Attribute> attributes;
    attributes.reserve(attribute_indices.size());
    for (std::size_t a : attribute_indices) {
        mtperf_assert(a < numAttributes(),
                      "attribute index out of range");
        attributes.push_back(schema_.attribute(a));
    }
    Dataset out(Schema(std::move(attributes), schema_.targetName()));
    std::vector<double> projected(attribute_indices.size());
    for (std::size_t r = 0; r < size(); ++r) {
        const auto full_row = row(r);
        for (std::size_t i = 0; i < attribute_indices.size(); ++i)
            projected[i] = full_row[attribute_indices[i]];
        if (hasCorun())
            out.addRowCorun(projected, target(r), tag(r), corun(r));
        else
            out.addRow(projected, target(r), tag(r));
    }
    return out;
}

void
Dataset::append(const Dataset &other)
{
    if (!(schema_ == other.schema_))
        mtperf_fatal("cannot append dataset with a different schema");
    for (std::size_t r = 0; r < other.size(); ++r) {
        if (other.hasCorun())
            addRowCorun(other.row(r), other.target(r), other.tag(r),
                        other.corun(r));
        else
            addRow(other.row(r), other.target(r), other.tag(r));
    }
}

} // namespace mtperf
