/**
 * @file
 * Seeded structural fuzzing of the M5' model loader.
 *
 * Two saved v2 models seed the corpus: goldenDataset()'s five-leaf
 * model and a single-leaf one. Each case applies one to three seeded
 * mutations: drop, duplicate or truncate lines, splice byte ranges of
 * either seed, put boundary numbers in place of tokens, and insert,
 * delete or swap the characters the format's structure rests on. A
 * third of the cases get a fresh checksum footer, so the body parser
 * rather than the footer check meets the damage.
 *
 * The contract: every case loads, or throws a FatalError that names its
 * source. A model that loads also predicts and saves. A crash, hang or
 * sanitizer report fails the run; CI runs it under ASan and UBSan.
 */

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/logging.h"
#include "common/rng.h"
#include "golden_datasets.h"
#include "ml/tree/m5prime.h"

namespace mtperf {
namespace {

std::string
savedModel(const Dataset &ds, std::size_t min_instances)
{
    M5Options options;
    options.minInstances = min_instances;
    M5Prime tree(options);
    tree.fit(ds);
    std::ostringstream os;
    tree.save(os);
    return os.str();
}

/** goldenDataset()'s saved five-leaf model. */
std::string
fiveLeafModel()
{
    return savedModel(goldenDataset(), 30);
}

/** A saved model whose tree is one leaf. */
std::string
singleLeafModel()
{
    Dataset ds(Schema(std::vector<std::string>{"x", "y"}, "CPI"));
    Rng rng(7);
    for (std::size_t i = 0; i < 40; ++i) {
        const double x = rng.uniform();
        ds.addRow(std::vector<double>{x, rng.normal()}, 1.0 + 2.0 * x);
    }
    return savedModel(ds, 30);
}

/**
 * @p text with its checksum footer replaced by the one save() would
 * write for the body before it (the whole text when it has none).
 */
std::string
resealed(const std::string &text)
{
    const std::size_t pos = text.rfind("\nchecksum ");
    std::string body =
        pos == std::string::npos ? text : text.substr(0, pos + 1);
    if (body.empty() || body.back() != '\n')
        body.push_back('\n');
    return body + "checksum " + crc32Hex(crc32(body)) + "\n";
}

/** [begin, end) of every '\n'-terminated (or last) line of @p text. */
std::vector<std::pair<std::size_t, std::size_t>>
lines(const std::string &text)
{
    std::vector<std::pair<std::size_t, std::size_t>> out;
    std::size_t begin = 0;
    while (begin < text.size()) {
        std::size_t end = text.find('\n', begin);
        end = end == std::string::npos ? text.size() : end + 1;
        out.emplace_back(begin, end);
        begin = end;
    }
    return out;
}

const char *const kBoundaryNumbers[] = {
    "0",     "-0",         "1",          "-1",
    "2",     "4294967295", "4294967296", "18446744073709551615",
    "18446744073709551616",            "9223372036854775808",
    "1e308", "1e309",      "-1e309",     "1e-320",
    "nan",   "inf",        "-inf",       "0x10",
    "1.5",   "",           "+",          "99999999999999999999999999",
};

/** Apply one seeded structural mutation to @p text. */
void
mutate(std::string &text, const std::string &other, Rng &rng)
{
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng.uniformInt(n));
    };
    const auto spans = lines(text);
    switch (pick(9)) {
    case 0: { // drop a line
        if (spans.empty())
            return;
        const auto [begin, end] = spans[pick(spans.size())];
        text.erase(begin, end - begin);
        return;
    }
    case 1: { // duplicate a line somewhere, nodes included
        if (spans.empty())
            return;
        const auto [begin, end] = spans[pick(spans.size())];
        const std::string line = text.substr(begin, end - begin);
        text.insert(spans[pick(spans.size())].first, line);
        return;
    }
    case 2: { // splice a byte range of either seed in anywhere
        const std::string &source = rng.chance(0.5) ? text : other;
        if (source.empty())
            return;
        const std::size_t begin = pick(source.size());
        const std::size_t length =
            1 + pick(std::min<std::size_t>(96, source.size() - begin));
        text.insert(pick(text.size() + 1), source.substr(begin, length));
        return;
    }
    case 3:
    case 4: { // put a boundary number in place of one token
        std::vector<std::pair<std::size_t, std::size_t>> tokens;
        for (std::size_t i = 0; i < text.size();) {
            if (text[i] == ' ' || text[i] == '\n') {
                ++i;
                continue;
            }
            const std::size_t start = i;
            while (i < text.size() && text[i] != ' ' && text[i] != '\n')
                ++i;
            tokens.emplace_back(start, i);
        }
        if (tokens.empty())
            return;
        const auto [begin, end] = tokens[pick(tokens.size())];
        text.replace(begin, end - begin,
                     kBoundaryNumbers[pick(std::size(kBoundaryNumbers))]);
        return;
    }
    case 5: { // insert a structural character
        static const char kStructural[] = {' ', '\n', 's', 'l', '-', '.'};
        text.insert(pick(text.size() + 1), 1,
                    kStructural[pick(std::size(kStructural))]);
        return;
    }
    case 6: { // delete a space or newline, or swap a node's kind
        if (text.empty())
            return;
        std::vector<std::size_t> positions;
        for (std::size_t i = 0; i < text.size(); ++i) {
            if (text[i] == ' ' || text[i] == '\n')
                positions.push_back(i);
        }
        if (rng.chance(0.5)) {
            const std::size_t at = text.find(
                rng.chance(0.5) ? "node s " : "node l ", pick(text.size()));
            if (at != std::string::npos)
                text[at + 5] = text[at + 5] == 's' ? 'l' : 's';
            return;
        }
        if (!positions.empty())
            text.erase(positions[pick(positions.size())], 1);
        return;
    }
    case 7: { // put a boundary number in place of one option
        const std::size_t line = text.find("options ");
        if (line == std::string::npos)
            return;
        std::size_t begin = line + 8;
        for (std::size_t skip = pick(7); skip > 0; --skip) {
            const std::size_t space = text.find(' ', begin);
            if (space == std::string::npos)
                return;
            begin = space + 1;
        }
        std::size_t end = begin;
        while (end < text.size() && text[end] != ' ' && text[end] != '\n')
            ++end;
        text.replace(begin, end - begin,
                     kBoundaryNumbers[pick(std::size(kBoundaryNumbers))]);
        return;
    }
    default: // truncate
        text.resize(pick(text.size() + 1));
        return;
    }
}

/** Sends std::cerr, where the loader logs each error, nowhere. */
class QuietStderr
{
  public:
    QuietStderr() : previous_(std::cerr.rdbuf(nullptr)) {}
    ~QuietStderr() { std::cerr.rdbuf(previous_); }

    QuietStderr(const QuietStderr &) = delete;
    QuietStderr &operator=(const QuietStderr &) = delete;

  private:
    std::streambuf *previous_;
};

TEST(ModelFuzz, EveryMutantLoadsOrFailsNamingItsSource)
{
    const std::string seeds[] = {fiveLeafModel(), singleLeafModel()};

    Rng rng(0x5eed0530);
    constexpr int kCasesPerSeed = 1000;
    std::size_t loaded = 0;
    std::size_t rejected = 0;
    std::size_t resealed_cases = 0;
    for (std::size_t s = 0; s < std::size(seeds); ++s) {
        for (int i = 0; i < kCasesPerSeed; ++i) {
            std::string text = seeds[s];
            const std::size_t mutations = 1 + rng.uniformInt(3);
            for (std::size_t m = 0; m < mutations; ++m)
                mutate(text, seeds[1 - s], rng);
            if (rng.uniformInt(3) == 0) {
                text = resealed(text);
                ++resealed_cases;
            }
            const std::string source =
                "fuzz-" + std::to_string(s) + "-" + std::to_string(i);
            std::istringstream in(text);
            try {
                const QuietStderr quiet;
                const M5Prime model = M5Prime::load(in, source);
                const std::vector<double> row(
                    model.schema().numAttributes(), 0.0);
                (void)model.predict(row);
                std::ostringstream again;
                model.save(again);
                ++loaded;
            } catch (const FatalError &e) {
                ++rejected;
                EXPECT_NE(std::string(e.what()).find(source),
                          std::string::npos)
                    << "error does not name its source: " << e.what()
                    << "\ninput:\n"
                    << text;
            }
        }
    }
    RecordProperty("loaded", static_cast<int>(loaded));
    RecordProperty("rejected", static_cast<int>(rejected));
    EXPECT_EQ(loaded + rejected, 2u * kCasesPerSeed);
    // Resealed mutants must reach the body parser, and some must get
    // through it, or the run shows little beyond the footer check.
    EXPECT_GT(resealed_cases, 500u);
    EXPECT_GT(loaded, 50u);
    EXPECT_GT(rejected, 1000u);
}

TEST(ModelFuzz, OptionsTheLearnerRejectsNameTheSource)
{
    // Found by the fuzzer: a resealed model whose options line holds a
    // value M5Prime's constructor rejects failed without naming the
    // file.
    const std::string seed = fiveLeafModel();
    const std::size_t begin = seed.find("options ");
    const std::size_t end = seed.find('\n', begin);
    for (const char *options :
         {"options 0 0.05 1 1 15 1 0", "options 30 -1 1 1 15 1 0",
          "options 30 0.05 1 1 -2 1 0"}) {
        std::string text = seed;
        text.replace(begin, end - begin, options);
        std::istringstream in(resealed(text));
        const QuietStderr quiet;
        try {
            (void)M5Prime::load(in, "bad-options.m5");
            ADD_FAILURE() << options << " was accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("bad-options.m5"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ModelFuzz, SeedsLoad)
{
    for (const std::string &text : {fiveLeafModel(), singleLeafModel()}) {
        std::istringstream in(text);
        const M5Prime model = M5Prime::load(in, "seed.m5");
        std::ostringstream again;
        model.save(again);
        EXPECT_EQ(again.str(), text);
    }
    std::istringstream in(singleLeafModel());
    EXPECT_EQ(M5Prime::load(in, "seed.m5").numLeaves(), 1u);
}

} // namespace
} // namespace mtperf
