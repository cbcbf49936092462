#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/dictionary.h"
#include "core/graph.h"
#include "core/parser.h"
#include "ml/registry.h"

namespace hyppo::core {
namespace {

Result<Pipeline> Parse(const std::string& code) {
  const Dictionary dictionary =
      Dictionary::FromRegistry(ml::OperatorRegistry::Global());
  return ParsePipeline(code, "parser-errors", dictionary);
}

// Asserts `code` fails to parse with a diagnostic locating `line` and
// containing every expected fragment. Malformed DSL must never produce a
// generic failure: the status is a ParseError and names the line.
void ExpectParseErrorAt(const std::string& code, int line,
                        const std::vector<std::string>& fragments,
                        bool expect_column = true) {
  const Result<Pipeline> result = Parse(code);
  ASSERT_FALSE(result.ok()) << code;
  EXPECT_TRUE(result.status().IsParseError()) << result.status();
  const std::string message = result.status().ToString();
  EXPECT_NE(message.find("line " + std::to_string(line)), std::string::npos)
      << message;
  if (expect_column) {
    EXPECT_NE(message.find(", col "), std::string::npos) << message;
  }
  for (const std::string& fragment : fragments) {
    EXPECT_NE(message.find(fragment), std::string::npos)
        << "missing '" << fragment << "' in: " << message;
  }
}

constexpr const char* kValidPipeline =
    R"(d = load("higgs", rows=200, cols=6)
tr, te = sk.TrainTestSplit.split(d)
sc = sk.StandardScaler.fit(tr)
tr_s = sc.transform(tr)
m = sk.DecisionTreeClassifier.fit(tr_s)
p = m.predict(te)
acc = evaluate(p, te, metric="accuracy")
)";

TEST(ParserErrorsTest, StatementWithoutAssignment) {
  ExpectParseErrorAt("just some words\n", 1, {"expected an assignment"});
}

TEST(ParserErrorsTest, AssignmentWithoutCall) {
  ExpectParseErrorAt("x = 5\n", 1, {"expected a call expression"});
}

TEST(ParserErrorsTest, EmptyRightHandSide) {
  ExpectParseErrorAt("x =\n", 1, {"expected a call expression"});
}

TEST(ParserErrorsTest, EmptyAssignmentTarget) {
  ExpectParseErrorAt(", x = load(\"d\", rows=10, cols=2)\n", 1,
                     {"empty assignment target"});
}

TEST(ParserErrorsTest, ErrorOnLaterLineIsLocated) {
  const std::string code =
      "d = load(\"higgs\", rows=200, cols=6)\n"
      "y = nonsense\n";
  ExpectParseErrorAt(code, 2, {"expected a call expression"});
}

TEST(ParserErrorsTest, UnknownFrameworkAlias) {
  const std::string code =
      "d = load(\"higgs\", rows=200, cols=6)\n"
      "tr, te = sk.TrainTestSplit.split(d)\n"
      "sc = torch.StandardScaler.fit(tr)\n";
  ExpectParseErrorAt(code, 3, {"unknown framework alias", "torch"});
}

TEST(ParserErrorsTest, UnknownVariableNamesTheVariable) {
  const std::string code =
      "d = load(\"higgs\", rows=200, cols=6)\n"
      "sc = sk.StandardScaler.fit(ghost)\n";
  ExpectParseErrorAt(code, 2, {"unknown variable 'ghost'"});
}

TEST(ParserErrorsTest, UnknownMethodNamesTheMethod) {
  const std::string code =
      "d = load(\"higgs\", rows=200, cols=6)\n"
      "sc = sk.StandardScaler.fit(d)\n"
      "y = sc.frobnicate(d)\n";
  ExpectParseErrorAt(code, 3, {"unknown method 'frobnicate'"});
}

TEST(ParserErrorsTest, EmptyArgument) {
  const std::string code =
      "d = load(\"higgs\", rows=200, cols=6)\n"
      "tr, te = sk.TrainTestSplit.split(d,)\n";
  ExpectParseErrorAt(code, 2, {"empty argument"});
}

TEST(ParserErrorsTest, LoadWithWrongOutputCount) {
  ExpectParseErrorAt("a, b = load(\"d\", rows=10, cols=2)\n", 1,
                     {"load produces one artifact"},
                     /*expect_column=*/false);
}

TEST(ParserErrorsTest, LoadWithoutShape) {
  ExpectParseErrorAt("d = load(\"higgs\")\n", 1,
                     {"load requires a dataset id and rows=/cols="});
}

TEST(ParserErrorsTest, EvaluateWithWrongOutputCount) {
  const std::string code =
      "d = load(\"higgs\", rows=200, cols=6)\n"
      "tr, te = sk.TrainTestSplit.split(d)\n"
      "sc = sk.StandardScaler.fit(tr)\n"
      "p = sc.transform(te)\n"
      "a, b = evaluate(p, te, metric=\"accuracy\")\n";
  ExpectParseErrorAt(code, 5, {"produces one value"});
}

TEST(ParserErrorsTest, DeriveTasksAreNotWritten) {
  const std::string code =
      "d = load(\"higgs\", rows=200, cols=6)\n"
      "m = sk.DecisionTreeClassifier.fit(d, max_depth=6)\n"
      "c = sk.DecisionTreeClassifier.derive(m, max_depth=3)\n";
  ExpectParseErrorAt(code, 3, {"derive tasks are added by the optimizer"});
}

TEST(ParserErrorsTest, PredictDepthsTasksAreNotWritten) {
  const std::string code =
      "d = load(\"higgs\", rows=200, cols=6)\n"
      "m = sk.DecisionTreeClassifier.fit(d, max_depth=6)\n"
      "p = sk.DecisionTreeClassifier.predict_depths(m, d, max_depth=3)\n";
  ExpectParseErrorAt(code, 3,
                     {"predict_depths tasks are added by the optimizer"});
}

TEST(ParserErrorsTest, OperatorCallWithoutInputs) {
  const std::string code = "sc = sk.StandardScaler.fit()\n";
  ExpectParseErrorAt(code, 1, {"operator call needs at least one input"});
}

TEST(ParserErrorsTest, ColumnPointsIntoTheLine) {
  // "ghost" starts at column 28 of the second line.
  const std::string code =
      "d = load(\"higgs\", rows=200, cols=6)\n"
      "sc = sk.StandardScaler.fit(ghost)\n";
  const Result<Pipeline> result = Parse(code);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("line 2, col 28"),
            std::string::npos)
      << result.status();
}

// The parser stamps each task with its DSL statement line so downstream
// static-analysis diagnostics carry source locations.
TEST(ParserErrorsTest, TasksCarrySourceLines) {
  const Result<Pipeline> pipeline = Parse(kValidPipeline);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  const PipelineGraph& g = pipeline->graph;
  std::vector<int> lines;
  for (EdgeId e = 0; e < g.num_tasks(); ++e) {
    if (g.task(e).type == TaskType::kLoad) {
      continue;
    }
    lines.push_back(g.task(e).source_line);
  }
  EXPECT_EQ(lines, (std::vector<int>{2, 3, 4, 5, 6, 7}));
}

// Seeded fuzz loop: random mutations of a valid program must either parse
// or fail with a ParseError — never crash, and never return a non-parse
// failure class.
TEST(ParserErrorsTest, FuzzedInputsNeverCrash) {
  Rng rng(20240807);
  const std::string base = kValidPipeline;
  for (int iter = 0; iter < 400; ++iter) {
    std::string mutated = base;
    const int edits = 1 + static_cast<int>(rng.NextBelow(4));
    for (int e = 0; e < edits; ++e) {
      switch (rng.NextBelow(4)) {
        case 0: {  // replace one byte with random printable/control char
          if (mutated.empty()) break;
          const size_t pos = rng.NextBelow(mutated.size());
          mutated[pos] = static_cast<char>(rng.UniformInt(1, 126));
          break;
        }
        case 1: {  // truncate at a random point
          if (mutated.empty()) break;
          mutated.resize(rng.NextBelow(mutated.size()));
          break;
        }
        case 2: {  // insert random garbage
          const size_t pos = rng.NextBelow(mutated.size() + 1);
          std::string garbage;
          for (uint64_t i = rng.NextBelow(8); i > 0; --i) {
            garbage.push_back(static_cast<char>(rng.UniformInt(1, 126)));
          }
          mutated.insert(pos, garbage);
          break;
        }
        default: {  // duplicate a random chunk (re-used variable names etc.)
          if (mutated.empty()) break;
          const size_t from = rng.NextBelow(mutated.size());
          const size_t len = rng.NextBelow(mutated.size() - from + 1);
          mutated.insert(rng.NextBelow(mutated.size() + 1),
                         mutated.substr(from, len));
          break;
        }
      }
    }
    const Result<Pipeline> result = Parse(mutated);
    // A mutated program may parse, fail to parse, or build an empty
    // pipeline — but a parse failure must always locate its line.
    if (!result.ok() && result.status().IsParseError()) {
      EXPECT_NE(result.status().ToString().find("line "), std::string::npos)
          << "unlocated parse error for input <<<" << mutated
          << ">>>: " << result.status();
    }
  }
}

}  // namespace
}  // namespace hyppo::core
