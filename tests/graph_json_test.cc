/**
 * @file
 * Tests for the Graph JSON workload form: content-hash-stable
 * round-trips for every registered model (the imported copy is
 * indistinguishable from the compiled-in graph), file save/load, and
 * strict rejection of malformed documents (unknown keys, type
 * mismatches, non-topological edges, structural violations).
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "graph/graph_json.h"
#include "models/models.h"
#include "util/hash.h"
#include "util/json.h"

using namespace cocco;

namespace {

uint64_t
graphHash(const Graph &g)
{
    return hashFinalize(hashGraph(kHashSeed, g));
}

/** Parse + import @p text, expecting success. */
Graph
import(const std::string &text)
{
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(parseJson(text, &doc, &err)) << err;
    Graph g;
    EXPECT_TRUE(graphFromJson(doc, &g, &err)) << err;
    return g;
}

/** Parse + import @p text, expecting failure; returns the error. */
std::string
importError(const std::string &text)
{
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(parseJson(text, &doc, &err)) << err;
    Graph g;
    EXPECT_FALSE(graphFromJson(doc, &g, &err));
    EXPECT_FALSE(err.empty());
    return err;
}

/** A minimal valid two-node document to perturb in rejection tests. */
const char *kTinyDoc = R"({
    "schema_version": 1,
    "name": "tiny",
    "nodes": [
        {"name": "in", "kind": "input", "outH": 8, "outW": 8, "outC": 4},
        {"name": "c1", "kind": "conv", "outH": 8, "outW": 8, "outC": 4,
         "kernel": 3, "stride": 1, "preds": [0]}
    ]
})";

} // namespace

// --- Round trips -----------------------------------------------------------

class ModelRoundTrip : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ModelRoundTrip, HashStable)
{
    Graph original = buildModel(GetParam());
    Graph copy = import(graphToJson(original));

    // The imported copy is the same workload to every consumer:
    // identical name, structure, derived totals, and content hash.
    EXPECT_EQ(copy.name(), original.name());
    ASSERT_EQ(copy.size(), original.size());
    EXPECT_EQ(copy.numEdges(), original.numEdges());
    EXPECT_EQ(copy.totalMacs(), original.totalMacs());
    EXPECT_EQ(copy.totalWeightBytes(), original.totalWeightBytes());
    EXPECT_EQ(graphHash(copy), graphHash(original));
}

TEST_P(ModelRoundTrip, ExportIsIdempotent)
{
    Graph g = buildModel(GetParam());
    std::string once = graphToJson(g);
    EXPECT_EQ(graphToJson(import(once)), once);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelRoundTrip,
                         ::testing::ValuesIn(allModelNames()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

TEST(GraphJsonFile, SaveLoadRoundTrip)
{
    Graph g = buildModel("GoogleNet");
    std::string path = ::testing::TempDir() + "cocco_graph_rt.json";
    ASSERT_TRUE(saveGraphJson(g, path));

    Graph copy;
    std::string err;
    ASSERT_TRUE(loadGraphJson(path, &copy, &err)) << err;
    EXPECT_EQ(graphHash(copy), graphHash(g));
    std::remove(path.c_str());
}

TEST(GraphJsonFile, MissingFileIsAnError)
{
    Graph g;
    std::string err;
    EXPECT_FALSE(loadGraphJson("/nonexistent/graph.json", &g, &err));
    EXPECT_NE(err.find("cannot read"), std::string::npos);
}

TEST(GraphJsonFile, DuplicateKeysAreErrors)
{
    // The graph used to load, under its second name.
    const std::string path = ::testing::TempDir() + "cocco_dup_graph.json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"schema_version\": 1, \"name\": \"a\", \"name\": \"b\",\n"
               " \"nodes\": [{\"name\": \"in\", \"kind\": \"input\",\n"
               "             \"outH\": 1, \"outW\": 1, \"outC\": 1}]}\n",
               f);
    std::fclose(f);
    Graph g;
    std::string err;
    EXPECT_FALSE(loadGraphJson(path, &g, &err));
    EXPECT_NE(err.find("line 1: duplicate key \"name\""), std::string::npos)
        << err;
    std::remove(path.c_str());
}

TEST(GraphJson, OptionalFieldsDefault)
{
    // kernel/stride default to 1 and preds to [] on import.
    Graph g = import(R"({
        "schema_version": 1, "name": "one",
        "nodes": [{"name": "in", "kind": "input",
                   "outH": 4, "outW": 4, "outC": 2}]
    })");
    EXPECT_EQ(g.size(), 1);
    EXPECT_EQ(g.layer(0).kernel, 1);
    EXPECT_EQ(g.layer(0).stride, 1);
    EXPECT_TRUE(g.isInput(0));
}

// --- Rejections ------------------------------------------------------------

TEST(GraphJsonReject, UnknownKeys)
{
    EXPECT_NE(importError(R"({
        "schema_version": 1, "name": "x", "nodes": [], "colour": 3
    })").find("colour"), std::string::npos);

    std::string err = importError(R"({
        "schema_version": 1, "name": "x",
        "nodes": [{"name": "in", "kind": "input", "outH": 1,
                   "outW": 1, "outC": 1, "padding": 2}]
    })");
    EXPECT_NE(err.find("padding"), std::string::npos);
}

TEST(GraphJsonReject, TypeMismatches)
{
    EXPECT_NE(importError(R"({
        "schema_version": 1, "name": 7, "nodes": []
    })").find("name"), std::string::npos);

    std::string err = importError(R"({
        "schema_version": 1, "name": "x",
        "nodes": [{"name": "in", "kind": "input", "outH": "tall",
                   "outW": 1, "outC": 1}]
    })");
    EXPECT_NE(err.find("outH"), std::string::npos);
}

TEST(GraphJsonReject, CyclicOrForwardEdges)
{
    // A self-loop (the smallest cycle) and a forward reference are
    // both "pred is not an earlier node".
    std::string self_loop = importError(R"({
        "schema_version": 1, "name": "x",
        "nodes": [
            {"name": "in", "kind": "input", "outH": 1, "outW": 1,
             "outC": 1},
            {"name": "c", "kind": "conv", "outH": 1, "outW": 1,
             "outC": 1, "preds": [1]}
        ]
    })");
    EXPECT_NE(self_loop.find("earlier node"), std::string::npos);

    std::string forward = importError(R"({
        "schema_version": 1, "name": "x",
        "nodes": [
            {"name": "in", "kind": "input", "outH": 1, "outW": 1,
             "outC": 1},
            {"name": "a", "kind": "conv", "outH": 1, "outW": 1,
             "outC": 1, "preds": [2]},
            {"name": "b", "kind": "conv", "outH": 1, "outW": 1,
             "outC": 1, "preds": [1]}
        ]
    })");
    EXPECT_NE(forward.find("earlier node"), std::string::npos);
}

TEST(GraphJsonReject, DuplicatePreds)
{
    // A repeated pred would double-count the producer's channels in
    // every derived weight/MAC figure.
    std::string err = importError(R"({
        "schema_version": 1, "name": "x",
        "nodes": [
            {"name": "in", "kind": "input", "outH": 1, "outW": 1,
             "outC": 1},
            {"name": "c", "kind": "conv", "outH": 1, "outW": 1,
             "outC": 1, "preds": [0, 0]}
        ]
    })");
    EXPECT_NE(err.find("duplicate pred"), std::string::npos);
}

TEST(GraphJsonReject, StructuralViolations)
{
    // Input with preds.
    EXPECT_NE(importError(R"({
        "schema_version": 1, "name": "x",
        "nodes": [
            {"name": "a", "kind": "input", "outH": 1, "outW": 1,
             "outC": 1},
            {"name": "b", "kind": "input", "outH": 1, "outW": 1,
             "outC": 1, "preds": [0]}
        ]
    })").find("input node"), std::string::npos);

    // Non-input without preds.
    EXPECT_NE(importError(R"({
        "schema_version": 1, "name": "x",
        "nodes": [{"name": "c", "kind": "conv", "outH": 1, "outW": 1,
                   "outC": 1}]
    })").find("pred"), std::string::npos);

    // Duplicate names.
    EXPECT_NE(importError(R"({
        "schema_version": 1, "name": "x",
        "nodes": [
            {"name": "in", "kind": "input", "outH": 1, "outW": 1,
             "outC": 1},
            {"name": "in", "kind": "conv", "outH": 1, "outW": 1,
             "outC": 1, "preds": [0]}
        ]
    })").find("duplicate"), std::string::npos);

    // Non-positive shape.
    EXPECT_NE(importError(R"({
        "schema_version": 1, "name": "x",
        "nodes": [{"name": "in", "kind": "input", "outH": 0, "outW": 1,
                   "outC": 1}]
    })").find(">= 1"), std::string::npos);

    // Unknown layer kind.
    EXPECT_NE(importError(R"({
        "schema_version": 1, "name": "x",
        "nodes": [{"name": "in", "kind": "softmax", "outH": 1,
                   "outW": 1, "outC": 1}]
    })").find("softmax"), std::string::npos);
}

TEST(GraphJsonReject, MissingRequiredFields)
{
    EXPECT_NE(importError(R"({"name": "x", "nodes": []})")
                  .find("schema_version"),
              std::string::npos);
    EXPECT_NE(importError(R"({"schema_version": 1, "nodes": []})")
                  .find("name"),
              std::string::npos);
    EXPECT_NE(importError(R"({"schema_version": 1, "name": "x"})")
                  .find("nodes"),
              std::string::npos);
    EXPECT_NE(importError(R"({"schema_version": 1, "name": "x",
                              "nodes": []})")
                  .find("empty"),
              std::string::npos);
    EXPECT_NE(importError(R"({"schema_version": 2, "name": "x",
                              "nodes": []})")
                  .find("schema_version"),
              std::string::npos);

    std::string err = importError(R"({
        "schema_version": 1, "name": "x",
        "nodes": [{"name": "in", "kind": "input", "outH": 1, "outW": 1}]
    })");
    EXPECT_NE(err.find("required"), std::string::npos);
}

TEST(GraphJsonReject, NonObjectDocument)
{
    Graph g;
    std::string err;
    JsonValue doc;
    ASSERT_TRUE(parseJson("[1, 2]", &doc, &err));
    EXPECT_FALSE(graphFromJson(doc, &g, &err));
    EXPECT_NE(err.find("object"), std::string::npos);
}

TEST(GraphJson, TinyDocImports)
{
    Graph g = import(kTinyDoc);
    EXPECT_EQ(g.name(), "tiny");
    EXPECT_EQ(g.size(), 2);
    EXPECT_EQ(g.macs(1), 8LL * 8 * 4 * 3 * 3 * 4);
}
