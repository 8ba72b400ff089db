#include "graph/graph_json.h"

#include <algorithm>
#include <fstream>
#include <set>

#include "util/field_walk.h"

namespace cocco {

namespace {

constexpr int kGraphSchemaVersion = 1;

/** One "nodes" entry: a layer and its preds, by index. */
struct GraphNode
{
    Layer layer;
    std::vector<NodeId> preds;
};

/** A cocco-graph document, as its field list reads and writes it. */
struct GraphDoc
{
    int version = kGraphSchemaVersion;
    std::string name;
    std::vector<GraphNode> nodes;
};

const Name<LayerKind> kLayerKinds[] = {
    {layerKindName(LayerKind::Input), LayerKind::Input},
    {layerKindName(LayerKind::Conv), LayerKind::Conv},
    {layerKindName(LayerKind::DWConv), LayerKind::DWConv},
    {layerKindName(LayerKind::Pool), LayerKind::Pool},
    {layerKindName(LayerKind::Eltwise), LayerKind::Eltwise},
    {layerKindName(LayerKind::Concat), LayerKind::Concat},
    {layerKindName(LayerKind::Matmul), LayerKind::Matmul},
};

/** The document, written down once. A future schema_version is
 *  refused before its nodes are read. */
template <typename V, typename D>
void
docFields(V &v, D &d)
{
    v.field("schema_version", d.version);
    v.rule(d.version == kGraphSchemaVersion
               ? ""
               : strprintf("unsupported \"schema_version\" %d (this build "
                           "reads %d)",
                           d.version, kGraphSchemaVersion));
    v.field("name", d.name);
    v.objects("nodes", d.nodes, [&](auto &n) {
        v.field("name", n.layer.name);
        v.choice("kind", n.layer.kind, kLayerKinds);
        v.field("outH", n.layer.outH, atLeast(1));
        v.field("outW", n.layer.outW, atLeast(1));
        v.field("outC", n.layer.outC, atLeast(1));
        v.field(opt("kernel"), n.layer.kernel, atLeast(1));
        v.field(opt("stride"), n.layer.stride, atLeast(1));
        v.list(opt("preds"), n.preds);
    });
}

/** The rules the lines cannot see: a name, at least one node, unique
 *  node names, and preds that are distinct earlier nodes, none on an
 *  input node and at least one on every other. */
std::string
graphError(const GraphDoc &d)
{
    if (d.name.empty())
        return "\"name\" must not be empty";
    if (d.nodes.empty())
        return "\"nodes\" must not be empty";
    std::set<std::string> seen;
    for (size_t i = 0; i < d.nodes.size(); ++i) {
        const GraphNode &n = d.nodes[i];
        for (size_t j = 0; j < n.preds.size(); ++j) {
            const NodeId u = n.preds[j];
            if (u < 0 || static_cast<size_t>(u) >= i)
                return strprintf(
                    "\"nodes[%zu].preds\": pred %d is not an earlier node "
                    "(documents must be topologically ordered; cycles "
                    "cannot be expressed)",
                    i, u);
            // A repeated pred would double-count the producer's
            // channels in every derived weight/MAC figure.
            if (std::find(n.preds.begin(), n.preds.begin() + j, u) !=
                n.preds.begin() + j)
                return strprintf("\"nodes[%zu].preds\": duplicate pred %d",
                                 i, u);
        }
        const bool input = n.layer.kind == LayerKind::Input;
        if (input && !n.preds.empty())
            return strprintf("\"nodes[%zu]\": an input node cannot have "
                             "preds",
                             i);
        if (!input && n.preds.empty())
            return strprintf("\"nodes[%zu]\": a non-input node needs at "
                             "least one pred",
                             i);
        if (!seen.insert(n.layer.name).second)
            return strprintf("\"nodes[%zu].name\": duplicate node name "
                             "\"%s\"",
                             i, n.layer.name.c_str());
    }
    return "";
}

} // namespace

std::string
graphToJson(const Graph &g)
{
    GraphDoc d;
    d.name = g.name();
    for (NodeId v = 0; v < g.size(); ++v)
        d.nodes.push_back({g.layer(v), g.preds(v)});
    JsonWriter w;
    FieldWalk<false> walk(&w);
    walk.members([&] { docFields(walk, d); });
    return w.str();
}

bool
graphFromJson(const JsonValue &doc, Graph *out, std::string *err)
{
    GraphDoc d;
    std::string why;
    FieldWalk<true> walk("graph", &why);
    if (walk.read(doc, "", [&] { walk.members([&] { docFields(walk, d); }); }))
        why = graphError(d);
    if (!why.empty())
        return jsonFail(err, why);
    Graph g(d.name);
    // Every addNode precondition was checked above, so this cannot
    // fatal on user input.
    for (const GraphNode &n : d.nodes)
        g.addNode(n.layer, n.preds);
    *out = std::move(g);
    return true;
}

bool
loadGraphJson(const std::string &path, Graph *out, std::string *err)
{
    JsonValue doc;
    if (!loadJsonFile(path, &doc, err))
        return false;
    std::string sub;
    if (!graphFromJson(doc, out, &sub)) {
        if (err && err->empty())
            *err = path + ": " + sub;
        return false;
    }
    return true;
}

bool
saveGraphJson(const Graph &g, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << graphToJson(g) << '\n';
    return static_cast<bool>(out);
}

} // namespace cocco
