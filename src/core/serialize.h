/**
 * @file
 * Serialization of the framework's artifacts: JSON for downstream
 * compilers/visualizers (recommended configuration, partition,
 * per-subgraph execution schemes), platform documents, the workload /
 * platform spec resolvers behind `cocco run --spec`, and the on-disk
 * evaluation-cache format that lets repeated CLI/bench runs
 * warm-start.
 */

#ifndef COCCO_CORE_SERIALIZE_H
#define COCCO_CORE_SERIALIZE_H

#include <string>

#include "core/cocco.h"
#include "search/checkpoint.h"
#include "search/eval_cache.h"
#include "sim/deployment.h"
#include "sim/platform.h"
#include "tileflow/scheme.h"

namespace cocco {

/** Serialize a partition (block list with layer names). */
std::string partitionToJson(const Graph &g, const Partition &p);

/** Serialize a derived execution scheme (per-node Delta/x/upd/regions). */
std::string schemeToJson(const Graph &g, const ExecutionScheme &s);

/** Serialize a full CoccoResult (buffer, costs, partition). */
std::string resultToJson(const Graph &g, const CoccoResult &r);

/**
 * Persist the genome level of an evaluation cache to @p path.
 *
 * Format v3: a text header line, then binary records, every integer
 * little-endian:
 *
 *     COCCO-EVALCACHE 3\n
 *     'E' hash:8 salt:8 act:4 wgt:4 shr:4 numBlocks:4 cost:8 n:4
 *         keyWidth:1 repairedWidth:1 key ids:n*keyWidth
 *         repaired ids:n*repairedWidth         (one record per entry)
 *     ...
 *     'T' count:8 checksum:8
 *
 * One `E` record per entry, least recently used first. The cost is
 * its IEEE-754 bits, so a round trip is bit-exact. Each id list is
 * written at its PackedIds width (1, 2 or 4 bytes per id, the
 * narrowest that holds them all); a repaired width of 0 means the
 * repaired ids equal the key. The trailer gives the entry count and a
 * 64-bit checksum (util/hash) folded over every entry record's bytes.
 * Entries carry their context salt, so a file may safely be loaded
 * into any run — entries from a different model/accelerator/space/
 * option set simply never hit.
 *
 * The write goes to `path.tmp`, renamed over @p path only once
 * complete, so a failed save leaves the previous file intact.
 *
 * @return false when the file cannot be written.
 */
bool saveEvalCache(const EvalCache &cache, const std::string &path);

/**
 * Load the file at @p path into @p cache (subject to its capacity/LRU
 * policy), all or nothing. The whole file is read and checked first:
 * header and version, every record whole, n within bounds, each id
 * width 1, 2 or 4 and the narrowest that holds the ids, block ids in
 * [0, n), the trailer's count and checksum, nothing after it. Only
 * then are the entries inserted, in file order, which reproduces the
 * saved recency ranking. Files of any other format version (the v1
 * and v2 text files included) are rejected: the cost is one cold
 * start.
 *
 * @return the number of entries loaded; or -1 when the file is
 *         missing, unreadable or malformed in any way, with @p cache
 *         untouched and *err (when given) set to "<path>: <reason>".
 */
int loadEvalCache(EvalCache &cache, const std::string &path,
                  std::string *err = nullptr);

/**
 * Persist a mid-run search checkpoint (search/checkpoint.h) to
 * @p path.
 *
 * Versioned line text ("COCCO-CHECKPOINT <version>"; encodeCheckpoint),
 * hexfloat doubles for bit-exact round trips: the shared lines, then
 * only the saving driver's section. Like the cache file, a checkpoint
 * is all-or-nothing — a partial resume state would silently fork the
 * run — so it is saved by the same write-then-rename, and the loader
 * rejects any malformed or truncated content outright. The format
 * version is SearchCheckpoint::kVersion: bump it whenever the struct,
 * a section or their encoding changes (see CONTRIBUTING).
 *
 * @return false when the file cannot be written.
 */
bool saveCheckpoint(const SearchCheckpoint &c, const std::string &path);

/**
 * Load a checkpoint written by saveCheckpoint into @p out
 * (decodeCheckpoint). It knows no run: check the snapshot against one
 * with checkpointError before resuming.
 * @return false with *err ("<path>: <reason>") when the file is
 *         missing, corrupt, or carries another format version; @p out
 *         is then untouched.
 */
bool loadCheckpoint(const std::string &path, SearchCheckpoint *out,
                    std::string *err);

// --- Workload & platform resolution -------------------------------------
// The file-and-name layer that makes a run spec self-contained: a
// WorkloadSpec / PlatformSpec (as parsed from a spec document or
// assembled from CLI flags) becomes a concrete Graph /
// AcceleratorConfig here. Both report problems as errors, never
// crashes — an unknown model, preset or file is always a clean user
// error at this level.

/**
 * Resolve a workload address into a graph: build the named registry
 * model with its parameters, or import the Graph JSON file. Exactly
 * one of model/file must be set.
 * @return false with *err set on any problem.
 */
bool resolveWorkload(const WorkloadSpec &spec, Graph *out,
                     std::string *err);

/**
 * Resolve a platform address into a configuration: a named preset
 * (default "simba"), a platform JSON file, or the inline config. At
 * most one source may be given.
 * @return false with *err set on any problem.
 */
bool resolvePlatform(const PlatformSpec &spec, AcceleratorConfig *out,
                     std::string *err);

/**
 * Resolve a deployment address into per-core configurations. The
 * description comes from the spec's preset, file, or inline form (at
 * most one; none means the inline defaults, i.e. a single core).
 * Cores without an explicit platform run @p base (the run's resolved
 * platform). All cores must agree on the batch size.
 * When the spec is disabled, *out becomes the trivial one-core
 * deployment of @p base.
 * @return false with *err set on any problem.
 */
bool resolveDeployment(const DeploymentSpec &spec,
                       const AcceleratorConfig &base,
                       DeploymentConfig *out, std::string *err);

/** Read + parse + validate the deployment document at @p path.
 *  @return false with *err set. */
bool loadDeploymentJson(const std::string &path, DeploymentDesc *out,
                        std::string *err);

/** Write acceleratorToJson(accel) to @p path. @return false on I/O
 *  failure. */
bool savePlatformJson(const AcceleratorConfig &accel,
                      const std::string &path);

/** Read + parse + validate the platform document at @p path.
 *  @return false with *err set. */
bool loadPlatformJson(const std::string &path, AcceleratorConfig *out,
                      std::string *err);

} // namespace cocco

#endif // COCCO_CORE_SERIALIZE_H
