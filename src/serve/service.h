/**
 * @file
 * The protocol layer of the exploration service: the two front ends
 * of a JobManager.
 *
 * - serveHttpRequest() maps the HTTP job API onto a manager:
 *     GET  /healthz                 -> {"status":"ok", ...}
 *     POST /jobs                    body = run-spec JSON; X-Tenant
 *                                      header labels the tenant;
 *                                      202 {"job":N} / 400 / 429
 *     GET  /jobs                    status array of every job
 *     GET  /jobs/N                  one job's status (404 unknown)
 *     POST /jobs/N/cancel           {"cancelled":B}
 *     GET  /jobs/N/result           the resultToJson document
 *                                      (409 + status while non-terminal)
 *     GET  /jobs/N/metrics          the schema-v1 metrics document
 *     GET  /jobs/N/events           NDJSON event stream until terminal
 *     POST /shutdown                ask the serve loop to exit
 *
 * - runStdioServe() speaks the same vocabulary as NDJSON over a
 *   FILE* pair (one JSON object per line in, one per line out) for
 *   driving the service from scripts and tests without sockets:
 *     {"cmd":"submit","spec":{...},"tenant":"..."}  -> {"job":N}
 *     {"cmd":"status","job":N} / {"cmd":"jobs"}
 *     {"cmd":"cancel","job":N} / {"cmd":"wait","job":N}
 *     {"cmd":"result","job":N} / {"cmd":"metrics","job":N,"out":"f"}
 *     {"cmd":"shutdown"}
 *   Every reply carries "ok":true/false; errors add "error".
 *
 * Both front ends parse specs with parseRunSpec (serve/run_spec.h),
 * exactly as `cocco run` does — the service must interpret a spec
 * document byte-for-byte like the solo CLI for the bit-identity
 * contract.
 */

#ifndef COCCO_SERVE_SERVICE_H
#define COCCO_SERVE_SERVICE_H

#include <atomic>
#include <cstdio>
#include <string>

#include "serve/http_server.h"
#include "serve/job_manager.h"
#include "serve/run_spec.h"

namespace cocco {

/** One job's status as a JSON object (compact, single line). */
std::string jobStatusJson(const JobStatus &s);

/**
 * Route one HTTP request against @p manager (API above). When the
 * client POSTs /shutdown, @p shutdownFlag is set (the serve loop
 * polls it); pass null to disable remote shutdown.
 */
HttpResponse serveHttpRequest(JobManager &manager, const HttpRequest &req,
                              std::atomic<bool> *shutdownFlag);

/**
 * Drive the stdio NDJSON protocol (above) over @p in / @p out until
 * EOF or a shutdown command. Cancels whatever is still active on the
 * way out. @return the process exit code (0).
 */
int runStdioServe(JobManager &manager, std::FILE *in, std::FILE *out);

} // namespace cocco

#endif // COCCO_SERVE_SERVICE_H
