/**
 * @file
 * Status-message and error-termination helpers, gem5-style.
 *
 * fatal()  — the situation is the user's fault (bad configuration,
 *            invalid arguments); exits with code 1.
 * panic()  — an internal invariant was violated (a cocco bug); aborts.
 * warn()   — something works but not as well as it should.
 * inform() — plain status output.
 */

#ifndef COCCO_UTIL_LOGGING_H
#define COCCO_UTIL_LOGGING_H

#include <cstdarg>
#include <string>
#include <vector>

namespace cocco {

/** Print "fatal: <msg>" to stderr and exit(1). User-level error. */
[[noreturn]] void fatal(const char *fmt, ...);

/** fatal() with @p reason unless it is empty — the guard over a
 *  rule function that returns "" or a reason. */
void fatalIf(const std::string &reason);

/** Print "panic: <msg>" to stderr and abort(). Internal bug. */
[[noreturn]] void panic(const char *fmt, ...);

/** Print "warn: <msg>" to stderr. */
void warn(const char *fmt, ...);

/** Print an informational message to stdout. */
void inform(const char *fmt, ...);

/** Globally silence warn()/inform() (used by tests and benches). */
void setQuiet(bool quiet);

/** @return true when warn()/inform() output is suppressed. */
bool isQuiet();

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...);

/** "a, b, c" join — the standard rendering of a registry's known
 *  keys in error messages and listings. */
std::string joinComma(const std::vector<std::string> &items);

} // namespace cocco

#endif // COCCO_UTIL_LOGGING_H
