#include "util/logging.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace cocco {

namespace {

bool quiet_flag = false;

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<size_t>(n));
}

} // namespace

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
fatalIf(const std::string &reason)
{
    if (!reason.empty())
        fatal("%s", reason.c_str());
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
warn(const char *fmt, ...)
{
    if (quiet_flag)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const char *fmt, ...)
{
    if (quiet_flag)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

void
setQuiet(bool quiet)
{
    quiet_flag = quiet;
}

bool
isQuiet()
{
    return quiet_flag;
}

std::string
strprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    return msg;
}

std::string
joinComma(const std::vector<std::string> &items)
{
    std::string out;
    for (const std::string &item : items)
        out += (out.empty() ? "" : ", ") + item;
    return out;
}

} // namespace cocco
