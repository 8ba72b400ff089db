#include "serve/http_server.h"

#include <cctype>
#include <cstdio>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/logging.h"

namespace cocco {

namespace {

/** Requests larger than this are dropped — the job API's documents
 *  are small; anything bigger is a confused or hostile client. */
constexpr size_t kMaxRequestBytes = 4u << 20;

std::string
lowercase(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

const char *
statusText(int status)
{
    switch (status) {
      case 200:
        return "OK";
      case 202:
        return "Accepted";
      case 400:
        return "Bad Request";
      case 404:
        return "Not Found";
      case 405:
        return "Method Not Allowed";
      case 409:
        return "Conflict";
      case 429:
        return "Too Many Requests";
      default:
        return status < 500 ? "Error" : "Internal Server Error";
    }
}

/** Loop a full send over partial writes; MSG_NOSIGNAL so a client
 *  that hung up surfaces as an error, not SIGPIPE. */
bool
sendAll(int fd, const char *data, size_t n)
{
    while (n > 0) {
        ssize_t sent = ::send(fd, data, n, MSG_NOSIGNAL);
        if (sent <= 0)
            return false;
        data += sent;
        n -= static_cast<size_t>(sent);
    }
    return true;
}

bool
sendAll(int fd, const std::string &s)
{
    return sendAll(fd, s.data(), s.size());
}

/** Read until the header terminator, then Content-Length more bytes.
 *  @return false on EOF/overflow/garbage before a full request. */
bool
readRequest(int fd, HttpRequest *out)
{
    std::string buf;
    char chunk[4096];
    size_t headerEnd = std::string::npos;
    while (headerEnd == std::string::npos) {
        ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
        if (got <= 0)
            return false;
        buf.append(chunk, static_cast<size_t>(got));
        if (buf.size() > kMaxRequestBytes)
            return false;
        headerEnd = buf.find("\r\n\r\n");
    }

    // Request line: METHOD SP PATH SP VERSION.
    size_t lineEnd = buf.find("\r\n");
    std::string line = buf.substr(0, lineEnd);
    size_t sp1 = line.find(' ');
    size_t sp2 = line.rfind(' ');
    if (sp1 == std::string::npos || sp2 == sp1)
        return false;
    out->method = line.substr(0, sp1);
    out->path = line.substr(sp1 + 1, sp2 - sp1 - 1);

    size_t contentLength = 0;
    size_t pos = lineEnd + 2;
    while (pos < headerEnd) {
        size_t end = buf.find("\r\n", pos);
        std::string header = buf.substr(pos, end - pos);
        pos = end + 2;
        size_t colon = header.find(':');
        if (colon == std::string::npos)
            continue;
        std::string name = lowercase(header.substr(0, colon));
        size_t vstart = colon + 1;
        while (vstart < header.size() && header[vstart] == ' ')
            ++vstart;
        std::string value = header.substr(vstart);
        if (name == "content-length")
            contentLength = static_cast<size_t>(
                std::strtoull(value.c_str(), nullptr, 10));
        out->headers.emplace_back(std::move(name), std::move(value));
    }
    if (contentLength > kMaxRequestBytes)
        return false;

    std::string bodySoFar = buf.substr(headerEnd + 4);
    while (bodySoFar.size() < contentLength) {
        ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
        if (got <= 0)
            return false;
        bodySoFar.append(chunk, static_cast<size_t>(got));
    }
    out->body = bodySoFar.substr(0, contentLength);
    return true;
}

} // namespace

std::string
HttpRequest::header(const std::string &name) const
{
    for (const auto &[key, value] : headers)
        if (key == name)
            return value;
    return "";
}

HttpServer::HttpServer(Handler handler) : handler_(std::move(handler)) {}

HttpServer::~HttpServer()
{
    stop();
}

bool
HttpServer::start(int port, std::string *err)
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        if (err)
            *err = strprintf("socket: %s", std::strerror(errno));
        return false;
    }
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        if (err)
            *err = strprintf("bind 127.0.0.1:%d: %s", port,
                             std::strerror(errno));
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    if (::listen(listenFd_, 64) != 0) {
        if (err)
            *err = strprintf("listen: %s", std::strerror(errno));
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr), &len);
    port_ = ntohs(addr.sin_port);

    running_.store(true, std::memory_order_relaxed);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
HttpServer::stop()
{
    if (!running_.exchange(false, std::memory_order_relaxed)) {
        if (acceptThread_.joinable())
            acceptThread_.join();
        return;
    }
    // Unblock accept() by shutting the listener down, and close it
    // only once the accept thread, which reads listenFd_, has exited.
    // Then unblock any connection stuck in recv()/send().
    ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    ::close(listenFd_);
    listenFd_ = -1;

    std::vector<Conn> conns;
    {
        std::lock_guard<std::mutex> lk(connMu_);
        conns.swap(conns_);
    }
    for (Conn &c : conns) {
        ::shutdown(c.fd, SHUT_RDWR);
        if (c.thread.joinable())
            c.thread.join();
        ::close(c.fd);
    }
}

void
HttpServer::acceptLoop()
{
    while (running_.load(std::memory_order_relaxed)) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (!running_.load(std::memory_order_relaxed))
                return;
            continue;
        }
        std::lock_guard<std::mutex> lk(connMu_);
        reapLocked();
        Conn c;
        c.fd = fd;
        c.done = std::make_shared<std::atomic<bool>>(false);
        auto done = c.done;
        c.thread = std::thread([this, fd, done] {
            handleConnection(fd);
            done->store(true, std::memory_order_relaxed);
        });
        conns_.push_back(std::move(c));
    }
}

void
HttpServer::reapLocked()
{
    size_t kept = 0;
    for (size_t i = 0; i < conns_.size(); ++i) {
        Conn &c = conns_[i];
        if (c.done->load(std::memory_order_relaxed)) {
            c.thread.join();
            ::close(c.fd);
        } else {
            // Guard the self-move: assigning a joinable std::thread
            // over itself would std::terminate.
            if (kept != i)
                conns_[kept] = std::move(c);
            ++kept;
        }
    }
    conns_.resize(kept);
}

void
HttpServer::handleConnection(int fd)
{
    HttpRequest req;
    HttpResponse res;
    if (!readRequest(fd, &req)) {
        res.status = 400;
        res.body = "{\"error\":\"malformed request\"}";
    } else {
        res = handler_(req);
    }

    if (res.streamer) {
        std::string head = strprintf(
            "HTTP/1.1 %d %s\r\nContent-Type: %s\r\n"
            "Connection: close\r\n\r\n",
            res.status, statusText(res.status), res.contentType.c_str());
        if (sendAll(fd, head))
            res.streamer([fd](const std::string &chunk) {
                return sendAll(fd, chunk);
            });
    } else {
        std::string head = strprintf(
            "HTTP/1.1 %d %s\r\nContent-Type: %s\r\n"
            "Content-Length: %zu\r\nConnection: close\r\n\r\n",
            res.status, statusText(res.status), res.contentType.c_str(),
            res.body.size());
        if (sendAll(fd, head))
            sendAll(fd, res.body);
    }
    ::shutdown(fd, SHUT_RDWR);
    // The fd is closed by reapLocked()/stop(), which own it.
}

bool
httpFetch(const std::string &host, int port, const std::string &method,
          const std::string &path, const std::string &body, int *status,
          std::string *response, std::string *err)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (err)
            *err = strprintf("socket: %s", std::strerror(errno));
        return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        if (err)
            *err = "bad host address: " + host;
        ::close(fd);
        return false;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        if (err)
            *err = strprintf("connect %s:%d: %s", host.c_str(), port,
                             std::strerror(errno));
        ::close(fd);
        return false;
    }

    std::string req = strprintf(
        "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %zu\r\n"
        "Connection: close\r\n\r\n",
        method.c_str(), path.c_str(), host.c_str(), body.size());
    req += body;
    if (!sendAll(fd, req)) {
        if (err)
            *err = strprintf("send: %s", std::strerror(errno));
        ::close(fd);
        return false;
    }

    std::string buf;
    char chunk[4096];
    for (;;) {
        ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
        if (got <= 0)
            break;
        buf.append(chunk, static_cast<size_t>(got));
    }
    ::close(fd);

    size_t headerEnd = buf.find("\r\n\r\n");
    if (headerEnd == std::string::npos ||
        std::sscanf(buf.c_str(), "HTTP/%*d.%*d %d", status) != 1) {
        if (err)
            *err = "unparseable HTTP response";
        return false;
    }
    if (response)
        *response = buf.substr(headerEnd + 4);
    return true;
}

} // namespace cocco
