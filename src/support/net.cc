#include "net.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "str.hh"

namespace hilp {
namespace net {

namespace {

/** One parsed listen/connect address. */
struct Address
{
    bool ok = false;
    bool isUnix = false;
    std::string path;  //!< Unix socket path.
    std::string host;  //!< TCP host.
    std::string port;  //!< TCP port (text, for getaddrinfo).
    std::string error;
};

Address
parseAddress(const std::string &text)
{
    Address address;
    if (text.rfind("unix:", 0) == 0) {
        address.isUnix = true;
        address.path = text.substr(5);
        if (address.path.empty()) {
            address.error = "empty unix socket path";
            return address;
        }
        address.ok = true;
        return address;
    }
    std::string rest = text;
    if (rest.rfind("tcp:", 0) == 0) {
        rest = rest.substr(4);
    } else if (rest.rfind("/", 0) == 0 || rest.rfind("./", 0) == 0) {
        address.isUnix = true;
        address.path = rest;
        address.ok = true;
        return address;
    }
    size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon + 1 >= rest.size()) {
        address.error = format(
            "cannot parse address '%s' (expected unix:PATH or "
            "tcp:HOST:PORT)", text.c_str());
        return address;
    }
    address.host = rest.substr(0, colon);
    address.port = rest.substr(colon + 1);
    if (address.host.empty())
        address.host = "127.0.0.1";
    address.ok = true;
    return address;
}

bool
fillUnixAddr(const std::string &path, sockaddr_un *addr,
             std::string *error)
{
    if (path.size() >= sizeof(addr->sun_path)) {
        if (error)
            *error = format("unix socket path too long: '%s'",
                            path.c_str());
        return false;
    }
    std::memset(addr, 0, sizeof(*addr));
    addr->sun_family = AF_UNIX;
    std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
    return true;
}

/**
 * Send every write at once. A sweep streams one short line per point
 * to a peer that acknowledges late, so Nagle's algorithm would hold
 * each line until the peer's delayed-ACK timer fires.
 */
void
setNoDelay(int fd)
{
    int on = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
}

} // anonymous namespace

int
Socket::release()
{
    int fd = fd_;
    fd_ = -1;
    return fd;
}

void
Socket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

long
Socket::read(void *data, size_t size)
{
    for (;;) {
        long got = ::read(fd_, data, size);
        if (got >= 0 || errno != EINTR)
            return got;
    }
}

bool
Socket::writeAll(const void *data, size_t size)
{
    const char *cursor = static_cast<const char *>(data);
    size_t left = size;
    while (left > 0) {
        long sent = ::send(fd_, cursor, left, MSG_NOSIGNAL);
        if (sent < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        cursor += sent;
        left -= static_cast<size_t>(sent);
    }
    return true;
}

namespace {

bool
setSocketTimeout(int fd, int option, double seconds)
{
    if (fd < 0 || seconds < 0.0)
        return false;
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
    return ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv)) == 0;
}

} // anonymous namespace

bool
Socket::setReadTimeout(double seconds)
{
    return setSocketTimeout(fd_, SO_RCVTIMEO, seconds);
}

bool
Socket::setWriteTimeout(double seconds)
{
    return setSocketTimeout(fd_, SO_SNDTIMEO, seconds);
}

bool
Listener::open(const std::string &address, std::string *error)
{
    Address parsed = parseAddress(address);
    if (!parsed.ok) {
        if (error)
            *error = parsed.error;
        return false;
    }

    if (parsed.isUnix) {
        sockaddr_un addr;
        if (!fillUnixAddr(parsed.path, &addr, error))
            return false;

        // A socket file may be left behind by a killed daemon. Probe
        // it: if something still accepts connections the address is
        // genuinely in use; otherwise it is stale and safe to remove.
        struct stat st;
        if (::stat(parsed.path.c_str(), &st) == 0) {
            if (!S_ISSOCK(st.st_mode)) {
                if (error)
                    *error = format(
                        "'%s' exists and is not a socket",
                        parsed.path.c_str());
                return false;
            }
            int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (probe >= 0) {
                int live = ::connect(
                    probe, reinterpret_cast<sockaddr *>(&addr),
                    sizeof(addr));
                ::close(probe);
                if (live == 0) {
                    if (error)
                        *error = format(
                            "address in use: a daemon is live on "
                            "'%s'", parsed.path.c_str());
                    return false;
                }
            }
            ::unlink(parsed.path.c_str());
        }

        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0 ||
            ::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(fd, 64) != 0) {
            if (error)
                *error = format("cannot listen on '%s': %s",
                                parsed.path.c_str(),
                                std::strerror(errno));
            if (fd >= 0)
                ::close(fd);
            return false;
        }
        socket_ = Socket(fd);
        unixPath_ = parsed.path;
        address_ = "unix:" + parsed.path;
        return true;
    }

    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    addrinfo *info = nullptr;
    int rc = ::getaddrinfo(parsed.host.c_str(), parsed.port.c_str(),
                           &hints, &info);
    if (rc != 0) {
        if (error)
            *error = format("cannot resolve '%s:%s': %s",
                            parsed.host.c_str(), parsed.port.c_str(),
                            ::gai_strerror(rc));
        return false;
    }
    int fd = -1;
    for (addrinfo *ai = info; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype,
                      ai->ai_protocol);
        if (fd < 0)
            continue;
        int on = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &on, sizeof(on));
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
            ::listen(fd, 64) == 0)
            break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(info);
    if (fd < 0) {
        if (error)
            *error = format("cannot listen on '%s:%s': %s",
                            parsed.host.c_str(), parsed.port.c_str(),
                            std::strerror(errno));
        return false;
    }
    sockaddr_storage bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                      &bound_len) == 0) {
        if (bound.ss_family == AF_INET)
            port_ = ntohs(
                reinterpret_cast<sockaddr_in *>(&bound)->sin_port);
        else if (bound.ss_family == AF_INET6)
            port_ = ntohs(
                reinterpret_cast<sockaddr_in6 *>(&bound)->sin6_port);
    }
    socket_ = Socket(fd);
    address_ = "tcp:" + parsed.host + ":" + std::to_string(port_);
    return true;
}

Socket
Listener::accept()
{
    if (!socket_.valid())
        return Socket();
    for (;;) {
        int fd = ::accept(socket_.fd(), nullptr, nullptr);
        if (fd >= 0) {
            if (unixPath_.empty())
                setNoDelay(fd);
            return Socket(fd);
        }
        if (errno != EINTR)
            return Socket();
    }
}

void
Listener::close()
{
    socket_.close();
    if (!unixPath_.empty()) {
        ::unlink(unixPath_.c_str());
        unixPath_.clear();
    }
}

Socket
connectTo(const std::string &address, std::string *error)
{
    Address parsed = parseAddress(address);
    if (!parsed.ok) {
        if (error)
            *error = parsed.error;
        return Socket();
    }

    if (parsed.isUnix) {
        sockaddr_un addr;
        if (!fillUnixAddr(parsed.path, &addr, error))
            return Socket();
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0 ||
            ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            if (error)
                *error = format("cannot connect to '%s': %s",
                                parsed.path.c_str(),
                                std::strerror(errno));
            if (fd >= 0)
                ::close(fd);
            return Socket();
        }
        return Socket(fd);
    }

    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *info = nullptr;
    int rc = ::getaddrinfo(parsed.host.c_str(), parsed.port.c_str(),
                           &hints, &info);
    if (rc != 0) {
        if (error)
            *error = format("cannot resolve '%s:%s': %s",
                            parsed.host.c_str(), parsed.port.c_str(),
                            ::gai_strerror(rc));
        return Socket();
    }
    int fd = -1;
    for (addrinfo *ai = info; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype,
                      ai->ai_protocol);
        if (fd < 0)
            continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(info);
    if (fd < 0) {
        if (error)
            *error = format("cannot connect to '%s:%s': %s",
                            parsed.host.c_str(), parsed.port.c_str(),
                            std::strerror(errno));
        return Socket();
    }
    setNoDelay(fd);
    return Socket(fd);
}

bool
LineChannel::readLine(std::string *line)
{
    timedOut_ = false;
    tooLong_ = false;
    for (;;) {
        size_t newline = buffer_.find('\n', scanned_);
        if (newline != std::string::npos) {
            line->assign(buffer_, start_, newline - start_);
            start_ = scanned_ = newline + 1;
            return true;
        }
        if (buffer_.size() - start_ > kMaxLineBytes) {
            buffer_.clear();
            start_ = scanned_ = 0;
            tooLong_ = true;
            return false;
        }
        // Drop the consumed lines once per read rather than once per
        // line: a read that brought many lines moves its tail once.
        buffer_.erase(0, start_);
        start_ = 0;
        scanned_ = buffer_.size();
        char chunk[4096];
        long got = socket_.read(chunk, sizeof(chunk));
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            // A read timeout (Socket::setReadTimeout) expired: the
            // peer stalled mid-line. Keep the partial line buffered
            // and let the caller decide - this is not end of stream.
            timedOut_ = true;
            return false;
        }
        if (got <= 0) {
            // EOF/error: surface a final unterminated fragment once.
            if (!buffer_.empty()) {
                line->assign(buffer_);
                buffer_.clear();
                scanned_ = 0;
                return true;
            }
            return false;
        }
        buffer_.append(chunk, static_cast<size_t>(got));
    }
}

bool
LineChannel::writeLine(const std::string &line)
{
    std::string framed = line;
    framed += '\n';
    return socket_.writeAll(framed.data(), framed.size());
}

} // namespace net
} // namespace hilp
