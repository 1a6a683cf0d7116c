/**
 * @file
 * Minimal stream-socket plumbing for the evaluation daemon: listen /
 * accept / connect over Unix-domain or TCP sockets, plus a buffered
 * newline-delimited text channel.
 *
 * Address syntax, shared by hilpd --listen and the clients'
 * --connect flag:
 *
 *   unix:/path/to.sock   Unix-domain stream socket at that path
 *   /path/to.sock        shorthand for the same (leading '/' or './')
 *   tcp:HOST:PORT        TCP socket (HOST resolved via getaddrinfo)
 *   HOST:PORT            shorthand for the same
 *
 * The listener owns its Unix socket path: a stale socket file left by
 * a SIGKILLed daemon is detected (nobody accepts connections on it)
 * and unlinked before bind, so a restart always succeeds; a *live*
 * daemon on the path is reported as an address-in-use error instead.
 *
 * TCP sockets, the connected and the accepted end alike, carry
 * TCP_NODELAY, so each written line leaves at once.
 *
 * A LineChannel line is at most kMaxLineBytes long. A peer that sends
 * more without a newline is not speaking the protocol: readLine fails
 * with tooLong() set instead of buffering without bound.
 */

#ifndef HILP_SUPPORT_NET_HH
#define HILP_SUPPORT_NET_HH

#include <cstddef>
#include <string>

namespace hilp {
namespace net {

/** RAII ownership of one stream-socket file descriptor. */
class Socket
{
  public:
    Socket() = default;
    /** Adopt an open descriptor (-1 = invalid). */
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket() { close(); }

    Socket(Socket &&other) noexcept : fd_(other.fd_)
    {
        other.fd_ = -1;
    }

    Socket &
    operator=(Socket &&other) noexcept
    {
        if (this != &other) {
            close();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }

    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /** Release ownership of the descriptor without closing it. */
    int release();

    void close();

    /**
     * Read up to size bytes; returns the count, 0 on orderly EOF,
     * -1 on error. Retries EINTR.
     */
    long read(void *data, size_t size);

    /**
     * Write the whole buffer (retrying short writes and EINTR,
     * suppressing SIGPIPE). False when the peer is gone.
     */
    bool writeAll(const void *data, size_t size);

    /**
     * Bound every subsequent read to `seconds` of blocking
     * (SO_RCVTIMEO); an expired read fails with errno EAGAIN /
     * EWOULDBLOCK. 0 restores the historical wait-forever behavior.
     */
    bool setReadTimeout(double seconds);

    /** SO_SNDTIMEO counterpart: bound blocking writes. */
    bool setWriteTimeout(double seconds);

  private:
    int fd_ = -1;
};

/** A listening socket bound to a unix:/tcp: address. */
class Listener
{
  public:
    Listener() = default;
    ~Listener() { close(); }

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /**
     * Bind and listen on the address. Returns false and fills
     * *error on failure (including a live daemon already bound to a
     * Unix path); a stale Unix socket file is unlinked first.
     */
    bool open(const std::string &address, std::string *error);

    /**
     * Accept one connection (blocking). An invalid Socket means the
     * listener was closed or accept failed.
     */
    Socket accept();

    /** Close the socket and unlink a bound Unix path. */
    void close();

    bool listening() const { return socket_.valid(); }
    int fd() const { return socket_.fd(); }

    /**
     * The bound address in connectTo syntax: unix:PATH, or
     * tcp:HOST:PORT with the port actually bound (so "tcp:host:0"
     * reports the port the kernel picked).
     */
    const std::string &address() const { return address_; }

    /**
     * The TCP port actually bound (useful with "tcp:host:0");
     * 0 for Unix listeners.
     */
    int port() const { return port_; }

  private:
    Socket socket_;
    std::string address_;
    /** The bound Unix socket path (empty for TCP). */
    std::string unixPath_;
    int port_ = 0;
};

/**
 * Connect to a unix:/tcp: address. Returns an invalid Socket and
 * fills *error on failure.
 */
Socket connectTo(const std::string &address, std::string *error);

/**
 * The longest line a LineChannel reads, terminator excluded. The
 * largest line the repo writes, a point record of a copies = 64
 * workload with its 1920-phase schedule, is about 0.25 MiB.
 */
constexpr size_t kMaxLineBytes = size_t{16} << 20;

/**
 * Buffered newline-delimited text over a socket: the framing of the
 * daemon protocol (one JSON value per line).
 */
class LineChannel
{
  public:
    explicit LineChannel(Socket socket) : socket_(std::move(socket))
    {}

    /**
     * Read one line into *line (terminator stripped). False on EOF
     * or error; a final unterminated fragment at EOF is delivered as
     * a line first. When the socket carries a read timeout (see
     * Socket::setReadTimeout) and it expires mid-line, readLine
     * returns false with timedOut() set and the partial line stays
     * buffered - a timeout is a stalled peer, not end of stream.
     * More than kMaxLineBytes without a newline fails with tooLong()
     * set and discards what was buffered.
     */
    bool readLine(std::string *line);

    /** Write line plus the terminating newline. */
    bool writeLine(const std::string &line);

    /** True when the last readLine failure was a read timeout. */
    bool timedOut() const { return timedOut_; }

    /** True when the last readLine failure was an over-long line. */
    bool tooLong() const { return tooLong_; }

    Socket &socket() { return socket_; }
    bool valid() const { return socket_.valid(); }

  private:
    Socket socket_;
    std::string buffer_;
    /** Start of the unconsumed bytes in buffer_. */
    size_t start_ = 0;
    /** buffer_ up to here is known to hold no newline after start_. */
    size_t scanned_ = 0;
    bool timedOut_ = false;
    bool tooLong_ = false;
};

} // namespace net
} // namespace hilp

#endif // HILP_SUPPORT_NET_HH
