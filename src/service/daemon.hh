/**
 * @file
 * hilpd's connection handling: the daemon loop that accepts stream
 * connections and speaks the NDJSON protocol (protocol.hh) against a
 * shared EvalService.
 *
 * Every connection gets its own handler thread; eval and sweep
 * requests go through the service's admission-controlled job queue
 * (so a flooded daemon rejects with a reason instead of queueing
 * unboundedly), while stats and shutdown are answered inline. The
 * per-connection handler is exposed directly (serveConnection) so
 * tests can drive the full protocol over a socketpair without
 * binding anything.
 */

#ifndef HILP_SERVICE_DAEMON_HH
#define HILP_SERVICE_DAEMON_HH

#include <atomic>
#include <mutex>

#include "eval_service.hh"
#include "support/json.hh"
#include "support/net.hh"

namespace hilp {
namespace dse {
class Coordinator;
} // namespace dse

namespace service {

namespace protocol {
struct Request;
} // namespace protocol

/** Telemetry knobs for the daemon's request handling. */
struct DaemonOptions
{
    /**
     * Slow-request SLO in milliseconds; a request whose total
     * (admission to done) exceeds it is marked slow in the flight
     * recorder and, when tracing is recording, gets its span tree
     * dumped as a Chrome-trace file. 0 disables the capture.
     */
    double sloMs = 0.0;
    /** Directory the slow-request trace dumps land in. */
    std::string dumpDir = ".";
    /**
     * Per-connection read timeout in seconds; a peer that fails to
     * deliver a complete request line within the window is dropped
     * (counted as hilpd.peers.timed_out) instead of pinning its
     * handler thread forever. 0 waits forever (library default; the
     * hilpd binary defaults to 300s).
     */
    double readTimeoutS = 0.0;
};

class Daemon
{
  public:
    explicit Daemon(EvalService &service,
                    const DaemonOptions &options = {})
        : service_(service), options_(options)
    {}

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Serve one established connection until the peer disconnects or
     * sends a shutdown request. A peer that stalls past the read
     * timeout or sends a line over net::kMaxLineBytes is dropped
     * (hilpd.peers.timed_out, hilpd.peers.rejected). Returns true
     * when the connection requested daemon shutdown (the stop flag
     * is then already set). Thread-safe: the daemon runs one handler
     * per connection.
     */
    bool serveConnection(net::Socket socket);

    /**
     * Accept-and-serve loop: one handler thread per connection,
     * until stop() is called or a connection requests shutdown. The
     * listener is closed (and its unix socket path unlinked) before
     * returning; in-flight requests finish first.
     */
    void run(net::Listener &listener);

    /**
     * Request the accept loop to exit. Callable from any thread and
     * from signal handlers' deferred context (it only flips an atomic
     * and shuts down the listening socket).
     */
    void stop();

    bool stopping() const { return stop_.load(); }

    // Distributed-sweep hosting (see dse/distribute.hh). The daemon
    // does not own the coordinator; the host registers one per sweep
    // and the lease/submit/heartbeat/drain ops are served against it.
    // Registration changes block until no coordinator op is in
    // flight, so the host may destroy a coordinator as soon as the
    // clearing call returns.

    /**
     * Serve lease/submit/heartbeat/drain against this coordinator;
     * params is the shared sweep body each lease grant embeds (see
     * protocol::sweepParamsJson).
     */
    void setCoordinator(dse::Coordinator *coordinator, Json params);

    /**
     * Unregister the coordinator; workers asking for work are told
     * to wait (the host is between sweeps).
     */
    void clearCoordinator();

    /**
     * Unregister permanently: workers asking for work are told the
     * run is complete and exit.
     */
    void retireCoordinator();

  private:
    void finishRequest(RequestSummary &summary, bool ok,
                       const std::string &error, size_t points,
                       int64_t queue_wait_us, int64_t solve_us,
                       int64_t serialize_us, int64_t total_us);
    void handleCoordinatorOp(const protocol::Request &request,
                             net::LineChannel &channel);

    EvalService &service_;
    const DaemonOptions options_;
    std::atomic<bool> stop_{false};
    std::atomic<int> listenerFd_{-1};

    /** Held across every coordinator op; see setCoordinator. */
    std::mutex coordMutex_;
    dse::Coordinator *coordinator_ = nullptr;
    Json coordParams_;
    bool coordRetired_ = false;
};

} // namespace service
} // namespace hilp

#endif // HILP_SERVICE_DAEMON_HH
