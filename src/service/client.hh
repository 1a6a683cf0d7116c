/**
 * @file
 * The hilpd client: a thin synchronous wrapper over the NDJSON
 * protocol for bench binaries and scripts. A connected client routes
 * the same requests exploreSpace answers in-process to a daemon,
 * streaming per-point results back in completion order and matching
 * them to the caller's configuration list by label.
 */

#ifndef HILP_SERVICE_CLIENT_HH
#define HILP_SERVICE_CLIENT_HH

#include <functional>
#include <string>
#include <vector>

#include "protocol.hh"
#include "support/net.hh"

namespace hilp {
namespace service {

class ServiceClient
{
  public:
    /** Receives each non-done reply line, raw and parsed. */
    using ReplyHandler =
        std::function<void(const std::string &line, const Json &reply)>;

    ServiceClient() = default;

    /** Connect to a daemon (address syntax: see support/net.hh). */
    bool connect(const std::string &address, std::string *error);

    bool connected() const { return channel_.valid(); }

    /**
     * One protocol exchange, the only place replies are read: write
     * the request line, then read reply lines until the done line,
     * handing every other line to `on_reply` (nullable; callers skip
     * reply types they do not know). Records the done line's trace
     * id and returns its verdict: false with *error set when the
     * done line reports a failure. A write failure, an unparsable
     * reply or a connection closed before the done line also fail,
     * and disconnect the client, since the reply stream can no
     * longer be trusted.
     */
    bool exchange(const protocol::Request &request,
                  const ReplyHandler &on_reply, std::string *error);

    /**
     * Run a sweep (or single eval) remotely. The request's
     * configNames are filled from `configs`; the returned points are
     * in `configs` order with their structural fields (config, area,
     * mix) restored locally from the matching configuration.
     * `on_record` (nullable) sees each raw streamed record line -
     * appending them to a file yields a valid --resume checkpoint.
     * Returns false and fills *error on transport errors, a rejected
     * request, a failed sweep, or a malformed point record.
     */
    bool sweep(const protocol::Request &request,
               const std::vector<arch::SocConfig> &configs,
               std::vector<dse::DsePoint> *points, std::string *error,
               const std::function<void(const std::string &)>
                   &on_record = nullptr);

    /**
     * Fetch the daemon's stats snapshot (memo, queue, latency
     * histogram percentiles, flight-recorder occupancy).
     */
    bool stats(Json *out, std::string *error);

    /** Ask the daemon to shut down (acknowledged before it exits). */
    bool requestShutdown(std::string *error);

    /**
     * The daemon-assigned request/trace id from the last exchange's
     * done line (0 before any exchange, for requests without one,
     * or against an older daemon). Log it next to sweep artifacts:
     * it names the request in the daemon's spans, flight recorder,
     * and slow-request dumps.
     */
    uint64_t lastTraceId() const { return lastTraceId_; }

  private:
    net::LineChannel channel_{net::Socket()};
    uint64_t lastTraceId_ = 0;
};

} // namespace service
} // namespace hilp

#endif // HILP_SERVICE_CLIENT_HH
