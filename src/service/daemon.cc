#include "daemon.hh"

#include <sys/socket.h>

#include <chrono>
#include <fstream>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "dse/checkpoint.hh"
#include "dse/distribute.hh"
#include "protocol.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/str.hh"
#include "support/trace.hh"

namespace hilp {
namespace service {

namespace {

/**
 * Serialized line writer shared by a request's streaming callbacks:
 * sweep workers complete points concurrently, and each record must
 * land as one whole line. A failed write (peer hung up mid-stream)
 * latches: the sweep keeps running - its results still warm the
 * service caches - but no further writes are attempted.
 */
class LineWriter
{
  public:
    explicit LineWriter(net::LineChannel &channel)
        : channel_(channel) {}

    bool
    write(const std::string &line)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (failed_)
            return false;
        if (!channel_.writeLine(line)) {
            failed_ = true;
            return false;
        }
        return true;
    }

    bool failed() const { return failed_; }

  private:
    net::LineChannel &channel_;
    std::mutex mutex_;
    bool failed_ = false;
};

int64_t
elapsedUs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - since)
        .count();
}

} // anonymous namespace

bool
Daemon::serveConnection(net::Socket socket)
{
    if (options_.readTimeoutS > 0.0)
        socket.setReadTimeout(options_.readTimeoutS);
    net::LineChannel channel(std::move(socket));
    std::string line;
    for (;;) {
        if (!channel.readLine(&line)) {
            if (channel.timedOut()) {
                // A stalled or idle peer must not pin this handler
                // thread forever; drop it. (The peer may reconnect.)
                metrics::counter("hilpd.peers.timed_out").add(1);
                warn("hilpd: dropping peer: no complete request "
                     "line within %gs",
                     options_.readTimeoutS);
            } else if (channel.tooLong()) {
                metrics::counter("hilpd.peers.rejected").add(1);
                warn("hilpd: dropping peer: request line over %zu "
                     "bytes",
                     net::kMaxLineBytes);
            }
            break;
        }
        if (line.empty())
            continue;

        protocol::Request request;
        std::string error;
        if (!protocol::parseRequest(line, &request, &error)) {
            channel.writeLine(protocol::encodeDone(false, error));
            continue; // Malformed input; the connection stays usable.
        }

        if (stop_.load() && request.op != protocol::Op::Stats) {
            channel.writeLine(protocol::encodeDone(
                false, "daemon is shutting down"));
            continue;
        }

        switch (request.op) {
          case protocol::Op::Stats:
            channel.writeLine(
                protocol::encodeStats(service_.statsJson()));
            channel.writeLine(protocol::encodeDone(true, ""));
            continue;
          case protocol::Op::Shutdown:
            inform("hilpd: shutdown requested");
            stop();
            channel.writeLine(protocol::encodeDone(true, ""));
            return true;
          case protocol::Op::Lease:
          case protocol::Op::Submit:
          case protocol::Op::Heartbeat:
          case protocol::Op::Drain:
            handleCoordinatorOp(request, channel);
            continue;
          case protocol::Op::Eval:
          case protocol::Op::Sweep:
            break;
        }

        // Admission: every eval/sweep request gets a trace context
        // here, before any work happens. The id rides the handler's
        // spans, the job queue into the sweep workers, each streamed
        // point, the done line, and the flight-recorder entry.
        uint64_t traceId = trace::newTraceId();
        auto admitted = std::chrono::steady_clock::now();
        trace::ContextScope requestScope(traceId);
        trace::Span requestSpan(request.op == protocol::Op::Eval
                                    ? "hilpd.request.eval"
                                    : "hilpd.request.sweep");

        RequestSummary summary;
        summary.traceId = traceId;
        summary.op =
            request.op == protocol::Op::Eval ? "eval" : "sweep";
        summary.configs = request.configNames.size();
        if (!request.configNames.empty())
            summary.detail = request.configNames.front();

        SweepRequest sweep;
        if (!protocol::toSweepRequest(request, &sweep, &error)) {
            summary.error = error;
            summary.totalUs = elapsedUs(admitted);
            service_.flightRecorder().record(summary);
            channel.writeLine(
                protocol::encodeDone(false, error, 0, traceId));
            continue;
        }

        // The actual evaluation runs on the service's executor crew
        // behind admission control; this handler thread only streams
        // results and waits. A rejected request costs the client one
        // round trip and an explanation, never an unbounded queue.
        LineWriter writer(channel);
        sweep.traceId = traceId;
        dse::ModelKind kind = request.kind;
        std::atomic<size_t> streamed{0};
        std::atomic<int64_t> serializeUs{0};
        sweep.onPoint = [&](const dse::DsePoint &point,
                            const Schedule *schedule) {
            auto start = std::chrono::steady_clock::now();
            Json record = dse::pointRecordJson(
                dse::checkpointKey(point.fingerprint,
                                   point.config.name(), kind),
                kind, point, schedule);
            record.set("type", Json::string("point"));
            writer.write(record.dump());
            streamed.fetch_add(1, std::memory_order_relaxed);
            serializeUs.fetch_add(elapsedUs(start),
                                  std::memory_order_relaxed);
        };

        std::promise<void> finished;
        std::future<void> done = finished.get_future();
        std::string failure;
        int64_t queueWaitUs = 0;
        int64_t solveUs = 0;
        Admission admission = service_.submit(
            [&] {
                // Executor thread: re-establish the request's trace
                // context (thread-local state does not follow the
                // job across the queue).
                trace::ContextScope jobScope(traceId);
                trace::Span solveSpan("hilpd.solve");
                auto start = std::chrono::steady_clock::now();
                queueWaitUs = std::chrono::duration_cast<
                                  std::chrono::microseconds>(
                                  start - admitted)
                                  .count();
                // The promise must be fulfilled on every path or the
                // handler thread below waits forever.
                try {
                    service_.sweep(sweep);
                } catch (const std::exception &e) {
                    failure = format("sweep failed: %s", e.what());
                } catch (...) {
                    failure = "sweep failed: unknown exception";
                }
                solveUs = elapsedUs(start);
                finished.set_value();
            },
            request.priority);
        if (!admission.accepted) {
            summary.error =
                format("rejected: %s", admission.reason.c_str());
            summary.totalUs = elapsedUs(admitted);
            service_.flightRecorder().record(summary);
            metrics::counter("hilpd.requests.rejected").add(1);
            channel.writeLine(protocol::encodeDone(
                false, summary.error, 0, traceId));
            continue;
        }
        done.wait();
        bool ok = failure.empty() && !writer.failed();
        finishRequest(summary, ok,
                      !failure.empty()
                          ? failure
                          : (writer.failed() ? "client write failed"
                                             : ""),
                      streamed.load(), queueWaitUs, solveUs,
                      serializeUs.load(), elapsedUs(admitted));
        channel.writeLine(protocol::encodeDone(
            ok, summary.error, streamed.load(), traceId));
    }
    return false;
}

/**
 * Serve one distributed-sweep op against the registered coordinator.
 * The registration mutex is held for the whole op, so the host can
 * never destroy a coordinator under a handler mid-call - and
 * conversely registration changes wait out in-flight ops.
 */
void
Daemon::handleCoordinatorOp(const protocol::Request &request,
                            net::LineChannel &channel)
{
    std::lock_guard<std::mutex> lock(coordMutex_);
    switch (request.op) {
      case protocol::Op::Lease: {
        if (!coordinator_) {
            // No sweep right now: retired means the whole run is
            // over (exit); otherwise the host is between sweeps.
            channel.writeLine(coordRetired_
                                  ? protocol::encodeLeaseComplete()
                                  : protocol::encodeLeaseWait());
            channel.writeLine(protocol::encodeDone(true, ""));
            return;
        }
        dse::LeaseGrant grant;
        if (coordinator_->lease(request.worker, &grant) ==
            dse::LeaseOutcome::Granted) {
            channel.writeLine(protocol::encodeLeaseGrant(
                grant.leaseId, grant.unit, grant.expiresS,
                grant.configNames, coordParams_));
        } else {
            channel.writeLine(protocol::encodeLeaseWait());
        }
        channel.writeLine(protocol::encodeDone(true, ""));
        return;
      }
      case protocol::Op::Submit: {
        if (!coordinator_) {
            // A zombie worker streaming results after its sweep
            // ended: nothing to merge into.
            channel.writeLine(protocol::encodeAck(false, 0, 0));
            channel.writeLine(protocol::encodeDone(
                false, "no active coordinator"));
            return;
        }
        size_t accepted = 0;
        size_t duplicates = 0;
        size_t rejected = 0;
        std::string error;
        for (const Json &record : request.records) {
            bool duplicate = false;
            std::string record_error;
            if (!coordinator_->submitRecord(
                    request.worker, request.leaseId, record.dump(),
                    &record_error, &duplicate)) {
                ++rejected;
                if (error.empty())
                    error = record_error;
            } else if (duplicate) {
                ++duplicates;
            } else {
                ++accepted;
            }
        }
        if (request.complete)
            coordinator_->completeLease(request.worker,
                                        request.leaseId);
        channel.writeLine(
            protocol::encodeAck(rejected == 0, accepted, duplicates));
        channel.writeLine(protocol::encodeDone(rejected == 0, error));
        return;
      }
      case protocol::Op::Heartbeat: {
        const bool alive = coordinator_ &&
            coordinator_->heartbeat(request.worker, request.leaseId);
        channel.writeLine(protocol::encodeAck(alive, 0, 0));
        channel.writeLine(protocol::encodeDone(true, ""));
        return;
      }
      case protocol::Op::Drain: {
        Json json = Json::object();
        if (coordinator_) {
            dse::CoordinatorProgress progress =
                coordinator_->progress();
            json.set("units",
                     Json::number(
                         static_cast<int64_t>(progress.units)));
            json.set("units_done",
                     Json::number(
                         static_cast<int64_t>(progress.unitsDone)));
            json.set("leases_active",
                     Json::number(static_cast<int64_t>(
                         progress.leasesActive)));
            json.set("points_merged",
                     Json::number(static_cast<int64_t>(
                         progress.pointsMerged)));
            json.set("duplicates",
                     Json::number(
                         static_cast<int64_t>(progress.duplicates)));
            json.set("reissued",
                     Json::number(
                         static_cast<int64_t>(progress.reissued)));
            json.set("finished", Json::boolean(progress.finished));
        }
        json.set("retired", Json::boolean(coordRetired_));
        channel.writeLine(protocol::encodeProgress(std::move(json)));
        channel.writeLine(protocol::encodeDone(true, ""));
        return;
      }
      default:
        return;
    }
}

void
Daemon::setCoordinator(dse::Coordinator *coordinator, Json params)
{
    std::lock_guard<std::mutex> lock(coordMutex_);
    coordinator_ = coordinator;
    coordParams_ = std::move(params);
    coordRetired_ = false;
}

void
Daemon::clearCoordinator()
{
    std::lock_guard<std::mutex> lock(coordMutex_);
    coordinator_ = nullptr;
}

void
Daemon::retireCoordinator()
{
    std::lock_guard<std::mutex> lock(coordMutex_);
    coordinator_ = nullptr;
    coordRetired_ = true;
}

/**
 * Request epilogue: publish the per-request latency breakdown to the
 * metrics registry, remember the request in the flight recorder, and
 * - when the request blew the SLO while tracing was recording - dump
 * its span tree as a request-id-stamped Chrome trace plus one
 * structured log line.
 */
void
Daemon::finishRequest(RequestSummary &summary, bool ok,
                      const std::string &error, size_t points,
                      int64_t queue_wait_us, int64_t solve_us,
                      int64_t serialize_us, int64_t total_us)
{
    summary.ok = ok;
    summary.error = error;
    summary.points = points;
    summary.queueWaitUs = queue_wait_us;
    summary.solveUs = solve_us;
    summary.serializeUs = serialize_us;
    summary.totalUs = total_us;
    summary.slow = options_.sloMs > 0.0 &&
        static_cast<double>(total_us) > options_.sloMs * 1000.0;

    metrics::counter("hilpd.requests").add(1);
    if (!ok)
        metrics::counter("hilpd.requests.failed").add(1);
    if (summary.slow)
        metrics::counter("hilpd.requests.slow").add(1);
    metrics::histogram("hilpd.request.queue_wait_us")
        .record(queue_wait_us);
    metrics::histogram("hilpd.request.solve_us").record(solve_us);
    metrics::histogram("hilpd.request.serialize_us")
        .record(serialize_us);
    metrics::histogram("hilpd.request.total_us").record(total_us);

    service_.flightRecorder().record(summary);

    if (!summary.slow || !trace::enabled())
        return;
    std::string path = format("%s/hilpd_slow_req%llu.trace.json",
                              options_.dumpDir.c_str(),
                              static_cast<unsigned long long>(
                                  summary.traceId));
    Json tree = trace::toJsonForContext(summary.traceId);
    std::ofstream file(path);
    if (file) {
        file << tree.dump() << "\n";
        file.close();
    }
    Json line = summary.toJson();
    line.set("event", Json::string("slow_request"));
    line.set("slo_ms", Json::number(options_.sloMs));
    line.set("trace_dump", Json::string(file ? path : ""));
    warn("hilpd: %s", line.dump().c_str());
}

void
Daemon::run(net::Listener &listener)
{
    listenerFd_.store(listener.fd());
    std::vector<std::thread> handlers;
    while (!stop_.load()) {
        net::Socket connection = listener.accept();
        if (!connection.valid()) {
            if (stop_.load())
                break;
            continue; // Transient accept failure (e.g. EINTR).
        }
        handlers.emplace_back(
            [this, socket = std::move(connection)]() mutable {
                serveConnection(std::move(socket));
            });
    }
    listenerFd_.store(-1);
    listener.close();
    for (std::thread &handler : handlers)
        handler.join();
}

void
Daemon::stop()
{
    stop_.store(true);
    int fd = listenerFd_.load();
    if (fd >= 0) {
        // Unblock the accept loop. shutdown() (not close) so the fd
        // stays valid for the Listener's own close/unlink.
        ::shutdown(fd, SHUT_RDWR);
    }
}

} // namespace service
} // namespace hilp
