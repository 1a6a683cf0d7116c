/**
 * @file
 * hilpd: the HILP evaluation daemon.
 *
 * Serves eval/sweep/stats/shutdown requests over a Unix or TCP
 * stream socket (NDJSON, see protocol.hh) against one long-lived
 * EvalService, so repeated sweeps share its bounded solve memo -
 * results and warm-start schedules - across client processes:
 *
 *   hilpd --listen=unix:/tmp/hilpd.sock
 *   hilpd --listen=tcp:127.0.0.1:7351 --memo-bytes=512M
 *
 * The same binary doubles as a minimal control client:
 *
 *   hilpd --connect=unix:/tmp/hilpd.sock stats
 *   hilpd --connect=unix:/tmp/hilpd.sock shutdown
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "client.hh"
#include "daemon.hh"
#include "eval_service.hh"
#include "telemetry_http.hh"
#include "support/logging.hh"
#include "support/net.hh"
#include "support/str.hh"
#include "support/trace.hh"
#include "support/version.hh"

namespace {

using namespace hilp;

service::Daemon *gDaemon = nullptr;

// Flag ranges; a value outside them, or no number at all, gets the
// usage rather than a daemon that rejects every request.
constexpr int kMaxQueueDepth = 1 << 16;
constexpr int kMaxExecutors = 256;
constexpr double kMaxSeconds = 1e6;

void
onSignal(int)
{
    // stop() only flips an atomic and shutdown(2)s the listener:
    // async-signal-safe, and it unblocks the accept loop so the
    // daemon exits cleanly (unlinking its unix socket on the way).
    if (gDaemon)
        gDaemon->stop();
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --listen=ADDR [--memo-bytes=N] "
                 "[--queue-depth=1..%d]\n"
                 "          [--executors=1..%d] [--metrics-addr=ADDR] "
                 "[--slo-ms=N]\n"
                 "          [--slow-dump-dir=PATH] "
                 "[--read-timeout=S]\n"
                 "       %s --connect=ADDR stats|shutdown\n"
                 "       %s --version\n"
                 "ADDR is unix:/path or tcp:host:port. --memo-bytes "
                 "caps the solve memo\n"
                 "(K/M/G suffixes; default 256M, 0 = unbounded).\n"
                 "--metrics-addr serves GET /metrics (Prometheus "
                 "text), /metrics.json,\n"
                 "and /healthz over HTTP/1.0. --slo-ms marks slower "
                 "requests in the\n"
                 "flight recorder and dumps their span trees into "
                 "--slow-dump-dir.\n"
                 "--read-timeout drops a peer that sends no complete "
                 "request line\n"
                 "within S seconds (default 300; 0 waits forever).\n",
                 argv0, kMaxQueueDepth, kMaxExecutors, argv0, argv0);
    return 2;
}

int
runClient(const std::string &address, const std::string &command)
{
    service::ServiceClient client;
    std::string error;
    if (!client.connect(address, &error)) {
        std::fprintf(stderr, "hilpd: connect %s: %s\n",
                     address.c_str(), error.c_str());
        return 1;
    }
    if (command == "stats") {
        Json stats;
        if (!client.stats(&stats, &error)) {
            std::fprintf(stderr, "hilpd: stats: %s\n", error.c_str());
            return 1;
        }
        std::printf("%s\n", stats.dump(2).c_str());
        return 0;
    }
    if (command == "shutdown") {
        if (!client.requestShutdown(&error)) {
            std::fprintf(stderr, "hilpd: shutdown: %s\n",
                         error.c_str());
            return 1;
        }
        return 0;
    }
    std::fprintf(stderr, "hilpd: unknown command \"%s\"\n",
                 command.c_str());
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string listen, connect, command, metricsAddr;
    service::ServiceOptions options;
    service::DaemonOptions daemonOptions;
    // The binary default; the library default (DaemonOptions) stays
    // 0 so embedded daemons keep the historical wait-forever reads.
    daemonOptions.readTimeoutS = 300.0;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            size_t len = std::strlen(flag);
            if (arg.compare(0, len, flag) == 0 && arg[len] == '=')
                return arg.c_str() + len + 1;
            return nullptr;
        };
        if (arg == "--version") {
            std::printf("%s\n", versionString().c_str());
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (const char *v = value("--listen")) {
            listen = v;
        } else if (const char *v = value("--connect")) {
            connect = v;
        } else if (const char *v = value("--memo-bytes")) {
            if (!parseBytes(v, &options.memoMaxBytes))
                return usage(argv[0]);
        } else if (const char *v = value("--queue-depth")) {
            int64_t depth = 0;
            if (!parseInt(v, 1, kMaxQueueDepth, &depth))
                return usage(argv[0]);
            options.maxQueueDepth = static_cast<size_t>(depth);
        } else if (const char *v = value("--executors")) {
            int64_t executors = 0;
            if (!parseInt(v, 1, kMaxExecutors, &executors))
                return usage(argv[0]);
            options.executors = static_cast<int>(executors);
        } else if (const char *v = value("--metrics-addr")) {
            metricsAddr = v;
        } else if (const char *v = value("--slo-ms")) {
            if (!parseReal(v, 0.0, kMaxSeconds * 1e3,
                           &daemonOptions.sloMs))
                return usage(argv[0]);
        } else if (const char *v = value("--slow-dump-dir")) {
            daemonOptions.dumpDir = v;
        } else if (const char *v = value("--read-timeout")) {
            if (!parseReal(v, 0.0, kMaxSeconds,
                           &daemonOptions.readTimeoutS))
                return usage(argv[0]);
        } else if (!arg.empty() && arg[0] != '-') {
            command = arg;
        } else {
            return usage(argv[0]);
        }
    }

    if (!connect.empty())
        return runClient(connect, command.empty() ? "stats"
                                                  : command);
    if (listen.empty())
        return usage(argv[0]);

    net::Listener listener;
    std::string error;
    if (!listener.open(listen, &error)) {
        std::fprintf(stderr, "hilpd: listen %s: %s\n", listen.c_str(),
                     error.c_str());
        return 1;
    }

    // The flight recorder is always on, and its slow-request capture
    // needs span data: daemon mode records into the tracer's ring
    // buffers unconditionally. The ring keeps the footprint fixed
    // (old events are overwritten, never accumulated), and the
    // solver_micro telemetry gate holds the recording overhead
    // under its budget.
    trace::setRingBuffered(true);
    trace::setEnabled(true);
    trace::setThreadName("hilpd-main");

    service::EvalService evalService(options);
    service::Daemon daemon(evalService, daemonOptions);

    service::TelemetryServer telemetry;
    if (!metricsAddr.empty()) {
        if (!telemetry.start(
                metricsAddr,
                [&evalService] { return evalService.healthJson(); },
                &error)) {
            std::fprintf(stderr, "hilpd: metrics %s: %s\n",
                         metricsAddr.c_str(), error.c_str());
            return 1;
        }
        inform("hilpd: telemetry on %s (GET /metrics, "
               "/metrics.json, /healthz)",
               metricsAddr.c_str());
    }

    gDaemon = &daemon;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    inform("hilpd %s listening on %s (memo cap %zu MiB, queue depth "
           "%zu)",
           buildGitDescribe(), listen.c_str(),
           options.memoMaxBytes >> 20, options.maxQueueDepth);
    daemon.run(listener);
    evalService.drain();
    telemetry.stop();
    inform("hilpd: exiting");
    gDaemon = nullptr;
    return 0;
}
