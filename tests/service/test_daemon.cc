/**
 * @file
 * Integration tests for the hilpd connection handler, driven over a
 * socketpair: the full NDJSON protocol without binding any address.
 * Covers the malformed-request path (the connection must survive),
 * admission-control rejection, point streaming in the checkpoint
 * record format, stats, and shutdown - including the rule that a
 * stopping daemon still answers stats but refuses new work.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "dse/checkpoint.hh"
#include "hilp/options.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/protocol.hh"
#include "support/json.hh"
#include "support/metrics.hh"
#include "support/str.hh"
#include "support/trace.hh"

namespace hilp {
namespace service {
namespace {

/**
 * One in-memory daemon connection: serveConnection runs on its own
 * thread against one end of a socketpair, the test speaks NDJSON on
 * the other.
 */
class DaemonHarness
{
  public:
    explicit DaemonHarness(const ServiceOptions &options = {},
                           const DaemonOptions &daemon_options = {})
        : service_(options), daemon_(service_, daemon_options)
    {
        int fds[2] = {-1, -1};
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        server_ = std::thread([this, fd = fds[0]] {
            shutdownRequested_ =
                daemon_.serveConnection(net::Socket(fd));
        });
        client_.reset(new net::LineChannel(net::Socket(fds[1])));
    }

    ~DaemonHarness()
    {
        hangUp();
        if (server_.joinable())
            server_.join();
    }

    net::LineChannel &client() { return *client_; }
    Daemon &daemon() { return daemon_; }
    EvalService &service() { return service_; }

    /** Close the client end (the daemon handler sees EOF). */
    void
    hangUp()
    {
        if (client_)
            client_->socket().close();
    }

    /** Join the handler and report whether it requested shutdown. */
    bool
    shutdownRequested()
    {
        if (server_.joinable())
            server_.join();
        return shutdownRequested_;
    }

    /** Read one line and parse it as JSON (fails the test if not). */
    Json
    readJson()
    {
        std::string line;
        EXPECT_TRUE(client_->readLine(&line));
        Json json;
        std::string error;
        EXPECT_TRUE(Json::parse(line, &json, &error))
            << error << ": " << line;
        lastLine_ = line;
        return json;
    }

    /** The raw text of the last readJson() line. */
    const std::string &lastLine() const { return lastLine_; }

  private:
    EvalService service_;
    Daemon daemon_;
    std::unique_ptr<net::LineChannel> client_;
    std::thread server_;
    bool shutdownRequested_ = false;
    std::string lastLine_;
};

std::string
typeOf(const Json &json)
{
    const Json *type = json.find("type");
    return type && type->isString() ? type->stringValue()
                                    : std::string();
}

protocol::Request
maEvalRequest(const std::string &label)
{
    protocol::Request request;
    request.op = protocol::Op::Eval;
    request.configNames = {label};
    request.kind = dse::ModelKind::MultiAmdahl;
    return request;
}

TEST(DaemonProtocol, MalformedRequestKeepsConnectionUsable)
{
    DaemonHarness harness;

    // Not JSON at all.
    ASSERT_TRUE(harness.client().writeLine("this is not json"));
    Json done = harness.readJson();
    EXPECT_EQ(typeOf(done), "done");
    EXPECT_FALSE(done.find("ok")->boolValue());
    EXPECT_FALSE(done.find("error")->stringValue().empty());

    // Valid JSON, unknown op.
    ASSERT_TRUE(harness.client().writeLine("{\"op\":\"frobnicate\"}"));
    done = harness.readJson();
    EXPECT_EQ(typeOf(done), "done");
    EXPECT_FALSE(done.find("ok")->boolValue());

    // Valid JSON, bad config label.
    protocol::Request bad = maEvalRequest("(cX,gY,dZ)");
    ASSERT_TRUE(harness.client().writeLine(
        protocol::encodeRequest(bad)));
    done = harness.readJson();
    EXPECT_EQ(typeOf(done), "done");
    EXPECT_FALSE(done.find("ok")->boolValue());

    // The connection survived all three: stats still round-trips.
    protocol::Request stats;
    stats.op = protocol::Op::Stats;
    ASSERT_TRUE(harness.client().writeLine(
        protocol::encodeRequest(stats)));
    Json reply = harness.readJson();
    EXPECT_EQ(typeOf(reply), "stats");
    ASSERT_NE(reply.find("stats"), nullptr);
    EXPECT_NE(reply.find("stats")->find("memo"), nullptr);
    done = harness.readJson();
    EXPECT_EQ(typeOf(done), "done");
    EXPECT_TRUE(done.find("ok")->boolValue());

    harness.hangUp();
    EXPECT_FALSE(harness.shutdownRequested());
}

TEST(DaemonProtocol, EvalStreamsCheckpointCompatiblePoint)
{
    DaemonHarness harness;

    ASSERT_TRUE(harness.client().writeLine(
        protocol::encodeRequest(maEvalRequest("(c2,g4,d0^0)"))));

    Json point_line = harness.readJson();
    ASSERT_EQ(typeOf(point_line), "point") << harness.lastLine();
    // The streamed line is a valid --resume checkpoint record.
    uint64_t key = 0;
    dse::DsePoint point;
    bool has_schedule = false;
    ASSERT_TRUE(dse::parsePointRecord(harness.lastLine(), &key,
                                      &point, nullptr,
                                      &has_schedule));
    EXPECT_TRUE(point.ok);
    EXPECT_GT(point.makespanS, 0.0);

    Json done = harness.readJson();
    EXPECT_EQ(typeOf(done), "done");
    EXPECT_TRUE(done.find("ok")->boolValue())
        << done.find("error")->stringValue();
    EXPECT_EQ(done.find("points")->intValue(), 1);
}

TEST(DaemonProtocol, QueueFullRejectsWithReason)
{
    ServiceOptions options;
    options.maxQueueDepth = 0; // Admission control rejects everything.
    DaemonHarness harness(options);

    ASSERT_TRUE(harness.client().writeLine(
        protocol::encodeRequest(maEvalRequest("(c1,g0,d0^0)"))));
    Json done = harness.readJson();
    EXPECT_EQ(typeOf(done), "done");
    EXPECT_FALSE(done.find("ok")->boolValue());
    const std::string &error = done.find("error")->stringValue();
    EXPECT_NE(error.find("rejected"), std::string::npos) << error;
    EXPECT_NE(error.find("queue full"), std::string::npos) << error;

    // Rejection is per request, not per connection.
    protocol::Request stats;
    stats.op = protocol::Op::Stats;
    ASSERT_TRUE(harness.client().writeLine(
        protocol::encodeRequest(stats)));
    EXPECT_EQ(typeOf(harness.readJson()), "stats");
    EXPECT_TRUE(harness.readJson().find("ok")->boolValue());
}

TEST(DaemonProtocol, ShutdownRequestStopsDaemon)
{
    DaemonHarness harness;

    protocol::Request shutdown;
    shutdown.op = protocol::Op::Shutdown;
    ASSERT_TRUE(harness.client().writeLine(
        protocol::encodeRequest(shutdown)));
    Json done = harness.readJson();
    EXPECT_EQ(typeOf(done), "done");
    EXPECT_TRUE(done.find("ok")->boolValue());

    EXPECT_TRUE(harness.shutdownRequested());
    EXPECT_TRUE(harness.daemon().stopping());

    // The handler closed the connection after shutdown.
    std::string line;
    EXPECT_FALSE(harness.client().readLine(&line));
}

TEST(DaemonProtocol, StoppingDaemonRefusesWorkButAnswersStats)
{
    DaemonHarness harness;
    harness.daemon().stop();

    // New work is refused with a reason...
    ASSERT_TRUE(harness.client().writeLine(
        protocol::encodeRequest(maEvalRequest("(c1,g0,d0^0)"))));
    Json done = harness.readJson();
    EXPECT_EQ(typeOf(done), "done");
    EXPECT_FALSE(done.find("ok")->boolValue());
    EXPECT_NE(done.find("error")->stringValue().find("shutting down"),
              std::string::npos);

    // ...but observability survives the stop: stats still answers,
    // so an operator can inspect a draining daemon.
    protocol::Request stats;
    stats.op = protocol::Op::Stats;
    ASSERT_TRUE(harness.client().writeLine(
        protocol::encodeRequest(stats)));
    EXPECT_EQ(typeOf(harness.readJson()), "stats");
    EXPECT_TRUE(harness.readJson().find("ok")->boolValue());
}

TEST(DaemonProtocol, StalledPeerIsDroppedAndCounted)
{
    const int64_t timed_out_before =
        metrics::counter("hilpd.peers.timed_out").value();

    DaemonOptions daemon_options;
    daemon_options.readTimeoutS = 0.1;
    DaemonHarness harness({}, daemon_options);

    // Half a request line, then silence: the peer is stalled, not
    // gone, so only the read timeout can free the handler.
    ASSERT_TRUE(harness.client().socket().writeAll("{\"op\":", 6));
    std::string line;
    EXPECT_FALSE(harness.client().readLine(&line));
    EXPECT_FALSE(harness.shutdownRequested());
    EXPECT_EQ(metrics::counter("hilpd.peers.timed_out").value(),
              timed_out_before + 1);
}

TEST(DaemonProtocol, OverlongLineDropsPeerAndServingGoesOn)
{
    const int64_t rejected_before =
        metrics::counter("hilpd.peers.rejected").value();

    EvalService service;
    Daemon daemon(service);
    net::Listener listener;
    std::string error;
    ASSERT_TRUE(listener.open("tcp:127.0.0.1:0", &error)) << error;
    std::thread server([&daemon, &listener] { daemon.run(listener); });

    // One byte past the limit and no newline: the daemon must drop
    // the peer rather than keep buffering. (EXPECT, not ASSERT, from
    // here on: the server thread must be joined on every path.)
    net::LineChannel peer(net::connectTo(listener.address(), &error));
    EXPECT_TRUE(peer.valid()) << error;
    const std::string flood(net::kMaxLineBytes + 1, 'x');
    EXPECT_TRUE(peer.socket().writeAll(flood.data(), flood.size()));
    std::string line;
    EXPECT_FALSE(peer.readLine(&line));
    EXPECT_EQ(metrics::counter("hilpd.peers.rejected").value(),
              rejected_before + 1);

    // The daemon still serves a new connection.
    ServiceClient client;
    EXPECT_TRUE(client.connect(listener.address(), &error)) << error;
    Json stats;
    EXPECT_TRUE(client.stats(&stats, &error)) << error;
    EXPECT_TRUE(stats.isObject());
    EXPECT_TRUE(client.requestShutdown(&error)) << error;
    daemon.stop();
    server.join();
}

/** Lines of this process's memory map, one per mapping. */
size_t
mappingCount()
{
    std::ifstream maps("/proc/self/maps");
    EXPECT_TRUE(maps.is_open());
    size_t lines = 0;
    for (std::string line; std::getline(maps, line);)
        ++lines;
    return lines;
}

TEST(DaemonProtocol, FinishedConnectionHandlersAreReaped)
{
    // A handler thread that finished but was never joined keeps its
    // stack mapped, so a daemon that joined its handlers only on exit
    // would run out of mappings, and then of threads, after enough
    // connections. Sequential connections must leave the mapping
    // count where it was.
    EvalService service;
    Daemon daemon(service);
    net::Listener listener;
    std::string error;
    ASSERT_TRUE(listener.open("tcp:127.0.0.1:0", &error)) << error;
    std::thread server([&daemon, &listener] { daemon.run(listener); });

    // (EXPECT, not ASSERT: the server thread must be joined on every
    // path.)
    auto statsOverANewConnection = [&] {
        ServiceClient client;
        Json stats;
        EXPECT_TRUE(client.connect(listener.address(), &error)) << error;
        EXPECT_TRUE(client.stats(&stats, &error)) << error;
    };
    // The first connections map what later ones reuse (a thread stack
    // cache, malloc arenas).
    for (int i = 0; i < 10; ++i)
        statsOverANewConnection();
    const size_t before = mappingCount();
    for (int i = 0; i < 200; ++i)
        statsOverANewConnection();
    const size_t after = mappingCount();
    EXPECT_LT(after, before + 40) << before << " -> " << after;

    daemon.stop();
    server.join();
}

TEST(DaemonProtocol, TraceIdRidesPointsAndDoneLine)
{
    DaemonHarness harness;

    ASSERT_TRUE(harness.client().writeLine(
        protocol::encodeRequest(maEvalRequest("(c2,g4,d0^0)"))));

    Json point_line = harness.readJson();
    ASSERT_EQ(typeOf(point_line), "point") << harness.lastLine();
    const Json *point_id = point_line.find("trace_id");
    ASSERT_NE(point_id, nullptr);
    EXPECT_GT(point_id->intValue(), 0);
    // The id survives a checkpoint-record round trip too.
    uint64_t key = 0;
    dse::DsePoint point;
    bool has_schedule = false;
    ASSERT_TRUE(dse::parsePointRecord(harness.lastLine(), &key,
                                      &point, nullptr,
                                      &has_schedule));
    EXPECT_EQ(static_cast<int64_t>(point.traceId),
              point_id->intValue());

    Json done = harness.readJson();
    ASSERT_EQ(typeOf(done), "done");
    const Json *done_id = done.find("trace_id");
    ASSERT_NE(done_id, nullptr);
    // One request, one id: the streamed point and the done line name
    // the same request.
    EXPECT_EQ(done_id->intValue(), point_id->intValue());

    // A second request gets a fresh id.
    ASSERT_TRUE(harness.client().writeLine(
        protocol::encodeRequest(maEvalRequest("(c2,g4,d0^0)"))));
    EXPECT_EQ(typeOf(harness.readJson()), "point");
    Json done2 = harness.readJson();
    ASSERT_EQ(typeOf(done2), "done");
    EXPECT_NE(done2.find("trace_id")->intValue(),
              done_id->intValue());
}

TEST(DaemonProtocol, StatsCarriesLatencyAndFlightRecorder)
{
    DaemonHarness harness;

    // Serve one request so the latency histograms and the flight
    // recorder have something to report.
    ASSERT_TRUE(harness.client().writeLine(
        protocol::encodeRequest(maEvalRequest("(c2,g4,d0^0)"))));
    EXPECT_EQ(typeOf(harness.readJson()), "point");
    EXPECT_EQ(typeOf(harness.readJson()), "done");

    protocol::Request stats;
    stats.op = protocol::Op::Stats;
    ASSERT_TRUE(harness.client().writeLine(
        protocol::encodeRequest(stats)));
    Json reply = harness.readJson();
    ASSERT_EQ(typeOf(reply), "stats");
    const Json *payload = reply.find("stats");
    ASSERT_NE(payload, nullptr);

    const Json *latency = payload->find("latency");
    ASSERT_NE(latency, nullptr);
    const Json *total = latency->find("hilpd.request.total_us");
    ASSERT_NE(total, nullptr);
    EXPECT_GE(total->find("count")->intValue(), 1);
    ASSERT_NE(total->find("p50"), nullptr);
    ASSERT_NE(total->find("p95"), nullptr);
    ASSERT_NE(total->find("p99"), nullptr);
    EXPECT_LE(total->find("p50")->numberValue(),
              total->find("p99")->numberValue());

    const Json *recorder = payload->find("flight_recorder");
    ASSERT_NE(recorder, nullptr);
    EXPECT_GT(recorder->find("capacity")->intValue(), 0);
    EXPECT_GE(recorder->find("occupancy")->intValue(), 1);
    EXPECT_EQ(typeOf(harness.readJson()), "done");

    // The in-process view agrees with the wire view.
    EXPECT_GE(harness.service().flightRecorder().recorded(), 1);
}

TEST(DaemonProtocol, SlowRequestDumpsContextFilteredTrace)
{
    bool was_enabled = trace::enabled();
    bool was_ring = trace::ringBuffered();
    trace::clearAll();
    trace::setRingBuffered(true);
    trace::setEnabled(true);

    DaemonOptions daemon_options;
    daemon_options.sloMs = 0.001; // Everything is slow.
    daemon_options.dumpDir = ::testing::TempDir();
    {
        DaemonHarness harness({}, daemon_options);
        ASSERT_TRUE(harness.client().writeLine(
            protocol::encodeRequest(maEvalRequest("(c2,g4,d0^0)"))));
        EXPECT_EQ(typeOf(harness.readJson()), "point");
        Json done = harness.readJson();
        ASSERT_EQ(typeOf(done), "done");
        uint64_t trace_id = static_cast<uint64_t>(
            done.find("trace_id")->intValue());

        // The dump landed, request-id-stamped, and is a valid Chrome
        // trace containing the request's span.
        std::string path = format(
            "%s/hilpd_slow_req%llu.trace.json",
            daemon_options.dumpDir.c_str(),
            static_cast<unsigned long long>(trace_id));
        std::ifstream file(path);
        ASSERT_TRUE(file.good()) << path;
        std::ostringstream buffer;
        buffer << file.rdbuf();
        Json dump;
        std::string error;
        ASSERT_TRUE(Json::parse(buffer.str(), &dump, &error))
            << error;
        EXPECT_EQ(trace::validateChromeTrace(dump), "");
        EXPECT_NE(buffer.str().find("hilpd.request.eval"),
                  std::string::npos);
        // Flight recorder marked it slow.
        EXPECT_GE(harness.service().flightRecorder().slowCount(), 1);
        std::remove(path.c_str());
    }

    trace::setEnabled(was_enabled);
    trace::setRingBuffered(was_ring);
    trace::clearAll();
}

TEST(DaemonProtocol, RequestRoundTrip)
{
    // encodeRequest -> parseRequest is lossless for the fields that
    // travel; guards the client and daemon against drifting apart.
    protocol::Request request;
    request.op = protocol::Op::Sweep;
    request.configNames = {"(c2,g4,d0^0)", "(c4,g16,d2^16)"};
    request.variant = workload::Variant::Optimized;
    request.copies = 3;
    request.dsaAdvantage = 8.0;
    request.constraints.powerBudgetW = 50.0;
    request.kind = dse::ModelKind::Hilp;
    request.options.threads = 4;
    request.options.engine.solver.maxSeconds = 1.5;
    request.options.engine.pointTimeoutS = 9.0;
    request.priority = 2;

    protocol::Request decoded;
    std::string error;
    ASSERT_TRUE(protocol::parseRequest(
        protocol::encodeRequest(request), &decoded, &error)) << error;
    EXPECT_EQ(decoded.op, protocol::Op::Sweep);
    EXPECT_EQ(decoded.configNames, request.configNames);
    EXPECT_EQ(decoded.variant, workload::Variant::Optimized);
    EXPECT_EQ(decoded.copies, 3);
    EXPECT_DOUBLE_EQ(decoded.dsaAdvantage, 8.0);
    EXPECT_DOUBLE_EQ(decoded.constraints.powerBudgetW, 50.0);
    EXPECT_EQ(decoded.kind, dse::ModelKind::Hilp);
    EXPECT_EQ(decoded.options.threads, 4);
    EXPECT_DOUBLE_EQ(decoded.options.engine.solver.maxSeconds, 1.5);
    EXPECT_DOUBLE_EQ(decoded.options.engine.pointTimeoutS, 9.0);
    EXPECT_EQ(decoded.priority, 2);

    SweepRequest sweep;
    ASSERT_TRUE(protocol::toSweepRequest(decoded, &sweep, &error))
        << error;
    const std::vector<arch::SocConfig> &configs = sweep.configs;
    ASSERT_EQ(configs.size(), 2u);
    EXPECT_EQ(configs[0].cpuCores, 2);
    EXPECT_EQ(configs[0].gpuSms, 4);
    EXPECT_EQ(configs[1].cpuCores, 4);
    ASSERT_EQ(configs[1].dsas.size(), 2u);
    EXPECT_EQ(configs[1].dsas[0].pes, 16);
    EXPECT_DOUBLE_EQ(configs[1].dsaAdvantage, 8.0);
    EXPECT_EQ(sweep.workload.apps.size(),
              workload::makeWorkload(workload::Variant::Optimized, 3)
                  .apps.size());
    EXPECT_DOUBLE_EQ(sweep.constraints.powerBudgetW, 50.0);
    EXPECT_EQ(sweep.kind, dse::ModelKind::Hilp);
    EXPECT_EQ(sweep.options.threads, 4);
    EXPECT_DOUBLE_EQ(sweep.options.engine.pointTimeoutS, 9.0);
}

/**
 * Parse engine options whose solver block carries one raw field, as a
 * remote client would send it.
 */
bool
parseSolverField(const std::string &field, const std::string &value,
                 EngineOptions *options, std::string *error)
{
    Json json;
    std::string parse_error;
    EXPECT_TRUE(Json::parse("{\"solver\":{\"" + field + "\":" + value +
                                "}}",
                            &json, &parse_error))
        << parse_error;
    return parseEngineOptions(json, options, error);
}

/** Every case must be rejected with the range-check reason. */
void
expectSolverFieldRejected(const std::string &field,
                          const std::string &value)
{
    SCOPED_TRACE(field + "=" + value);
    EngineOptions options;
    std::string error;
    EXPECT_FALSE(parseSolverField(field, value, &options, &error));
    EXPECT_EQ(error, "solver options out of range: " + field);
}

TEST(DaemonProtocol, SolverThreadsAreRangeChecked)
{
    expectSolverFieldRejected("threads", "-1");
    expectSolverFieldRejected("threads", "100000");
    // 2^32 + 2 would narrow to an accepted 2 if checked after the
    // cast to int.
    expectSolverFieldRejected("threads", "4294967298");
    EngineOptions options;
    std::string error;
    ASSERT_TRUE(parseSolverField("threads", "0", &options, &error))
        << error;
    EXPECT_EQ(options.solver.threads, 0);
}

TEST(DaemonProtocol, GreedyRestartsAreRangeChecked)
{
    expectSolverFieldRejected("greedy_restarts", "-3");
    expectSolverFieldRejected("greedy_restarts", "1000000000");
    EngineOptions options;
    std::string error;
    ASSERT_TRUE(parseSolverField("greedy_restarts", "16", &options,
                                 &error)) << error;
    EXPECT_EQ(options.solver.greedyRestarts, 16);
}

TEST(DaemonProtocol, SweepThreadsAreRangeChecked)
{
    protocol::Request request = maEvalRequest("(c2,g4,d0^0)");
    for (int threads : {-1, 1 << 20}) {
        request.options.threads = threads;
        protocol::Request decoded;
        std::string error;
        EXPECT_FALSE(protocol::parseRequest(
            protocol::encodeRequest(request), &decoded, &error));
        EXPECT_EQ(error, "sweep options out of range: threads");
    }
}

/**
 * Parse an MA eval request whose wire line has `from` (e.g.
 * "\"copies\":1") replaced by `to`, as a remote client could send it.
 */
bool
parseEdited(const std::string &from, const std::string &to,
            protocol::Request *out, std::string *error)
{
    std::string line =
        protocol::encodeRequest(maEvalRequest("(c2,g4,d0^0)"));
    size_t at = line.find(from);
    EXPECT_NE(at, std::string::npos) << line;
    if (at != std::string::npos)
        line.replace(at, from.size(), to);
    return protocol::parseRequest(line, out, error);
}

TEST(DaemonProtocol, WorkloadCopiesAreRangeChecked)
{
    // 4294967297 and -4294967295 narrow to an accepted 1 if checked
    // after the cast to int; 100000000 has the daemon build that many
    // workload copies.
    for (const char *value : {"0", "-1", "65", "100000000",
                              "4294967297", "-4294967295", "1e30"}) {
        SCOPED_TRACE(value);
        protocol::Request decoded;
        std::string error;
        EXPECT_FALSE(parseEdited("\"copies\":1",
                                 std::string("\"copies\":") + value,
                                 &decoded, &error));
        EXPECT_EQ(error, "workload copies out of range [1, 64]");
    }
    for (int copies : {1, 64}) {
        protocol::Request decoded;
        std::string error;
        ASSERT_TRUE(parseEdited("\"copies\":1",
                                "\"copies\":" + std::to_string(copies),
                                &decoded, &error))
            << error;
        EXPECT_EQ(decoded.copies, copies);
    }
}

TEST(DaemonProtocol, SweepFieldsOfTheWrongKindAreRejected)
{
    // Each hand-parsed request field, present with the wrong JSON
    // kind, must fail the request with an error naming the field -
    // not fall back to its default or truncate. Before the kind
    // checks, "threads":2.5 ran 2 threads, "reuse":"false" kept
    // reuse on, and "power_budget_w":"50" ran at the default 600 W.
    struct Case
    {
        const char *from;
        const char *to;
        const char *error;
    };
    const std::string copies = "workload copies out of range [1, 64]";
    const std::string priority = "request priority out of int range";
    const Case cases[] = {
        {"\"threads\":0,", "\"threads\":2.5,",
         "sweep options out of range: threads"},
        {"\"threads\":0,", "\"threads\":\"2\",",
         "sweep options out of range: threads"},
        {"\"reuse\":true", "\"reuse\":0",
         "sweep options out of range: reuse"},
        {"\"reuse\":true", "\"reuse\":\"false\"",
         "sweep options out of range: reuse"},
        {"\"power_budget_w\":600", "\"power_budget_w\":\"50\"",
         "constraints out of range: power_budget_w"},
        {"\"memory\":{\"bandwidth_gbs\":800,\"pj_per_bit\":7}",
         "\"memory\":800", "constraints out of range: memory"},
        {"\"bandwidth_gbs\":800", "\"bandwidth_gbs\":\"800\"",
         "constraints out of range: memory.bandwidth_gbs"},
        {"\"pj_per_bit\":7", "\"pj_per_bit\":null",
         "constraints out of range: memory.pj_per_bit"},
        {"\"memory\":", "\"cache_levels\":[{\"name\":1}],\"memory\":",
         "constraints out of range: cache_levels.name"},
        {"\"memory\":",
         "\"cache_levels\":[{\"bandwidth_gbs\":\"9\"}],\"memory\":",
         "constraints out of range: cache_levels.bandwidth_gbs"},
        {"\"memory\":",
         "\"cache_levels\":[{\"traffic_amplification\":true}],"
         "\"memory\":",
         "constraints out of range: cache_levels.traffic_amplification"},
        {"\"dsa_advantage\":4", "\"dsa_advantage\":\"2\"",
         "dsa_advantage must be a positive number"},
        {"\"model\":\"MA\"", "\"model\":1", "model must be a string"},
        {"\"variant\":\"Default\"", "\"variant\":2",
         "workload variant must be a string"},
        {"\"workload\":{\"variant\":\"Default\",\"copies\":1}",
         "\"workload\":\"Default\"", "\"workload\" must be an object"},
        {"\"copies\":1", "\"copies\":2.5", copies.c_str()},
        {"\"copies\":1", "\"copies\":\"2\"", copies.c_str()},
        {"\"copies\":1", "\"copies\":true", copies.c_str()},
        {"\"priority\":0", "\"priority\":\"1\"", priority.c_str()},
        {"\"priority\":0", "\"priority\":2.5", priority.c_str()},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.to);
        protocol::Request decoded;
        std::string error;
        EXPECT_FALSE(parseEdited(c.from, c.to, &decoded, &error));
        EXPECT_EQ(error, c.error);
    }
}

TEST(DaemonProtocol, UnknownSweepOptionIsIgnored)
{
    // A client may still send a sweep option the daemon no longer
    // knows; the request is served as if it were absent.
    protocol::Request decoded;
    std::string error;
    ASSERT_TRUE(parseEdited("\"reuse\":true",
                            "\"reuse\":false,\"retired_flag\":true",
                            &decoded, &error))
        << error;
    EXPECT_FALSE(decoded.options.reuse);
}

TEST(DaemonProtocol, PriorityIsRangeChecked)
{
    // 4294967298 wraps to an accepted 2 if narrowed unchecked.
    for (const char *value : {"2147483648", "-2147483649", "4294967298",
                              "1e30"}) {
        SCOPED_TRACE(value);
        protocol::Request decoded;
        std::string error;
        EXPECT_FALSE(parseEdited("\"priority\":0",
                                 std::string("\"priority\":") + value,
                                 &decoded, &error));
        EXPECT_EQ(error, "request priority out of int range");
    }
    for (int priority : {std::numeric_limits<int>::min(), -1,
                         std::numeric_limits<int>::max()}) {
        protocol::Request decoded;
        std::string error;
        ASSERT_TRUE(parseEdited(
            "\"priority\":0",
            "\"priority\":" + std::to_string(priority), &decoded,
            &error))
            << error;
        EXPECT_EQ(decoded.priority, priority);
    }
}

TEST(DaemonProtocol, DistributedSweepFieldsOfTheWrongKindAreRejected)
{
    // Heartbeat, submit and lease lines as a remote worker could send
    // them. Before the kind checks, "lease":2.5 heartbeat lease 2,
    // "lease":-1 became lease 2^64-1, "complete":"true" submitted a
    // unit as incomplete, and a non-string op or worker came back as
    // an unknown op "" or a missing identity.
    struct Case
    {
        const char *line;
        const char *error;
    };
    const char *lease = "request needs a positive integer \"lease\" id";
    const char *complete = "\"complete\" must be a boolean";
    const Case cases[] = {
        {R"({"op":"heartbeat","worker":"w1","lease":2.5})", lease},
        {R"({"op":"heartbeat","worker":"w1","lease":-1})", lease},
        {R"({"op":"heartbeat","worker":"w1","lease":"3"})", lease},
        {R"({"op":"heartbeat","worker":"w1","lease":0})", lease},
        {R"({"op":"heartbeat","worker":"w1"})", lease},
        {R"({"op":"submit","worker":"w1","lease":3,"records":[],)"
         R"("complete":"true"})",
         complete},
        {R"({"op":"submit","worker":"w1","lease":3,"records":[],)"
         R"("complete":1})",
         complete},
        {R"({"op":1})", "\"op\" must be a string"},
        {R"({"op":["heartbeat"],"worker":"w1","lease":3})",
         "\"op\" must be a string"},
        {R"({"op":"heartbeat","worker":7,"lease":3})",
         "\"worker\" must be a string"},
        {R"({"op":"lease","worker":{"id":"w1"}})",
         "\"worker\" must be a string"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.line);
        protocol::Request decoded;
        std::string error;
        EXPECT_FALSE(protocol::parseRequest(c.line, &decoded, &error));
        EXPECT_EQ(error, c.error);
    }

    // Well-formed lines still parse; an absent "complete" is false.
    protocol::Request decoded;
    std::string error;
    ASSERT_TRUE(protocol::parseRequest(
        R"({"op":"heartbeat","worker":"w1","lease":3})", &decoded,
        &error))
        << error;
    EXPECT_EQ(decoded.op, protocol::Op::Heartbeat);
    EXPECT_EQ(decoded.worker, "w1");
    EXPECT_EQ(decoded.leaseId, 3u);
    ASSERT_TRUE(protocol::parseRequest(
        R"({"op":"submit","worker":"w1","lease":3,"records":[],)"
        R"("complete":true})",
        &decoded, &error))
        << error;
    EXPECT_TRUE(decoded.complete);
    ASSERT_TRUE(protocol::parseRequest(
        R"({"op":"submit","worker":"w1","lease":3,"records":[]})",
        &decoded, &error))
        << error;
    EXPECT_FALSE(decoded.complete);
}

TEST(DaemonProtocol, OversizedLabelCountIsRejectedNotFatal)
{
    // 4294967295 GPU SMs, wrapped to -1, is an invalid SoC the
    // lowering calls fatal() on, which would take the daemon down;
    // 99999999999 would wrap silently into another config.
    DaemonHarness harness;
    for (const char *label : {"(c1,g4294967295,d0)",
                              "(c1,g99999999999,d0)"}) {
        SCOPED_TRACE(label);
        protocol::Request request = maEvalRequest(label);
        request.kind = dse::ModelKind::Hilp;
        ASSERT_TRUE(harness.client().writeLine(
            protocol::encodeRequest(request)));
        Json done = harness.readJson();
        EXPECT_EQ(typeOf(done), "done") << harness.lastLine();
        EXPECT_FALSE(done.find("ok")->boolValue());
        EXPECT_NE(done.find("error")->stringValue().find(label),
                  std::string::npos)
            << harness.lastLine();
    }

    // The daemon is still serving: the next request gets its point.
    ASSERT_TRUE(harness.client().writeLine(
        protocol::encodeRequest(maEvalRequest("(c2,g4,d0^0)"))));
    EXPECT_EQ(typeOf(harness.readJson()), "point")
        << harness.lastLine();
    Json done = harness.readJson();
    EXPECT_EQ(typeOf(done), "done");
    EXPECT_TRUE(done.find("ok")->boolValue()) << harness.lastLine();
}

TEST(DaemonProtocol, OutOfRangeSolverOptionsGetAnErrorNotAHang)
{
    // Without the range check the daemon would run 2^31 - 1 greedy
    // restarts for this point, pinning the handler for hours.
    DaemonHarness harness;
    protocol::Request request = maEvalRequest("(c2,g4,d0^0)");
    request.kind = dse::ModelKind::Hilp;
    request.options.engine.solver.greedyRestarts =
        std::numeric_limits<int>::max();
    std::string line = protocol::encodeRequest(request);
    ASSERT_NE(line.find("\"greedy_restarts\":2147483647"),
              std::string::npos)
        << line;
    ASSERT_TRUE(harness.client().writeLine(line));
    Json done = harness.readJson();
    EXPECT_EQ(typeOf(done), "done") << harness.lastLine();
    EXPECT_FALSE(done.find("ok")->boolValue());
    EXPECT_NE(done.find("error")->stringValue().find("out of range"),
              std::string::npos)
        << harness.lastLine();

    // The handler is still alive: stats round-trips.
    protocol::Request stats;
    stats.op = protocol::Op::Stats;
    ASSERT_TRUE(harness.client().writeLine(
        protocol::encodeRequest(stats)));
    EXPECT_EQ(typeOf(harness.readJson()), "stats");
    EXPECT_EQ(typeOf(harness.readJson()), "done");
}

} // anonymous namespace
} // namespace service
} // namespace hilp
