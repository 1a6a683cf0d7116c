#include "common.hh"

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dse/checkpoint.hh"
#include "dse/distribute.hh"
#include "dse/pareto.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/eval_service.hh"
#include "service/protocol.hh"
#include "service/telemetry_http.hh"
#include "service/worker.hh"
#include "support/net.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/str.hh"
#include "support/table.hh"
#include "support/trace.hh"
#include "support/version.hh"

namespace hilp {
namespace bench {

namespace {

std::string g_trace_path;
std::string g_metrics_path;
int g_solver_threads = 1;
std::string g_checkpoint_path;
bool g_resume = false;
double g_point_timeout_s = 0.0;
std::string g_connect;
bool g_no_reuse = false;
size_t g_max_configs = 0;
size_t g_memo_bytes = 0;
std::string g_metrics_addr;
std::string g_coordinator;
bool g_worker = false;
size_t g_spawn_workers = 0;
double g_lease_timeout_s = 30.0;
bool g_fsync_checkpoint = false;

void
dumpTelemetry()
{
    if (!g_trace_path.empty()) {
        std::string error = trace::writeFile(g_trace_path);
        if (!error.empty())
            warn("trace export failed: %s", error.c_str());
        else
            inform("wrote Chrome trace to %s (open in "
                   "https://ui.perfetto.dev)", g_trace_path.c_str());
    }
    if (!g_metrics_path.empty()) {
        std::string text = metrics::snapshotJson().dump(2);
        text += '\n';
        std::FILE *file = std::fopen(g_metrics_path.c_str(), "w");
        if (!file) {
            warn("cannot open metrics output '%s'",
                 g_metrics_path.c_str());
            return;
        }
        std::fwrite(text.data(), 1, text.size(), file);
        std::fclose(file);
        inform("wrote metrics snapshot to %s", g_metrics_path.c_str());
    }
}

// Numeric flag values: malformed or out of range is fatal, naming
// the flag.

template <typename Int>
void
intFlag(const char *flag, const char *value, int64_t min, int64_t max,
        Int *out)
{
    int64_t number = 0;
    if (!parseInt(value, min, max, &number))
        fatal("%s=%s: expected an integer in [%lld, %lld]", flag, value,
              static_cast<long long>(min), static_cast<long long>(max));
    *out = static_cast<Int>(number);
}

void
realFlag(const char *flag, const char *value, double min, double max,
         double *out)
{
    if (!parseReal(value, min, max, out))
        fatal("%s=%s: expected a number in [%g, %g]", flag, value, min,
              max);
}

} // anonymous namespace

void
initHarness(int *argc, char **argv)
{
    int kept = 1;
    for (int i = 1; i < *argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--trace-out=", 12) == 0)
            g_trace_path = arg + 12;
        else if (std::strncmp(arg, "--metrics-out=", 14) == 0)
            g_metrics_path = arg + 14;
        else if (std::strncmp(arg, "--solver-threads=", 17) == 0)
            intFlag("--solver-threads", arg + 17, 0, cp::kMaxThreads,
                    &g_solver_threads);
        else if (std::strncmp(arg, "--checkpoint=", 13) == 0)
            g_checkpoint_path = arg + 13;
        else if (std::strcmp(arg, "--resume") == 0)
            g_resume = true;
        else if (std::strncmp(arg, "--point-timeout=", 16) == 0)
            realFlag("--point-timeout", arg + 16, 0.0, 1e6,
                     &g_point_timeout_s);
        else if (std::strncmp(arg, "--connect=", 10) == 0)
            g_connect = arg + 10;
        else if (std::strncmp(arg, "--coordinator=", 14) == 0)
            g_coordinator = arg + 14;
        else if (std::strcmp(arg, "--worker") == 0)
            g_worker = true;
        else if (std::strncmp(arg, "--spawn-workers=", 16) == 0)
            intFlag("--spawn-workers", arg + 16, 0, 256,
                    &g_spawn_workers);
        else if (std::strncmp(arg, "--lease-timeout=", 16) == 0)
            realFlag("--lease-timeout", arg + 16, 0.1, 1e6,
                     &g_lease_timeout_s);
        else if (std::strcmp(arg, "--fsync-checkpoint") == 0)
            g_fsync_checkpoint = true;
        else if (std::strncmp(arg, "--metrics-addr=", 15) == 0)
            g_metrics_addr = arg + 15;
        else if (std::strcmp(arg, "--no-reuse") == 0)
            g_no_reuse = true;
        else if (std::strncmp(arg, "--max-configs=", 14) == 0)
            intFlag("--max-configs", arg + 14, 0, 1 << 20,
                    &g_max_configs);
        else if (std::strncmp(arg, "--memo-bytes=", 13) == 0) {
            if (!parseBytes(arg + 13, &g_memo_bytes))
                fatal("--memo-bytes=%s: expected a byte count with an "
                      "optional K/M/G suffix", arg + 13);
        } else if (std::strcmp(arg, "--version") == 0) {
            std::printf("%s\n", versionString().c_str());
            std::exit(0);
        } else
            argv[kept++] = argv[i];
    }
    *argc = kept;
    if (!g_trace_path.empty()) {
        // Stamp the pid into the filename so concurrent harness
        // processes pointed at the same --trace-out (scripted
        // sweeps, check.sh stages) never interleave writes into one
        // file: out/trace.json becomes out/trace.<pid>.json.
        g_trace_path = trace::taggedPath(
            g_trace_path, std::to_string(::getpid()));
        trace::setEnabled(true);
    }
    if (!g_metrics_addr.empty()) {
        // The same exposition endpoint hilpd serves, in-process: a
        // long sweep can be watched live with curl while it runs.
        static service::TelemetryServer telemetry;
        std::string error;
        if (!telemetry.start(g_metrics_addr, nullptr, &error))
            fatal("--metrics-addr %s: %s", g_metrics_addr.c_str(),
                  error.c_str());
        inform("telemetry on %s (GET /metrics, /metrics.json, "
               "/healthz)", g_metrics_addr.c_str());
    }
    // Dump at exit so the trace also covers the google-benchmark
    // loops that run after each binary's figure emission.
    if (!g_trace_path.empty() || !g_metrics_path.empty())
        std::atexit(dumpTelemetry);

    if (g_worker) {
        // Worker mode replaces the whole harness: lease, evaluate,
        // stream, exit. None of the figure code runs.
        if (g_coordinator.empty())
            fatal("--worker needs --coordinator=ADDR");
        service::WorkerOptions worker_options;
        worker_options.id = format("w%d", static_cast<int>(getpid()));
        std::string error;
        const bool ok =
            service::runWorker(g_coordinator, worker_options, &error);
        if (!ok)
            warn("worker %s: %s", worker_options.id.c_str(),
                 error.c_str());
        std::exit(ok ? 0 : 1);
    }
}

int
solverThreads()
{
    return g_solver_threads;
}

double
pointTimeoutS()
{
    return g_point_timeout_s;
}

const std::string &
connectAddress()
{
    return g_connect;
}

bool
noReuse()
{
    return g_no_reuse;
}

size_t
maxConfigs()
{
    return g_max_configs;
}

dse::SweepCheckpoint *
sweepCheckpoint()
{
    if (g_checkpoint_path.empty())
        return nullptr;
    // One checkpoint per process, shared by every sweep the binary
    // runs - the key's model kind keeps their records apart.
    static dse::SweepCheckpoint checkpoint;
    static bool opened = false;
    if (!opened) {
        std::string error;
        if (!checkpoint.open(g_checkpoint_path, g_resume, &error))
            fatal("%s", error.c_str());
        if (g_resume && checkpoint.loaded() > 0)
            inform("checkpoint %s: resuming past %zu completed "
                   "point(s)", g_checkpoint_path.c_str(),
                   checkpoint.loaded());
        if (g_resume && checkpoint.dropped() > 0)
            inform("checkpoint %s: skipped %zu malformed record(s); "
                   "their points will be re-evaluated",
                   g_checkpoint_path.c_str(), checkpoint.dropped());
        checkpoint.setFsync(g_fsync_checkpoint);
        opened = true;
    }
    return &checkpoint;
}

void
banner(const std::string &title, const std::string &description)
{
    std::string bar(70, '=');
    std::printf("%s\n%s\n%s\n%s\n\n", bar.c_str(), title.c_str(),
                description.c_str(), bar.c_str());
}

void
section(const std::string &title)
{
    std::printf("\n--- %s ---\n", title.c_str());
}

EngineOptions
validationEngine(double solver_seconds)
{
    EngineOptions options = EngineOptions::validationMode();
    options.solver.maxSeconds = solver_seconds;
    options.solver.maxNodes = 400000;
    options.solver.threads = g_solver_threads;
    // Rerun near-optimality misses with 4x the budget, as the paper
    // does for its validation experiments.
    options.escalations = 1;
    options.pointTimeoutS = g_point_timeout_s;
    return options;
}

dse::DseOptions
explorationOptions(double solver_seconds)
{
    dse::DseOptions options;
    options.engine = EngineOptions::explorationMode();
    options.engine.solver.maxSeconds = solver_seconds;
    options.engine.solver.maxNodes = 120000;
    options.engine.solver.threads = g_solver_threads;
    options.engine.pointTimeoutS = g_point_timeout_s;
    return options;
}

std::vector<arch::SocConfig>
paperDesignSpace(double advantage)
{
    arch::DesignSpace space;
    space.dsaAdvantage = advantage;
    return enumerateDesignSpace(space, workload::dsaPriorityOrder());
}

namespace {

/**
 * The process-wide coordinator host behind --coordinator=ADDR: a
 * daemon thread serving the lease protocol at the address, reused by
 * every runSweep call (fig7 runs three sweeps back to back against
 * the same worker fleet). Each sweep registers a fresh Coordinator;
 * between sweeps workers poll "wait", and the destructor retires the
 * run so they exit, then reaps spawned worker processes.
 */
class CoordinatorHost
{
  public:
    static CoordinatorHost &
    instance()
    {
        static CoordinatorHost host;
        return host;
    }

    std::vector<dse::DsePoint>
    sweep(const std::vector<arch::SocConfig> &configs,
          const service::protocol::Request &params)
    {
        start();
        dse::CoordinatorOptions coordinator_options;
        coordinator_options.leaseTimeoutS = g_lease_timeout_s;
        coordinator_options.ledger = sweepCheckpoint();
        dse::Coordinator coordinator(configs, params.kind,
                                     coordinator_options);
        daemon_->setCoordinator(
            &coordinator, service::protocol::sweepParamsJson(params));
        const dse::CoordinatorProgress initial =
            coordinator.progress();
        inform("coordinator sweep (%s): %zu configs in %zu units, "
               "lease timeout %.1fs",
               dse::toString(params.kind), configs.size(),
               initial.units, g_lease_timeout_s);
        spawnWorkers();

        // Wait for the merge; reap expired leases ourselves so a
        // dead worker's unit is re-queued even while every live
        // worker is deep in a long solve (none would be polling).
        auto last_advance = std::chrono::steady_clock::now();
        size_t last_done = 0;
        while (!coordinator.finished()) {
            coordinator.reapExpired();
            const dse::CoordinatorProgress progress =
                coordinator.progress();
            const auto now = std::chrono::steady_clock::now();
            if (progress.unitsDone != last_done) {
                last_done = progress.unitsDone;
                last_advance = now;
            } else if (now - last_advance >
                       std::chrono::seconds(600)) {
                fatal("coordinator: no unit completed in 600s "
                      "(%zu/%zu done, %zu leases active) - did "
                      "every worker die?",
                      progress.unitsDone, progress.units,
                      progress.leasesActive);
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
        daemon_->clearCoordinator();
        const dse::CoordinatorProgress final_progress =
            coordinator.progress();
        inform("coordinator sweep (%s) merged: %zu points, "
               "%zu duplicates dropped, %zu lease(s) re-issued",
               dse::toString(params.kind),
               final_progress.pointsMerged,
               final_progress.duplicates, final_progress.reissued);
        return coordinator.takePoints();
    }

  private:
    CoordinatorHost() = default;

    ~CoordinatorHost()
    {
        if (!daemon_)
            return;
        // Tell the fleet the run is over; workers see "complete" on
        // their next poll and exit, so the waitpids below are short.
        daemon_->retireCoordinator();
        for (pid_t pid : workers_) {
            int status = 0;
            waitpid(pid, &status, 0);
        }
        daemon_->stop();
        if (serveThread_.joinable())
            serveThread_.join();
    }

    void
    start()
    {
        if (daemon_)
            return;
        listener_.reset(new net::Listener());
        std::string error;
        if (!listener_->open(g_coordinator, &error))
            fatal("--coordinator %s: %s", g_coordinator.c_str(),
                  error.c_str());
        service::ServiceOptions service_options;
        service_options.executors = 1; // Coordinator ops only.
        service_.reset(new service::EvalService(service_options));
        daemon_.reset(new service::Daemon(*service_));
        serveThread_ = std::thread(
            [this] { daemon_->run(*listener_); });
        inform("coordinator listening on %s", g_coordinator.c_str());
    }

    void
    spawnWorkers()
    {
        if (spawned_ || g_spawn_workers == 0)
            return;
        spawned_ = true;
        const std::string flag = "--coordinator=" + g_coordinator;
        for (size_t i = 0; i < g_spawn_workers; ++i) {
            pid_t pid = fork();
            if (pid < 0)
                fatal("--spawn-workers: fork failed");
            if (pid == 0) {
                // The parent is multithreaded by now (daemon
                // thread), so only exec is safe in the child.
                const char *args[] = {"bench-worker", "--worker",
                                      flag.c_str(), nullptr};
                execv("/proc/self/exe",
                      const_cast<char *const *>(args));
                _exit(127);
            }
            // Announced on stderr so scripts (check.sh's chaos
            // stage) can target a worker to kill.
            std::fprintf(stderr, "spawned worker %d\n",
                         static_cast<int>(pid));
            workers_.push_back(pid);
        }
    }

    std::unique_ptr<net::Listener> listener_;
    std::unique_ptr<service::EvalService> service_;
    std::unique_ptr<service::Daemon> daemon_;
    std::thread serveThread_;
    std::vector<pid_t> workers_;
    bool spawned_ = false;
};

} // anonymous namespace

std::vector<dse::DsePoint>
runSweep(const std::vector<arch::SocConfig> &configs,
         const workload::Workload &wl,
         const arch::Constraints &constraints, dse::ModelKind kind,
         dse::DseOptions options, workload::Variant variant,
         int copies, double advantage)
{
    options.reuse = !g_no_reuse;

    // The sweep's wire form for a daemon or a distributed worker:
    // everything but the config labels.
    service::protocol::Request wire;
    wire.op = configs.size() == 1 ? service::protocol::Op::Eval
                                  : service::protocol::Op::Sweep;
    wire.variant = variant;
    wire.copies = copies;
    wire.dsaAdvantage = advantage;
    wire.constraints = constraints;
    wire.kind = kind;
    wire.options = options;

    if (!g_coordinator.empty()) {
        // Distributed: shard the sweep over the worker fleet.
        return CoordinatorHost::instance().sweep(configs, wire);
    }

    if (g_connect.empty()) {
        // In-process: route through the process-wide EvalService so
        // consecutive sweeps of one binary share its memo, exactly
        // like a warm daemon would.
        static service::EvalService evalService(
            [] {
                service::ServiceOptions service_options;
                if (g_memo_bytes > 0)
                    service_options.memoMaxBytes = g_memo_bytes;
                return service_options;
            }());
        service::SweepRequest request;
        request.configs = configs;
        request.workload = wl;
        request.constraints = constraints;
        request.kind = kind;
        request.options = options;
        request.options.checkpoint = sweepCheckpoint();
        return evalService.sweep(request);
    }

    // Daemon mode: the sweep runs inside hilpd; results stream back
    // per point in the checkpoint record format. A --checkpoint file
    // captures the raw record stream, so it doubles as a --resume
    // file for a later in-process run.
    static service::ServiceClient client;
    std::string error;
    if (!client.connected() &&
        !client.connect(g_connect, &error))
        fatal("--connect %s: %s", g_connect.c_str(), error.c_str());

    std::FILE *capture = nullptr;
    if (!g_checkpoint_path.empty()) {
        capture = std::fopen(g_checkpoint_path.c_str(), "a");
        if (!capture)
            warn("cannot open checkpoint capture '%s'",
                 g_checkpoint_path.c_str());
    }
    std::vector<dse::DsePoint> points;
    bool ok = client.sweep(
        wire, configs, &points, &error,
        [&](const std::string &line) {
            if (!capture)
                return;
            std::fwrite(line.data(), 1, line.size(), capture);
            std::fputc('\n', capture);
            std::fflush(capture);
        });
    if (capture)
        std::fclose(capture);
    if (!ok)
        fatal("daemon sweep failed: %s", error.c_str());
    return points;
}

std::vector<dse::DsePoint>
paretoOf(const std::vector<dse::DsePoint> &points)
{
    std::vector<double> cost;
    std::vector<double> value;
    std::vector<size_t> index;
    for (size_t i = 0; i < points.size(); ++i) {
        if (!points[i].ok)
            continue;
        cost.push_back(points[i].areaMm2);
        value.push_back(points[i].speedup);
        index.push_back(i);
    }
    std::vector<dse::DsePoint> front;
    // Epsilon-dominance: a bigger SoC must buy at least 0.5% more
    // performance to count as Pareto-improving (suppresses float
    // noise between configurations with identical schedules).
    for (size_t f : dse::paretoFront(cost, value, 5e-3))
        front.push_back(points[index[f]]);
    return front;
}

dse::DsePoint
bestOf(const std::vector<dse::DsePoint> &points)
{
    dse::DsePoint best;
    for (const dse::DsePoint &point : points)
        if (point.ok && point.speedup > best.speedup)
            best = point;
    return best;
}

void
printPareto(const std::string &title,
            const std::vector<dse::DsePoint> &points)
{
    section(title);
    Table table({"config", "area (mm2)", "speedup", "avg WLP", "gap",
                 "mix"});
    table.setAlign(0, Table::Align::Left);
    for (const dse::DsePoint &point : points) {
        table.addRow(RowBuilder()
                         .cell(point.config.name())
                         .cell(point.areaMm2, 1)
                         .cell(point.speedup, 2)
                         .cell(point.averageWlp, 2)
                         .cell(point.gap, 3)
                         .cell(std::string(dse::toString(point.mix)))
                         .take());
    }
    table.print();
}

} // namespace bench
} // namespace hilp
