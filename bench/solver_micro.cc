/**
 * @file
 * Solver microbenchmark on pinned instances. Runs the CP solver on a
 * fixed set of deterministic lowered models, reports the median wall
 * time together with the search and propagation-engine telemetry,
 * and writes the whole measurement to BENCH_solver.json so solver
 * changes can be compared run-over-run (wall time should drop or
 * node counts shrink; anything else is a regression).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "common.hh"
#include "cp/solver.hh"
#include "hilp/builder.hh"
#include "hilp/discretize.hh"
#include "support/json.hh"
#include "support/metrics.hh"
#include "support/table.hh"
#include "support/trace.hh"

namespace {

using namespace hilp;

using Clock = std::chrono::steady_clock;

constexpr int kRepeats = 5;
/** Repeats per thread count in the parallel-search sweep. */
constexpr int kSweepRepeats = 3;
constexpr int kSweepThreads[] = {1, 2, 4, 8};

struct Instance
{
    std::string name;
    cp::Model model;
    cp::SolverOptions options;
};

/**
 * Pinned instances: deterministic workload, SoC shape, resolution,
 * and solver budget, covering the regimes the DSE sweep exercises -
 * a proof-heavy exact solve, an exploration-budget near-optimal
 * solve, and a tightly power-constrained one.
 */
std::vector<Instance>
makeInstances()
{
    auto wl = workload::makeWorkload(workload::Variant::Default);
    auto priority = workload::dsaPriorityOrder();

    std::vector<Instance> instances;
    {
        arch::SocConfig soc;
        soc.cpuCores = 4;
        soc.gpuSms = 16;
        soc.dsas = {{16, priority[0]}, {16, priority[1]}};
        ProblemSpec spec = buildProblem(wl, soc, arch::Constraints{});
        cp::SolverOptions options;
        options.maxSeconds = 2.0;
        options.targetGap = 0.0; // Search for a proven optimum.
        instances.push_back({"exact (c4,g16,d2^16)",
                             discretize(spec, 2.0, 1000).model,
                             options});
    }
    {
        arch::SocConfig soc;
        soc.cpuCores = 2;
        soc.gpuSms = 32;
        ProblemSpec spec = buildProblem(wl, soc, arch::Constraints{});
        cp::SolverOptions options;
        options.maxSeconds = 1.0;
        options.targetGap = 0.10; // Exploration budget.
        instances.push_back({"explore (c2,g32,d0^0)",
                             discretize(spec, 2.0, 1000).model,
                             options});
    }
    {
        arch::Constraints constraints;
        constraints.powerBudgetW = 50.0;
        arch::SocConfig soc;
        soc.cpuCores = 4;
        soc.gpuSms = 64;
        ProblemSpec spec = buildProblem(
            workload::makeWorkload(workload::Variant::Optimized),
            soc, constraints);
        cp::SolverOptions options;
        options.maxSeconds = 2.0;
        options.targetGap = 0.0;
        instances.push_back({"50 W (c4,g64,d0^0)",
                             discretize(spec, 2.0, 1000).model,
                             options});
    }
    {
        // Exploration budget on a power-constrained shape whose
        // greedy misses the 10% bar: the search tree is dense with
        // revisited placement sets, which the no-good store prunes
        // (the trivial explore instance above never enters the tree
        // at all).
        arch::Constraints constraints;
        constraints.powerBudgetW = 50.0;
        arch::SocConfig soc;
        soc.cpuCores = 4;
        soc.gpuSms = 64;
        ProblemSpec spec = buildProblem(wl, soc, constraints);
        cp::SolverOptions options;
        options.maxSeconds = 8.0;
        options.maxNodes = 1000000;
        options.targetGap = 0.10;
        instances.push_back({"explore-hard (c4,g64,50W)",
                             discretize(spec, 2.0, 1000).model,
                             options});
    }
    // Harness-wide solver flags apply to the headline measurements
    // too (the thread sweep overrides threads per entry).
    for (Instance &instance : instances)
        instance.options.threads = hilp::bench::solverThreads();
    return instances;
}

struct Measurement
{
    std::string name;
    double medianS = 0.0;
    cp::Result result;
};

Measurement
measure(const Instance &instance)
{
    Measurement m;
    m.name = instance.name;
    std::vector<double> times;
    for (int rep = 0; rep < kRepeats; ++rep) {
        cp::Solver solver(instance.options);
        Clock::time_point t0 = Clock::now();
        cp::Result result = solver.solve(instance.model);
        times.push_back(std::chrono::duration<double>(
            Clock::now() - t0).count());
        // The solver is deterministic: every repeat explores the
        // same tree, so the telemetry of the last run stands in for
        // all of them.
        m.result = std::move(result);
    }
    std::sort(times.begin(), times.end());
    m.medianS = times[times.size() / 2];
    return m;
}

struct ThreadSweepEntry
{
    int threads = 1;
    double medianS = 0.0;
    double speedup = 1.0; //!< Serial median / this median.
    cp::Time makespan = 0;
    cp::SolveStatus status = cp::SolveStatus::NoSolution;
    int64_t nodes = 0;
    int64_t steals = 0;
};

struct ThreadSweep
{
    std::string name;
    std::vector<ThreadSweepEntry> entries;
};

/**
 * Parallel-search scaling on the hard (targetGap == 0) instances:
 * the same solve at 1/2/4/8 worker threads. The makespan and status
 * must not move across thread counts — the parallel search explores
 * a different node set but proves the same optimum — so the sweep
 * doubles as an end-to-end differential check, and the speedup
 * column is the headline number for the work-stealing layer.
 */
std::vector<ThreadSweep>
measureThreadSweep(const std::vector<Instance> &instances)
{
    std::vector<ThreadSweep> sweeps;
    for (const Instance &instance : instances) {
        if (instance.options.targetGap > 0.0)
            continue; // Gap-budget solves can stop early; skip.
        ThreadSweep sweep;
        sweep.name = instance.name;
        double serial_median = 0.0;
        for (int threads : kSweepThreads) {
            cp::SolverOptions options = instance.options;
            options.threads = threads;
            std::vector<double> times;
            ThreadSweepEntry entry;
            entry.threads = threads;
            for (int rep = 0; rep < kSweepRepeats; ++rep) {
                cp::Solver solver(options);
                Clock::time_point t0 = Clock::now();
                cp::Result result = solver.solve(instance.model);
                times.push_back(std::chrono::duration<double>(
                    Clock::now() - t0).count());
                entry.makespan = result.makespan;
                entry.status = result.status;
                entry.nodes = result.stats.nodes;
                entry.steals = result.stats.steals;
            }
            std::sort(times.begin(), times.end());
            entry.medianS = times[times.size() / 2];
            if (threads == 1)
                serial_median = entry.medianS;
            entry.speedup = entry.medianS > 0.0
                ? serial_median / entry.medianS : 1.0;
            sweep.entries.push_back(entry);
        }
        sweeps.push_back(std::move(sweep));
    }
    return sweeps;
}

struct TraceOverhead
{
    double disabledS = 0.0;
    double enabledS = 0.0;
};

/**
 * Median wall time of one instance with tracing off vs on. The
 * interesting number is the disabled cost (instrumentation compiled
 * in but not recording), which the observability layer promises
 * stays within noise of an uninstrumented build; the enabled cost
 * shows what actually recording a trace adds.
 */
TraceOverhead
measureTraceOverhead(const Instance &instance)
{
    bool was_enabled = trace::enabled();
    auto median = [&](bool enable) {
        trace::setEnabled(enable);
        std::vector<double> times;
        for (int rep = 0; rep < kRepeats; ++rep) {
            cp::Solver solver(instance.options);
            Clock::time_point t0 = Clock::now();
            cp::Result result = solver.solve(instance.model);
            benchmark::DoNotOptimize(result.makespan);
            times.push_back(std::chrono::duration<double>(
                Clock::now() - t0).count());
        }
        std::sort(times.begin(), times.end());
        return times[times.size() / 2];
    };
    TraceOverhead overhead;
    overhead.disabledS = median(false);
    overhead.enabledS = median(true);
    trace::setEnabled(was_enabled);
    if (!was_enabled) {
        // Nobody will export these probe events: drop them so a later
        // --trace-out run is not polluted.
        trace::clearAll();
    }
    return overhead;
}

struct TelemetryOverhead
{
    double disabledS = 0.0;
    double enabledS = 0.0;

    double
    ratio() const
    {
        return disabledS > 0.0 ? enabledS / disabledS : 1.0;
    }
};

/**
 * Median wall time of one instance with the full daemon telemetry
 * stack off vs on: ring-buffered tracing, a request trace context
 * and span, and the per-request metric updates hilpd publishes for
 * every served request. hilpd runs every solve in exactly this
 * configuration (daemon mode records into the trace ring
 * unconditionally, for the flight recorder's slow-request capture),
 * so this is the number the observability layer's overhead budget is
 * about. The probe is the power-constrained exact instance - long
 * enough (~0.5 s) that the ratio is not timer noise.
 */
TelemetryOverhead
measureTelemetryOverhead(const Instance &instance)
{
    bool was_enabled = trace::enabled();
    auto run = [&](bool enable) {
        trace::setRingBuffered(enable);
        trace::setEnabled(enable);
        cp::Solver solver(instance.options);
        Clock::time_point t0 = Clock::now();
        {
            trace::ContextScope request(
                enable ? trace::newTraceId() : 0);
            trace::Span span("telemetry_probe.request");
            cp::Result result = solver.solve(instance.model);
            benchmark::DoNotOptimize(result.makespan);
        }
        double elapsed = std::chrono::duration<double>(
            Clock::now() - t0).count();
        if (enable) {
            // The same per-request registry updates
            // Daemon::finishRequest makes.
            metrics::counter("telemetry_probe.requests").add(1);
            metrics::histogram("telemetry_probe.total_us")
                .record(static_cast<int64_t>(elapsed * 1e6));
        }
        return elapsed;
    };
    // Interleave the off/on repetitions so ambient load drift hits
    // both sides symmetrically - the gate below compares their
    // ratio, which a busy block on one side would silently skew.
    std::vector<double> off_times;
    std::vector<double> on_times;
    for (int rep = 0; rep < kRepeats; ++rep) {
        off_times.push_back(run(false));
        on_times.push_back(run(true));
    }
    trace::setRingBuffered(false);
    trace::setEnabled(was_enabled);
    if (!was_enabled)
        trace::clearAll();
    std::sort(off_times.begin(), off_times.end());
    std::sort(on_times.begin(), on_times.end());
    TelemetryOverhead overhead;
    overhead.disabledS = off_times[off_times.size() / 2];
    overhead.enabledS = on_times[on_times.size() / 2];
    return overhead;
}

void
emitReport(const std::vector<Measurement> &measurements,
           const TraceOverhead &overhead,
           const TelemetryOverhead &telemetry,
           const std::vector<ThreadSweep> &sweeps)
{
    bench::banner(
        "Solver microbenchmark - pinned instances",
        "Median-of-5 wall time plus search and propagation-engine\n"
        "telemetry on fixed lowered models; the same numbers are\n"
        "written to BENCH_solver.json for run-over-run comparison.");

    Table table({"instance", "median (ms)", "nodes", "backtracks",
                 "gap", "status"});
    table.setAlign(0, Table::Align::Left);
    for (const Measurement &m : measurements) {
        table.addRow(RowBuilder()
                         .cell(m.name)
                         .cell(m.medianS * 1e3, 2)
                         .cell(m.result.stats.nodes)
                         .cell(m.result.stats.backtracks)
                         .cell(m.result.gap(), 3)
                         .cell(std::string(
                             cp::toString(m.result.status)))
                         .take());
    }
    table.print();

    for (const Measurement &m : measurements) {
        std::printf("%s propagators:", m.name.c_str());
        for (const cp::PropagatorStats &p :
             m.result.stats.propagators) {
            std::printf(" %s %lld inv / %lld prune",
                        p.name.c_str(),
                        static_cast<long long>(p.invocations),
                        static_cast<long long>(p.prunings));
        }
        std::printf("\n");
    }

    Json instances = Json::array();
    int64_t total_nodes = 0;
    int64_t total_scratch = 0;
    double total_median_s = 0.0;
    for (const Measurement &m : measurements) {
        Json entry = Json::object();
        entry.set("name", Json::string(m.name));
        entry.set("median_s", Json::number(m.medianS));
        entry.set("status", Json::string(
            cp::toString(m.result.status)));
        entry.set("makespan_steps", Json::number(
            static_cast<int64_t>(m.result.makespan)));
        entry.set("lower_bound_steps", Json::number(
            static_cast<int64_t>(m.result.lowerBound)));
        entry.set("gap", Json::number(m.result.gap()));
        entry.set("nodes", Json::number(m.result.stats.nodes));
        entry.set("backtracks", Json::number(
            m.result.stats.backtracks));
        Json propagators = Json::array();
        for (const cp::PropagatorStats &p :
             m.result.stats.propagators) {
            Json prop = Json::object();
            prop.set("name", Json::string(p.name));
            prop.set("invocations", Json::number(p.invocations));
            prop.set("prunings", Json::number(p.prunings));
            prop.set("seconds", Json::number(p.seconds));
            propagators.append(std::move(prop));
        }
        entry.set("propagators", std::move(propagators));
        instances.append(std::move(entry));
        total_nodes += m.result.stats.nodes;
        total_scratch += m.result.stats.scratchBytes;
        total_median_s += m.medianS;
    }
    Json report = Json::object();
    report.set("benchmark", Json::string("solver_micro"));
    report.set("repeats", Json::number(
        static_cast<int64_t>(kRepeats)));
    report.set("instances", std::move(instances));
    Json totals = Json::object();
    totals.set("median_s", Json::number(total_median_s));
    totals.set("nodes", Json::number(total_nodes));
    report.set("totals", std::move(totals));
    if (total_nodes > 0) {
        // Search scratch grown during the tree walks, amortized over
        // their nodes: ~0 once each depth's branching vectors and the
        // profile slabs have warmed up.
        double per_node = static_cast<double>(total_scratch) /
                          static_cast<double>(total_nodes);
        report.set("alloc_bytes_per_node", Json::number(per_node));
        std::printf("search heap growth per node (pool warm-up "
                    "amortized over %lld nodes): %.4f bytes\n",
                    static_cast<long long>(total_nodes), per_node);
    }

    if (!sweeps.empty()) {
        Table sweep_table({"instance", "threads", "median (ms)",
                           "speedup", "steals", "status"});
        sweep_table.setAlign(0, Table::Align::Left);
        Json sweep_json = Json::array();
        double speedup8_product = 1.0;
        int speedup8_count = 0;
        for (const ThreadSweep &sweep : sweeps) {
            Json entry = Json::object();
            entry.set("name", Json::string(sweep.name));
            Json rows = Json::array();
            for (const ThreadSweepEntry &e : sweep.entries) {
                sweep_table.addRow(
                    RowBuilder()
                        .cell(sweep.name)
                        .cell(static_cast<int64_t>(e.threads))
                        .cell(e.medianS * 1e3, 2)
                        .cell(e.speedup, 2)
                        .cell(e.steals)
                        .cell(std::string(cp::toString(e.status)))
                        .take());
                Json row = Json::object();
                row.set("threads", Json::number(
                    static_cast<int64_t>(e.threads)));
                row.set("median_s", Json::number(e.medianS));
                row.set("speedup", Json::number(e.speedup));
                row.set("makespan_steps", Json::number(
                    static_cast<int64_t>(e.makespan)));
                row.set("status", Json::string(
                    cp::toString(e.status)));
                row.set("nodes", Json::number(e.nodes));
                row.set("steals", Json::number(e.steals));
                rows.append(std::move(row));
                if (e.threads == 8) {
                    speedup8_product *= e.speedup;
                    ++speedup8_count;
                }
            }
            entry.set("entries", std::move(rows));
            sweep_json.append(std::move(entry));
        }
        bench::section("parallel search thread sweep (hard instances)");
        sweep_table.print();
        report.set("thread_sweep", std::move(sweep_json));
        if (speedup8_count > 0) {
            double speedup8 = std::pow(
                speedup8_product, 1.0 / speedup8_count);
            report.set("speedup_8t_geomean",
                       Json::number(speedup8));
            std::printf("8-thread speedup (geomean over %d hard "
                        "instances): %.2fx\n", speedup8_count,
                        speedup8);
        }
    }

    double ratio = overhead.disabledS > 0.0
        ? overhead.enabledS / overhead.disabledS : 1.0;
    Json trace_overhead = Json::object();
    trace_overhead.set("disabled_s", Json::number(overhead.disabledS));
    trace_overhead.set("enabled_s", Json::number(overhead.enabledS));
    trace_overhead.set("ratio", Json::number(ratio));
    report.set("trace_overhead", std::move(trace_overhead));
    std::printf("trace overhead (explore instance): %.2fms off, "
                "%.2fms on (%.2fx)\n", overhead.disabledS * 1e3,
                overhead.enabledS * 1e3, ratio);

    Json telemetry_overhead = Json::object();
    telemetry_overhead.set("disabled_s",
                           Json::number(telemetry.disabledS));
    telemetry_overhead.set("enabled_s",
                           Json::number(telemetry.enabledS));
    telemetry_overhead.set("ratio", Json::number(telemetry.ratio()));
    report.set("telemetry_overhead", std::move(telemetry_overhead));
    std::printf("daemon telemetry overhead (50 W instance): %.2fms "
                "off, %.2fms on (%.2fx)\n",
                telemetry.disabledS * 1e3, telemetry.enabledS * 1e3,
                telemetry.ratio());

    std::ofstream file("BENCH_solver.json");
    file << report.dump(2) << "\n";
    std::printf("wrote BENCH_solver.json (total median %.3fs, "
                "%lld nodes)\n", total_median_s,
                static_cast<long long>(total_nodes));
}

void
BM_SolveExact(benchmark::State &state)
{
    auto instances = makeInstances();
    for (auto _ : state) {
        cp::Result result =
            cp::Solver(instances[0].options).solve(instances[0].model);
        benchmark::DoNotOptimize(result.makespan);
    }
}
BENCHMARK(BM_SolveExact)->Unit(benchmark::kMillisecond)->Iterations(3);

void
BM_SolveExplore(benchmark::State &state)
{
    auto instances = makeInstances();
    for (auto _ : state) {
        cp::Result result =
            cp::Solver(instances[1].options).solve(instances[1].model);
        benchmark::DoNotOptimize(result.makespan);
    }
}
BENCHMARK(BM_SolveExplore)->Unit(benchmark::kMillisecond)->Iterations(3);

} // anonymous namespace

int
main(int argc, char **argv)
{
    // --no-thread-sweep skips the 1/2/4/8-thread scaling pass (used
    // by quick smoke runs, e.g. the trace check in scripts/check.sh).
    bool thread_sweep = true;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--no-thread-sweep") == 0)
            thread_sweep = false;
        else
            argv[kept++] = argv[i];
    }
    argc = kept;
    hilp::bench::initHarness(&argc, argv);
    auto instances = makeInstances();
    std::vector<Measurement> measurements;
    for (const Instance &instance : instances)
        measurements.push_back(measure(instance));
    // The explore-budget instance is the overhead probe: it is the
    // regime the DSE sweep runs in, where trace cost matters most.
    TraceOverhead overhead = measureTraceOverhead(instances[1]);
    // The power-constrained exact instance probes the full daemon
    // telemetry stack (ring tracing + context + request metrics).
    TelemetryOverhead telemetry =
        measureTelemetryOverhead(instances[2]);
    std::vector<ThreadSweep> sweeps;
    if (thread_sweep)
        sweeps = measureThreadSweep(instances);
    emitReport(measurements, overhead, telemetry, sweeps);
    // Telemetry overhead gate. The original budget (3% warn / 10%
    // fail) was derived against a ~780 ms probe solve; the
    // cache-conscious solver core roughly halved that baseline, so
    // the *same* absolute instrumentation cost (~25 ms of ring
    // writes and metric updates per 500k-node request) now reads
    // about twice as large relative. Re-derived against the faster
    // baseline: warn past 8%, fail past 15% - the absolute budget is
    // unchanged.
    if (telemetry.ratio() > 1.15) {
        std::fprintf(stderr,
                     "TELEMETRY OVERHEAD REGRESSION: %.2fx with the "
                     "daemon stack enabled exceeds the 1.15x cap\n",
                     telemetry.ratio());
        return 1;
    }
    if (telemetry.ratio() > 1.08)
        std::fprintf(stderr,
                     "telemetry overhead warning: %.2fx is past the "
                     "1.08x budget (cap 1.15x)\n",
                     telemetry.ratio());
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
