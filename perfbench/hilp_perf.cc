/**
 * @file
 * End-to-end design-space-exploration benchmark.
 *
 * Sweeps seeded slices of the Figure 7 design space (372 SoCs, the
 * Default Rodinia workload, 600 W) under the HILP model and reports,
 * as one JSON line on stdout, what a user of a sweep sees: points
 * evaluated per second and set-up time. A run sweeps every
 * slice once per pass, in whole passes, and times each slice by its
 * fastest pass. Two workloads:
 *
 *   explore  in-process sweeps with cross-config reuse (warm-start
 *            chains, the solve memo, dominance pruning), each on a
 *            fresh EvalService, as a fresh fig7 run does;
 *   service  sweep requests to an in-process hilpd daemon over
 *            loopback TCP whose memo was warmed during set-up, so
 *            requests exercise protocol, socket I/O, lowering and the
 *            memo instead of the solver.
 *
 * Every result is checked: each point must be feasible and
 * non-degraded, match its lowered instance's fingerprint, respect the
 * instance's continuous lower bound, replay cleanly in the
 * independent simulator when its schedule is available, and equal
 * the result of every other sweep of the same slice in the run.
 *
 * With --trace 1 the run reports the per-layer ledger instead: for
 * each swept point the driver calls every layer's public entry point
 * itself (lowering, the adaptive engine, discretization, bounds, the
 * LP bound, greedy restarts, incumbent improvement, the full solve,
 * simulator replay, record serialization, line framing over a
 * socket) and times each call from outside the library.
 *
 *   hilp_perf --workload explore|service --seed N --seconds S
 *             --trace 0|1
 */

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/design_space.hh"
#include "cp/bounds.hh"
#include "cp/list_scheduler.hh"
#include "cp/solver.hh"
#include "dse/checkpoint.hh"
#include "dse/explore.hh"
#include "hilp/builder.hh"
#include "hilp/discretize.hh"
#include "hilp/engine.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/eval_service.hh"
#include "service/protocol.hh"
#include "sim/replay.hh"
#include "support/logging.hh"
#include "support/net.hh"
#include "workload/rodinia.hh"

namespace {

using namespace hilp;
using Clock = std::chrono::steady_clock;

// --- Fixed benchmark shape -------------------------------------------

/**
 * Similarity chains (one CPU/DSA allocation at every GPU size) per
 * sweep: the space's 93 chains split into 31 slices of 12 configs.
 */
constexpr size_t kChainsPerSlice = 3;
/** Slices the service workload warms its memo with and then cycles. */
constexpr size_t kServiceSlices = 6;
/** Set-ups per run, spread over its length; setup_s is their median. */
constexpr size_t kSetups = 10;
/**
 * Sweep worker threads. With one, a pass costs the sum of its points
 * however the seed groups chains into slices.
 */
constexpr int kSweepThreads = 1;
/** Slice id of the warm-up sweep that ends every set-up. */
constexpr size_t kWarmup = SIZE_MAX;
/** Branch-and-bound node budget per solve. */
constexpr int64_t kMaxNodes = 4000;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

template <typename Fn>
double
timeUs(Fn &&fn)
{
    Clock::time_point start = Clock::now();
    fn();
    return secondsSince(start) * 1e6;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

// --- Inputs ----------------------------------------------------------

/** Everything a run sweeps, derived from the seed alone. */
struct Inputs
{
    workload::Workload workload;
    arch::Constraints constraints; // 600 W, 800 GB/s.
    /** Disjoint slices of the design space, in seeded order. */
    std::vector<std::vector<arch::SocConfig>> slices;
    /** The first chains in enumeration order, whatever the seed. */
    std::vector<arch::SocConfig> warmup;

    const std::vector<arch::SocConfig> &
    configs(size_t slice) const
    {
        return slice == kWarmup ? warmup : slices.at(slice);
    }
};

Inputs
makeInputs(uint64_t seed)
{
    Inputs inputs;
    inputs.workload = workload::makeWorkload(workload::Variant::Default);

    arch::DesignSpace space;
    std::vector<arch::SocConfig> configs =
        arch::enumerateDesignSpace(space, workload::dsaPriorityOrder());
    std::vector<std::vector<size_t>> chains =
        dse::similarityChains(configs);
    for (size_t c = 0; c < kChainsPerSlice; ++c)
        for (size_t index : chains[c])
            inputs.warmup.push_back(configs[index]);

    // Fisher-Yates with an explicit draw, so the order is the same on
    // every standard library.
    std::mt19937_64 rng(seed);
    for (size_t i = chains.size(); i > 1; --i)
        std::swap(chains[i - 1], chains[rng() % i]);

    for (size_t first = 0; first + kChainsPerSlice <= chains.size();
         first += kChainsPerSlice) {
        std::vector<arch::SocConfig> slice;
        for (size_t c = first; c < first + kChainsPerSlice; ++c)
            for (size_t index : chains[c])
                slice.push_back(configs[index]);
        inputs.slices.push_back(std::move(slice));
    }
    return inputs;
}

dse::DseOptions
sweepOptions()
{
    dse::DseOptions options;
    options.engine = EngineOptions::explorationMode();
    // The node budget, not the clock, ends every search, so results
    // do not depend on machine load.
    options.engine.solver.maxNodes = kMaxNodes;
    options.engine.solver.maxSeconds = 120.0;
    options.engine.solver.threads = 1;
    options.threads = kSweepThreads;
    return options;
}

// --- One sweep's outcome and its checks --------------------------------

struct SweepOutcome
{
    size_t slice = 0;
    std::vector<dse::DsePoint> points;
    /** Schedules by config name, where the sweep exposed one. */
    std::map<std::string, Schedule> schedules;
    double seconds = 0.0;
    /** Solve-memo traffic the sweep caused. */
    int64_t memoHits = 0;
    int64_t memoMisses = 0;
};

/** A point's result as compared across sweeps of one slice. */
struct PointResult
{
    std::string config;
    double makespanS;
    double gap;
    bool operator==(const PointResult &) const = default;
};

class Checker
{
  public:
    explicit Checker(const Inputs &inputs)
        : inputs_(inputs),
          reference_(workload::sequentialCpuTimeS(inputs.workload))
    {}

    /** Check one sweep; returns the number of points that failed. */
    size_t
    check(const SweepOutcome &outcome)
    {
        const auto &configs = inputs_.configs(outcome.slice);
        size_t failed = 0;
        if (outcome.points.size() != configs.size()) {
            report("slice %zu: %zu points for %zu configs", outcome.slice,
                   outcome.points.size(), configs.size());
            return configs.size();
        }
        std::vector<PointResult> seen;
        for (size_t i = 0; i < configs.size(); ++i) {
            const dse::DsePoint &point = outcome.points[i];
            auto it = outcome.schedules.find(configs[i].name());
            std::string problem = checkPoint(
                configs[i], point,
                it == outcome.schedules.end() ? nullptr : &it->second);
            if (!problem.empty()) {
                report("%s: %s", configs[i].name().c_str(),
                       problem.c_str());
                ++failed;
            }
            seen.push_back({point.config.name(), point.makespanS,
                            point.gap});
        }
        auto [entry, inserted] = firstSeen_.emplace(outcome.slice, seen);
        if (!inserted && entry->second != seen) {
            report("slice %zu: results differ from an earlier sweep",
                   outcome.slice);
            failed = std::max<size_t>(failed, 1);
        }
        return failed;
    }

  private:
    std::string
    checkPoint(const arch::SocConfig &config, const dse::DsePoint &point,
               const Schedule *schedule)
    {
        if (point.config.name() != config.name())
            return "result for another config: " + point.config.name();
        if (!point.ok || point.errored || point.degraded)
            return "not a clean result: " + point.note;
        if (!(point.makespanS > 0.0) || !std::isfinite(point.makespanS))
            return "bad makespan";
        if (!(point.gap >= 0.0 && point.gap < 1.0))
            return "bad gap";
        if (std::fabs(point.speedup * point.makespanS - reference_) >
            1e-9 * reference_)
            return "speedup disagrees with the makespan";

        ProblemSpec spec = buildProblem(inputs_.workload, config,
                                        inputs_.constraints, build_);
        if (point.fingerprint != spec.fingerprint())
            return "fingerprint does not match the lowered instance";
        if (point.makespanS < continuousLowerBoundS(spec) * (1 - 1e-9))
            return "makespan below the continuous lower bound";
        if (schedule) {
            sim::SimResult replay = sim::replaySchedule(spec, *schedule);
            if (!replay.ok)
                return "schedule fails replay: " + replay.violation;
            if (std::fabs(replay.makespanS - point.makespanS) >
                1e-6 * point.makespanS)
                return "replayed makespan differs";
        }
        return "";
    }

    template <typename... Args>
    void
    report(const char *format, Args... args)
    {
        std::fprintf(stderr, "hilp_perf: incorrect: ");
        std::fprintf(stderr, format, args...);
        std::fprintf(stderr, "\n");
    }

    const Inputs &inputs_;
    const BuildOptions build_ = sweepOptions().build;
    const double reference_;
    std::map<size_t, std::vector<PointResult>> firstSeen_;
};

// --- Workload runners --------------------------------------------------

class Runner
{
  public:
    virtual ~Runner() = default;
    /** Sweep one slice of the run's inputs. */
    virtual SweepOutcome sweep(size_t slice) = 0;
    /** Slices the measured loop cycles through. */
    virtual size_t slices() const = 0;
};

/** In-process sweeps, each on a fresh EvalService. */
class InProcessRunner : public Runner
{
  public:
    explicit InProcessRunner(const Inputs &inputs)
        : inputs_(inputs), options_(sweepOptions())
    {}

    SweepOutcome
    sweep(size_t slice) override
    {
        SweepOutcome outcome;
        outcome.slice = slice;
        std::mutex mutex;
        service::SweepRequest request;
        request.configs = inputs_.configs(slice);
        request.workload = inputs_.workload;
        request.constraints = inputs_.constraints;
        request.kind = dse::ModelKind::Hilp;
        request.options = options_;
        request.onPoint = [&](const dse::DsePoint &point,
                              const Schedule *schedule) {
            if (!schedule)
                return;
            std::lock_guard<std::mutex> lock(mutex);
            outcome.schedules[point.config.name()] = *schedule;
        };

        service::ServiceOptions service_options;
        service_options.executors = 1;
        service::EvalService service(service_options);
        Clock::time_point start = Clock::now();
        outcome.points = service.sweep(request);
        outcome.seconds = secondsSince(start);
        outcome.memoHits = service.memo().hits();
        outcome.memoMisses = service.memo().misses();
        return outcome;
    }

    size_t slices() const override { return inputs_.slices.size(); }

  private:
    const Inputs &inputs_;
    const dse::DseOptions options_;
};

/**
 * Sweep requests to a hilpd daemon served from a thread of this
 * process over loopback TCP, through one client connection.
 */
class ServiceRunner : public Runner
{
  public:
    explicit ServiceRunner(const Inputs &inputs)
        : inputs_(inputs), options_(sweepOptions()),
          service_(service::ServiceOptions{}), daemon_(service_)
    {
        std::string error;
        if (!listener_.open("tcp:127.0.0.1:0", &error))
            throw std::runtime_error("listen: " + error);
        server_ = std::thread([this] { daemon_.run(listener_); });
        if (!client_.connect(
                "tcp:127.0.0.1:" + std::to_string(listener_.port()),
                &error)) {
            stop();
            throw std::runtime_error("connect: " + error);
        }
    }

    ~ServiceRunner() override { stop(); }

    ServiceRunner(const ServiceRunner &) = delete;
    ServiceRunner &operator=(const ServiceRunner &) = delete;

    SweepOutcome
    sweep(size_t slice) override
    {
        SweepOutcome outcome;
        outcome.slice = slice;
        service::protocol::Request request;
        request.op = service::protocol::Op::Sweep;
        request.variant = workload::Variant::Default;
        request.constraints = inputs_.constraints;
        request.kind = dse::ModelKind::Hilp;
        request.options = options_;

        std::vector<std::string> records;
        std::string error;
        int64_t hits = service_.memo().hits();
        int64_t misses = service_.memo().misses();
        Clock::time_point start = Clock::now();
        bool ok = client_.sweep(
            request, inputs_.configs(slice), &outcome.points, &error,
            [&records](const std::string &line) {
                records.push_back(line);
            });
        outcome.seconds = secondsSince(start);
        if (!ok)
            throw std::runtime_error("daemon sweep: " + error);
        outcome.memoHits = service_.memo().hits() - hits;
        outcome.memoMisses = service_.memo().misses() - misses;

        for (const std::string &line : records) {
            uint64_t key = 0;
            dse::DsePoint point;
            Schedule schedule;
            bool has_schedule = false;
            std::string name;
            if (dse::parsePointRecord(line, &key, &point, &schedule,
                                      &has_schedule, &name) &&
                has_schedule)
                outcome.schedules[name] = std::move(schedule);
        }
        return outcome;
    }

    size_t
    slices() const override
    {
        return std::min(kServiceSlices, inputs_.slices.size());
    }

  private:
    void
    stop()
    {
        // Close the client first: the daemon joins its connection
        // handlers on the way out.
        client_ = service::ServiceClient();
        daemon_.stop();
        if (server_.joinable())
            server_.join();
    }

    const Inputs &inputs_;
    const dse::DseOptions options_;
    service::EvalService service_;
    service::Daemon daemon_;
    net::Listener listener_;
    service::ServiceClient client_;
    std::thread server_;
};

std::unique_ptr<Runner>
makeRunner(const std::string &workload, const Inputs &inputs)
{
    if (workload == "explore")
        return std::make_unique<InProcessRunner>(inputs);
    if (workload == "service")
        return std::make_unique<ServiceRunner>(inputs);
    return nullptr;
}

// --- The per-layer ledger ----------------------------------------------

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/**
 * Times each layer a design point passes through by calling the
 * layer's public entry point directly on the point's inputs, and
 * tallies the effort counters the sweep itself reported. Layers are
 * named module.layer after the source tree (src/hilp, src/cp, ...).
 */
class Ledger
{
  public:
    /** The probe evaluates every point cold, with the sweeps' budgets. */
    Ledger() : options_(sweepOptions())
    {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
            throw std::runtime_error("socketpair failed");
        writer_ = std::make_unique<net::LineChannel>(net::Socket(fds[0]));
        reader_ = std::make_unique<net::LineChannel>(net::Socket(fds[1]));
    }

    void
    probeSweep(const Inputs &inputs, const SweepOutcome &outcome)
    {
        const auto &configs = inputs.configs(outcome.slice);
        for (size_t i = 0; i < configs.size(); ++i)
            probePoint(inputs, configs[i], outcome.points[i]);

        for (const dse::DsePoint &point : outcome.points) {
            sums_["cp.nodes_per_point"] += static_cast<double>(point.nodes);
            sums_["cp.solves_per_point"] += point.solves;
            sums_["dse.cache_hit_rate"] += point.cacheHit;
            sums_["dse.warm_start_rate"] += point.warmStarted;
            sums_["dse.pruned_rate"] += point.pruned;
        }
        memoHits_ += outcome.memoHits;
        memoLookups_ += outcome.memoHits + outcome.memoMisses;
    }

    /** Means per probed point. */
    std::vector<Metric>
    metrics() const
    {
        auto mean = [this](const char *name) {
            auto it = sums_.find(name);
            return it == sums_.end()
                ? 0.0
                : it->second /
                      std::max<double>(1.0, static_cast<double>(points_));
        };
        std::vector<Metric> out;
        for (const char *name :
             {"hilp.lower_us", "hilp.engine_us", "hilp.discretize_us",
              "cp.bounds_us", "cp.lp_bound_us", "cp.greedy_us",
              "cp.improve_us", "cp.solve_us", "cp.search_us",
              "sim.replay_us", "dse.record_us", "net.line_us"})
            out.push_back({name, mean(name), "us"});
        for (const char *name : {"cp.nodes_per_point", "cp.solves_per_point",
                                 "cp.probe_nodes_per_point"})
            out.push_back({name, mean(name), "count"});
        for (const char *name : {"dse.cache_hit_rate", "dse.warm_start_rate",
                                 "dse.pruned_rate"})
            out.push_back({name, mean(name), "ratio"});
        out.push_back({"service.memo_hit_rate",
                       memoLookups_ ? static_cast<double>(memoHits_) /
                                          static_cast<double>(memoLookups_)
                                    : 0.0,
                       "ratio"});
        return out;
    }

  private:
    /** Add the time fn takes to the named layer's sum. */
    template <typename Fn>
    double
    timed(const char *name, Fn &&fn)
    {
        double us = timeUs(std::forward<Fn>(fn));
        sums_[name] += us;
        return us;
    }

    void
    probePoint(const Inputs &inputs, const arch::SocConfig &config,
               const dse::DsePoint &point)
    {
        ProblemSpec spec;
        timed("hilp.lower_us", [&] {
            spec = buildProblem(inputs.workload, config, inputs.constraints,
                                options_.build);
        });

        // The whole adaptive engine, cold; the layer calls below run at
        // its final resolution.
        EvalResult result;
        timed("hilp.engine_us",
              [&] { result = evaluate(spec, options_.engine); });
        if (!result.ok)
            throw std::runtime_error("probe: no schedule for " +
                                     config.name());

        DiscretizedProblem problem;
        timed("hilp.discretize_us", [&] {
            problem = discretize(spec, result.stepS,
                                 options_.engine.horizonSteps);
        });
        const cp::Model &model = problem.model;
        const cp::SolverOptions &solver = options_.engine.solver;

        cp::LowerBounds bounds;
        double combinatorial_us = timed("cp.bounds_us", [&] {
            bounds = cp::computeLowerBounds(model, false);
        });
        double bounds_us = timeUs(
            [&] { bounds = cp::computeLowerBounds(model, true); });
        sums_["cp.lp_bound_us"] += std::max(0.0, bounds_us - combinatorial_us);

        cp::ListResult greedy;
        double greedy_us = timed("cp.greedy_us", [&] {
            greedy = cp::bestGreedy(model, solver.greedyRestarts,
                                    solver.seed);
        });
        // Incumbent improvement runs only when the greedy misses the
        // target gap, as inside the solver.
        double improve_us = 0.0;
        if (greedy.feasible && greedy.makespan > 0 &&
            static_cast<double>(greedy.makespan - bounds.best()) /
                    static_cast<double>(greedy.makespan) >
                solver.targetGap) {
            improve_us = timed("cp.improve_us", [&] {
                greedy = cp::improveGreedy(model, greedy,
                                           solver.lnsIterations,
                                           solver.seed + 1);
            });
        }

        // The full solve at this resolution: its time beyond the
        // bounds, greedy and improvement calls above is the
        // branch-and-bound search.
        cp::Result solved;
        double solve_us = timed(
            "cp.solve_us", [&] { solved = cp::Solver(solver).solve(model); });
        sums_["cp.search_us"] +=
            std::max(0.0, solve_us - bounds_us - greedy_us - improve_us);
        sums_["cp.probe_nodes_per_point"] +=
            static_cast<double>(solved.stats.nodes);

        sim::SimResult replay;
        timed("sim.replay_us",
              [&] { replay = sim::replaySchedule(spec, result.schedule); });
        if (!replay.ok)
            throw std::runtime_error("probe: replay failed for " +
                                     config.name());

        // The checkpoint / wire record, encoded and decoded.
        std::string line;
        bool parsed = false;
        timed("dse.record_us", [&] {
            line = dse::pointRecordJson(
                       dse::checkpointKey(point.fingerprint,
                                          config.name(),
                                          dse::ModelKind::Hilp),
                       dse::ModelKind::Hilp, point, &result.schedule)
                       .dump();
            uint64_t key = 0;
            dse::DsePoint decoded;
            Schedule schedule;
            bool has_schedule = false;
            parsed = dse::parsePointRecord(line, &key, &decoded, &schedule,
                                           &has_schedule);
        });
        if (!parsed)
            throw std::runtime_error("probe: record does not round-trip");

        // The record framed as one protocol line through a socket.
        std::string echoed;
        timed("net.line_us", [&] {
            if (!writer_->writeLine(line) || !reader_->readLine(&echoed))
                throw std::runtime_error("probe: socket framing failed");
        });
        if (echoed != line)
            throw std::runtime_error("probe: framed line differs");
        ++points_;
    }

    const dse::DseOptions options_;
    std::unique_ptr<net::LineChannel> writer_, reader_;
    std::map<std::string, double> sums_;
    int64_t memoHits_ = 0;
    int64_t memoLookups_ = 0;
    size_t points_ = 0;
};

// --- Driver ---------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

bool
parseArgs(int argc, char **argv, Args *args)
{
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        std::string value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            args->workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args->seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end && *end == '\0' && !value.empty();
        } else if (flag == "--seconds") {
            args->seconds = std::strtod(value.c_str(), &end);
            have_seconds = end && *end == '\0' && args->seconds > 0;
        } else if (flag == "--trace") {
            args->trace = value == "1";
            have_trace = value == "0" || value == "1";
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
           have_trace;
}

void
printMetric(bool *first, const std::string &name, double value,
            const char *unit)
{
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                *first ? "" : ", ", name.c_str(), value, unit);
    *first = false;
}

/**
 * What one set-up builds. The runner and checker refer to the inputs,
 * which are declared first so they are destroyed last.
 */
struct Stack
{
    std::unique_ptr<Inputs> inputs;
    std::unique_ptr<Runner> runner;
    std::unique_ptr<Checker> checker;
};

/**
 * Build the inputs and the service stack, and end with warm sweeps:
 * every slice the service workload will request, so its memo holds
 * them, or the fixed warm-up slice. Adds failed points to *failed.
 */
Stack
setUp(const Args &args, size_t *failed)
{
    Stack stack;
    stack.inputs = std::make_unique<Inputs>(makeInputs(args.seed));
    stack.runner = makeRunner(args.workload, *stack.inputs);
    if (!stack.runner)
        throw std::runtime_error("unknown workload '" + args.workload + "'");
    std::vector<SweepOutcome> warmed;
    if (args.workload == "service") {
        for (size_t i = 0; i < stack.runner->slices(); ++i)
            warmed.push_back(stack.runner->sweep(i));
    } else {
        warmed.push_back(stack.runner->sweep(kWarmup));
    }
    stack.checker = std::make_unique<Checker>(*stack.inputs);
    for (const SweepOutcome &outcome : warmed)
        *failed += stack.checker->check(outcome);
    return stack;
}

int
run(const Args &args)
{
    size_t failed = 0;
    std::unique_ptr<Ledger> ledger;
    if (args.trace)
        ledger = std::make_unique<Ledger>();

    // Whole passes over the slices, so every slice weighs the same in
    // every run whatever the pass time. Set-ups are spread over the
    // run - before each pass, as many as bring the count to its share
    // of the time gone - so setup_s samples the machine as the passes
    // do.
    Stack stack;
    std::vector<double> setups;
    std::vector<std::vector<double>> slice_ms;
    size_t passes = 0, attempted = 0;
    Clock::time_point start = Clock::now();
    while (passes == 0 || secondsSince(start) < args.seconds) {
        double share = secondsSince(start) / args.seconds;
        while (setups.size() <
               std::min(kSetups, 1 + static_cast<size_t>(share * kSetups))) {
            stack = Stack();
            Clock::time_point setup_start = Clock::now();
            Stack fresh = setUp(args, &failed);
            setups.push_back(secondsSince(setup_start));
            stack = std::move(fresh);
            slice_ms.resize(stack.runner->slices());
        }
        for (size_t slice = 0; slice < stack.runner->slices(); ++slice) {
            SweepOutcome outcome = stack.runner->sweep(slice);
            slice_ms[slice].push_back(outcome.seconds * 1e3);
            attempted += outcome.points.size();
            failed += stack.checker->check(outcome);
            if (ledger)
                ledger->probeSweep(*stack.inputs, outcome);
        }
        ++passes;
    }

    bool first = true;
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false", attempted, failed);
    if (ledger) {
        for (const Metric &metric : ledger->metrics())
            printMetric(&first, metric.name, metric.value, metric.unit);
    } else {
        // Each slice's fastest pass: noise from other load on the
        // machine only ever adds time, so the fastest repeat is the
        // steadiest estimate of what the program itself costs.
        double pass_ms = 0.0, pass_points = 0.0;
        for (size_t slice = 0; slice < slice_ms.size(); ++slice) {
            pass_ms += quantile(slice_ms[slice], 0.0);
            pass_points +=
                static_cast<double>(stack.inputs->configs(slice).size());
        }
        printMetric(&first, "points_per_s", pass_points / pass_ms * 1e3,
                    "1/s");
        printMetric(&first, "setup_s", quantile(setups, 0.5), "s");
    }
    std::printf("}}\n");
    std::fflush(stdout);
    std::fprintf(stderr,
                 "hilp_perf: %s seed %llu: %zu set-ups, %zu passes of %zu "
                 "sweeps, %zu points\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), setups.size(),
                 passes, slice_ms.size(), attempted);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: hilp_perf --workload explore|service "
                     "--seed N --seconds S --trace 0|1\n");
        return 2;
    }
    setLogLevel(LogLevel::Warn);
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hilp_perf: %s\n", e.what());
        return 1;
    }
}
