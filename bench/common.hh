/**
 * @file
 * Shared plumbing for the experiment harnesses. Each bench binary
 * regenerates one table or figure of the paper: it prints the same
 * rows/series the paper reports (plus our measured values) and then
 * runs a few google-benchmark timings of the underlying solves.
 */

#ifndef HILP_BENCH_COMMON_HH
#define HILP_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "arch/design_space.hh"
#include "arch/soc.hh"
#include "dse/explore.hh"
#include "hilp/engine.hh"
#include "workload/rodinia.hh"

namespace hilp {
namespace bench {

/**
 * Parse and strip the harness's own observability flags before the
 * benchmark library sees argv. Every bench binary calls this first:
 *
 *   --trace-out=FILE    enable tracing; at exit, write the Chrome
 *                       trace-event JSON to FILE (open in Perfetto
 *                       at https://ui.perfetto.dev). The pid is
 *                       stamped into the name (x.json -> x.<pid>.json)
 *                       so concurrent processes never share a file.
 *   --metrics-out=FILE  at exit, write the metrics-registry snapshot
 *                       (counters/gauges/histograms) to FILE as JSON.
 *   --solver-threads=N  branch-and-bound worker threads for every
 *                       solve the harness runs (1 = serial, the
 *                       default; 0 = borrow from the thread budget;
 *                       at most 256).
 *   --checkpoint=FILE   append completed sweep points to FILE (JSONL)
 *                       as they finish, so an interrupted sweep can
 *                       be resumed.
 *   --resume            with --checkpoint: load FILE first and skip
 *                       points a previous run already completed.
 *   --point-timeout=S   whole-evaluation deadline per design point in
 *                       seconds (0 = none, the default; at most 1e6);
 *                       on expiry the point degrades to its best
 *                       incumbent (still with a certified gap)
 *                       instead of failing.
 *   --connect=ADDR      route sweeps to a running hilpd daemon at
 *                       ADDR (unix:/path or tcp:host:port) instead
 *                       of evaluating in-process; see runSweep().
 *   --coordinator=ADDR  host a distributed-sweep coordinator at ADDR
 *                       (see dse/distribute.hh): every runSweep
 *                       sweep is sharded into similarity-chain work
 *                       units leased to workers, whose streamed
 *                       records merge into the same points the
 *                       in-process sweep computes. Takes precedence
 *                       over --connect.
 *   --worker            run as a distributed-sweep worker against
 *                       the daemon at --coordinator=ADDR: lease
 *                       units, evaluate, stream results, exit when
 *                       the coordinator retires. The harness exits
 *                       inside initHarness; no figure code runs.
 *   --spawn-workers=N   with --coordinator: fork+exec N workers (at
 *                       most 256) of this same binary ("--worker");
 *                       their pids are announced on stderr ("spawned
 *                       worker P") and reaped at exit.
 *   --lease-timeout=S   with --coordinator: a lease not refreshed
 *                       within S seconds (0.1 to 1e6) is re-issued
 *                       (default 30).
 *   --fsync-checkpoint  fsync the --checkpoint file after every
 *                       record (the coordinator's merged ledger, or
 *                       an in-process sweep's checkpoint).
 *   --metrics-addr=ADDR serve this process's metrics registry live
 *                       over HTTP (GET /metrics Prometheus text,
 *                       /metrics.json, /healthz) while it runs -
 *                       the same endpoint hilpd --metrics-addr
 *                       exposes.
 *   --no-reuse          run every solve cold (disable warm-start
 *                       chains, the solve cache, and dominance
 *                       pruning) in runSweep sweeps.
 *   --max-configs=N     truncate runSweep design spaces to their
 *                       first N configurations (smoke runs / CI; 0,
 *                       the default, keeps them whole; at most 2^20).
 *   --memo-bytes=N      byte cap (K/M/G suffixes accepted) for the
 *                       solve memo of in-process sweeps; 0 keeps the
 *                       service default (256 MiB). A malformed value
 *                       is fatal.
 *   --version           print the build version (git describe +
 *                       build type) and exit.
 *
 * A numeric flag whose value is malformed or out of its range is
 * fatal, naming the flag.
 *
 * Both dumps run through atexit so they capture everything, including
 * the google-benchmark timing loops at the end of main.
 */
void initHarness(int *argc, char **argv);

/** The --solver-threads value (default 1 = serial search). */
int solverThreads();

/** The --point-timeout value in seconds (0 = no per-point deadline). */
double pointTimeoutS();

/** The --connect address ("" = evaluate in-process). */
const std::string &connectAddress();

/** True when --no-reuse was passed. */
bool noReuse();

/** The --max-configs value (0 = the full design space). */
size_t maxConfigs();

/**
 * The process-wide sweep checkpoint, opened lazily from --checkpoint
 * / --resume on first call (fatal if the file cannot be opened).
 * Null when no --checkpoint was given.
 */
dse::SweepCheckpoint *sweepCheckpoint();

/** Print a figure/table banner. */
void banner(const std::string &title, const std::string &description);

/** Print a section sub-header. */
void section(const std::string &title);

/**
 * Engine options for the validation experiments (Section V): the
 * paper's validation-mode resolution with a per-solve search budget.
 */
EngineOptions validationEngine(double solver_seconds = 8.0);

/**
 * DSE options for the exploration experiments (Section VI): the
 * paper's exploration-mode resolution with a tighter budget, since
 * hundreds of configurations are evaluated.
 */
dse::DseOptions explorationOptions(double solver_seconds = 1.0);

/** The Section VI design space (372 configs) for a DSA advantage. */
std::vector<arch::SocConfig> paperDesignSpace(double advantage = 4.0);

/**
 * Run one sweep through the evaluation service: against the
 * process-wide in-process EvalService by default, or a hilpd daemon
 * when --connect was given. Applies the harness's --no-reuse and
 * --checkpoint settings to `options` itself. `variant`, `copies`,
 * and `advantage` describe the workload and design space on the wire
 * (the daemon rebuilds both from names); `wl` and `configs` must
 * match them. Daemon failures are fatal - a sweep silently falling
 * back in-process would defeat the point of --connect runs.
 */
std::vector<dse::DsePoint> runSweep(
    const std::vector<arch::SocConfig> &configs,
    const workload::Workload &wl,
    const arch::Constraints &constraints, dse::ModelKind kind,
    dse::DseOptions options,
    workload::Variant variant = workload::Variant::Default,
    int copies = 1, double advantage = 4.0);

/**
 * Print a Pareto front as a table: config, area, speedup, WLP, gap,
 * accelerator mix.
 */
void printPareto(const std::string &title,
                 const std::vector<dse::DsePoint> &points);

/** Extract the Pareto-optimal points (min area, max speedup). */
std::vector<dse::DsePoint> paretoOf(
    const std::vector<dse::DsePoint> &points);

/** The highest-speedup point (among ok points); ok=false if none. */
dse::DsePoint bestOf(const std::vector<dse::DsePoint> &points);

} // namespace bench
} // namespace hilp

#endif // HILP_BENCH_COMMON_HH
