#include "report.hh"

#include <algorithm>
#include <cmath>

#include "hilp/problem.hh"
#include "support/metrics.hh"
#include "support/str.hh"
#include "support/version.hh"

namespace hilp {
namespace dse {

namespace {

/** Keep free-form notes from breaking the CSV row structure. */
std::string
csvSafe(std::string text)
{
    std::replace(text.begin(), text.end(), ',', ';');
    std::replace(text.begin(), text.end(), '\n', ' ');
    return text;
}

/**
 * A numeric CSV cell. Result-derived fields can be non-finite (an
 * infeasible point's gap is inf); printf would render those as
 * "inf"/"nan", which most CSV consumers choke on. An empty cell is
 * the CSV idiom for "no value".
 */
std::string
csvNum(double value, int precision)
{
    if (!std::isfinite(value))
        return std::string();
    return format("%.*f", precision, value);
}

/** A point's propagation-engine counters summed over propagators. */
struct PropTotals
{
    int64_t invocations = 0;
    int64_t prunings = 0;
    double seconds = 0.0;
};

PropTotals
propTotals(const DsePoint &point)
{
    PropTotals totals;
    for (const cp::PropagatorStats &stats : point.propagators) {
        totals.invocations += stats.invocations;
        totals.prunings += stats.prunings;
        totals.seconds += stats.seconds;
    }
    return totals;
}

} // anonymous namespace

std::string
pointsToCsv(const std::vector<DsePoint> &points)
{
    std::string out =
        "config,cpus,gpu_sms,dsas,pes,area_mm2,ok,makespan_s,"
        "speedup,avg_wlp,gap,mix,status,nodes,backtracks,solves,"
        "solve_s,cache_hit,warm_start,pruned,degraded,errored,"
        "resumed,propagations,prunings,prop_s,note\n";
    for (const DsePoint &point : points) {
        int pes = point.config.dsas.empty()
            ? 0 : point.config.dsas.front().pes;
        PropTotals props = propTotals(point);
        out += format("%s,%d,%d,%zu,%d,%.3f,%d,%s,%s,%s,%s,"
                      "%s,%s,%lld,%lld,%d,%s,%d,%d,%d,%d,%d,%d,"
                      "%lld,%lld,%.3f,%s\n",
                      point.config.name().c_str(),
                      point.config.cpuCores, point.config.gpuSms,
                      point.config.dsas.size(), pes, point.areaMm2,
                      point.ok ? 1 : 0,
                      csvNum(point.makespanS, 6).c_str(),
                      csvNum(point.speedup, 6).c_str(),
                      csvNum(point.averageWlp, 6).c_str(),
                      csvNum(point.gap, 6).c_str(),
                      toString(point.mix), cp::toString(point.status),
                      static_cast<long long>(point.nodes),
                      static_cast<long long>(point.backtracks),
                      point.solves,
                      csvNum(point.solveSeconds, 3).c_str(),
                      point.cacheHit ? 1 : 0,
                      point.warmStarted ? 1 : 0, point.pruned ? 1 : 0,
                      point.degraded ? 1 : 0, point.errored ? 1 : 0,
                      point.resumed ? 1 : 0,
                      static_cast<long long>(props.invocations),
                      static_cast<long long>(props.prunings),
                      props.seconds,
                      csvSafe(point.note).c_str());
    }
    return out;
}

Json
pointsToJson(const std::vector<DsePoint> &points)
{
    Json array = Json::array();
    for (const DsePoint &point : points) {
        Json entry = Json::object();
        entry.set("config", Json::string(point.config.name()));
        entry.set("cpus", Json::number(
            static_cast<int64_t>(point.config.cpuCores)));
        entry.set("gpu_sms", Json::number(
            static_cast<int64_t>(point.config.gpuSms)));
        entry.set("dsas", Json::number(
            static_cast<int64_t>(point.config.dsas.size())));
        entry.set("area_mm2", Json::number(point.areaMm2));
        entry.set("ok", Json::boolean(point.ok));
        entry.set("makespan_s", Json::number(point.makespanS));
        entry.set("speedup", Json::number(point.speedup));
        entry.set("avg_wlp", Json::number(point.averageWlp));
        entry.set("gap", Json::number(point.gap));
        entry.set("mix", Json::string(toString(point.mix)));
        entry.set("status", Json::string(cp::toString(point.status)));
        entry.set("nodes", Json::number(point.nodes));
        entry.set("backtracks", Json::number(point.backtracks));
        entry.set("solves", Json::number(
            static_cast<int64_t>(point.solves)));
        entry.set("solve_s", Json::number(point.solveSeconds));
        entry.set("cache_hit", Json::boolean(point.cacheHit));
        entry.set("warm_start", Json::boolean(point.warmStarted));
        entry.set("pruned", Json::boolean(point.pruned));
        entry.set("degraded", Json::boolean(point.degraded));
        entry.set("errored", Json::boolean(point.errored));
        entry.set("resumed", Json::boolean(point.resumed));
        Json propagators = Json::array();
        for (const cp::PropagatorStats &stats : point.propagators) {
            Json prop = Json::object();
            prop.set("name", Json::string(stats.name));
            prop.set("invocations", Json::number(stats.invocations));
            prop.set("prunings", Json::number(stats.prunings));
            prop.set("seconds", Json::number(stats.seconds));
            propagators.append(std::move(prop));
        }
        entry.set("propagators", std::move(propagators));
        entry.set("note", Json::string(point.note));
        array.append(std::move(entry));
    }
    return array;
}

SweepSummary
summarizeSweep(const std::vector<DsePoint> &points)
{
    SweepSummary summary;
    summary.points = static_cast<int>(points.size());
    for (const DsePoint &point : points) {
        if (point.ok)
            ++summary.ok;
        else if (point.errored)
            ++summary.errored; // A fault, not a verdict on the spec.
        else if (point.status == cp::SolveStatus::NoSolution &&
                 point.solves == 0 && !point.cacheHit)
            ++summary.infeasible;
        else
            ++summary.noSolution;
        if (point.cacheHit)
            ++summary.cacheHits;
        if (point.warmStarted)
            ++summary.warmStarted;
        if (point.pruned)
            ++summary.pruned;
        if (point.degraded)
            ++summary.degraded;
        if (point.resumed)
            ++summary.resumed;
        summary.solves += point.solves;
        summary.nodes += point.nodes;
        summary.backtracks += point.backtracks;
        summary.solveSeconds += point.solveSeconds;
        cp::mergePropagatorStats(summary.propagators,
                                 point.propagators);
    }
    return summary;
}

std::string
toString(const SweepSummary &summary)
{
    std::string out =
        format("%d points: %d ok, %d infeasible, %d unsolved | "
               "%d solves, %lld nodes, %lld backtracks, %.2fs | "
               "%d cache hits, %d warm starts, %d pruned",
               summary.points, summary.ok, summary.infeasible,
               summary.noSolution, summary.solves,
               static_cast<long long>(summary.nodes),
               static_cast<long long>(summary.backtracks),
               summary.solveSeconds, summary.cacheHits,
               summary.warmStarted, summary.pruned);
    // Robustness outcomes only appear when something actually
    // happened - the common all-clean sweep keeps the short line.
    if (summary.degraded || summary.errored || summary.resumed)
        out += format(" | %d degraded, %d errored, %d resumed",
                      summary.degraded, summary.errored,
                      summary.resumed);
    if (!summary.propagators.empty()) {
        out += " | propagation:";
        for (const cp::PropagatorStats &stats : summary.propagators) {
            out += format(" %s %lld/%lld", stats.name.c_str(),
                          static_cast<long long>(stats.invocations),
                          static_cast<long long>(stats.prunings));
        }
    }
    return out;
}

Json
toJson(const SweepSummary &summary)
{
    Json out = Json::object();
    out.set("points", Json::number(
        static_cast<int64_t>(summary.points)));
    out.set("ok", Json::number(static_cast<int64_t>(summary.ok)));
    out.set("infeasible", Json::number(
        static_cast<int64_t>(summary.infeasible)));
    out.set("no_solution", Json::number(
        static_cast<int64_t>(summary.noSolution)));
    out.set("cache_hits", Json::number(
        static_cast<int64_t>(summary.cacheHits)));
    out.set("warm_started", Json::number(
        static_cast<int64_t>(summary.warmStarted)));
    out.set("pruned", Json::number(
        static_cast<int64_t>(summary.pruned)));
    out.set("degraded", Json::number(
        static_cast<int64_t>(summary.degraded)));
    out.set("errored", Json::number(
        static_cast<int64_t>(summary.errored)));
    out.set("resumed", Json::number(
        static_cast<int64_t>(summary.resumed)));
    out.set("solves", Json::number(
        static_cast<int64_t>(summary.solves)));
    out.set("nodes", Json::number(summary.nodes));
    out.set("backtracks", Json::number(summary.backtracks));
    out.set("solve_s", Json::number(summary.solveSeconds));
    Json propagators = Json::array();
    for (const cp::PropagatorStats &stats : summary.propagators) {
        Json prop = Json::object();
        prop.set("name", Json::string(stats.name));
        prop.set("invocations", Json::number(stats.invocations));
        prop.set("prunings", Json::number(stats.prunings));
        prop.set("seconds", Json::number(stats.seconds));
        propagators.append(std::move(prop));
    }
    out.set("propagators", std::move(propagators));
    return out;
}

Json
sweepReportJson(const std::vector<DsePoint> &points)
{
    Json report = Json::object();
    report.set("version", versionJson());
    report.set("points", pointsToJson(points));
    report.set("summary", toJson(summarizeSweep(points)));
    report.set("metrics", metrics::snapshotJson());
    return report;
}

OffloadAnalysis
analyzeOffload(const Schedule &schedule)
{
    OffloadAnalysis analysis;
    for (const ScheduledPhase &phase : schedule.phases) {
        bool is_gpu = phase.unitLabel.rfind("GPU", 0) == 0;
        bool is_dsa = phase.unitLabel.rfind("DSA", 0) == 0;
        bool is_cpu_compute = phase.device == kCpuPool &&
            phase.unitLabel.rfind("CPUx", 0) == 0;
        if (is_gpu)
            analysis.gpuBusyS += phase.durationS;
        else if (is_dsa)
            analysis.dsaBusyS += phase.durationS;
        else if (is_cpu_compute)
            analysis.cpuComputeS += phase.durationS;
    }
    double accelerated = analysis.gpuBusyS + analysis.dsaBusyS;
    if (accelerated > 0.0)
        analysis.dsaShare = analysis.dsaBusyS / accelerated;
    return analysis;
}

} // namespace dse
} // namespace hilp
