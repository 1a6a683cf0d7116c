#include "checkpoint.hh"

#include <climits>
#include <cmath>

#include <unistd.h>

#include "support/hash.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/str.hh"

namespace hilp {
namespace dse {

namespace {

/** Inverse of cp::toString(SolveStatus). */
bool
statusFromString(const std::string &text, cp::SolveStatus *out)
{
    static const cp::SolveStatus kAll[] = {
        cp::SolveStatus::Optimal,     cp::SolveStatus::NearOptimal,
        cp::SolveStatus::Feasible,    cp::SolveStatus::Infeasible,
        cp::SolveStatus::NoSolution,
    };
    for (cp::SolveStatus status : kAll) {
        if (text == cp::toString(status)) {
            *out = status;
            return true;
        }
    }
    return false;
}

/** 64-bit key rendered as a fixed-width hex string. JSON numbers are
 * doubles and cannot carry a uint64_t exactly, so keys travel as
 * strings. */
std::string
keyText(uint64_t key)
{
    return format("%016llx", static_cast<unsigned long long>(key));
}

bool
parseKeyText(const std::string &text, uint64_t *out)
{
    if (text.empty() || text.size() > 16)
        return false;
    uint64_t value = 0;
    for (char c : text) {
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else
            return false;
        value = (value << 4) | static_cast<uint64_t>(digit);
    }
    *out = value;
    return true;
}

/**
 * Serialize a schedule compactly: scalars plus one fixed-layout
 * array per phase (field order matters; see parseSchedule).
 */
Json
scheduleJson(const Schedule &schedule)
{
    Json out = Json::object();
    out.set("step_s", Json::number(schedule.stepS));
    out.set("cpu_cores", Json::number(schedule.cpuCores));
    Json devices = Json::array();
    for (const std::string &name : schedule.deviceNames)
        devices.append(Json::string(name));
    out.set("devices", std::move(devices));
    Json phases = Json::array();
    for (const ScheduledPhase &phase : schedule.phases) {
        Json row = Json::array();
        row.append(Json::number(static_cast<int64_t>(phase.app)));
        row.append(Json::number(static_cast<int64_t>(phase.phase)));
        row.append(Json::string(phase.name));
        row.append(Json::number(static_cast<int64_t>(phase.option)));
        row.append(Json::string(phase.unitLabel));
        row.append(Json::number(static_cast<int64_t>(phase.device)));
        row.append(
            Json::number(static_cast<int64_t>(phase.startStep)));
        row.append(
            Json::number(static_cast<int64_t>(phase.durationSteps)));
        row.append(Json::number(phase.startS));
        row.append(Json::number(phase.durationS));
        row.append(Json::number(phase.powerW));
        row.append(Json::number(phase.bwGBs));
        row.append(Json::number(phase.cpuCores));
        phases.append(std::move(row));
    }
    out.set("phases", std::move(phases));
    return out;
}

/**
 * Inverse of scheduleJson; false on any structural mismatch or a
 * member of the wrong kind. Columns 2 and 4 are strings, the other
 * columns up to 7 integers that fit an int, the rest numbers.
 */
bool
parseSchedule(const Json &entry, Schedule *out)
{
    if (!entry.isObject())
        return false;
    *out = Schedule{};
    if (!readField(entry, "step_s", &out->stepS) ||
        !readField(entry, "cpu_cores", &out->cpuCores))
        return false;
    if (const Json *devices = entry.find("devices")) {
        if (!devices->isArray())
            return false;
        for (size_t i = 0; i < devices->size(); ++i) {
            if (!devices->at(i).isString())
                return false;
            out->deviceNames.push_back(devices->at(i).stringValue());
        }
    }
    const Json *phases = entry.find("phases");
    if (!phases || !phases->isArray())
        return false;
    for (size_t i = 0; i < phases->size(); ++i) {
        const Json &row = phases->at(i);
        if (!row.isArray() || row.size() != 13)
            return false;
        for (size_t f = 0; f < row.size(); ++f) {
            const Json &cell = row.at(f);
            bool fits = f == 2 || f == 4 ? cell.isString()
                : f <= 7 ? cell.isInteger() &&
                           cell.intValue() >= INT_MIN &&
                           cell.intValue() <= INT_MAX
                : cell.isNumber();
            if (!fits)
                return false;
        }
        ScheduledPhase phase;
        phase.app = static_cast<int>(row.at(0).intValue());
        phase.phase = static_cast<int>(row.at(1).intValue());
        phase.name = row.at(2).stringValue();
        phase.option = static_cast<int>(row.at(3).intValue());
        phase.unitLabel = row.at(4).stringValue();
        phase.device = static_cast<int>(row.at(5).intValue());
        phase.startStep = static_cast<cp::Time>(row.at(6).intValue());
        phase.durationSteps =
            static_cast<cp::Time>(row.at(7).intValue());
        phase.startS = row.at(8).numberValue();
        phase.durationS = row.at(9).numberValue();
        phase.powerW = row.at(10).numberValue();
        phase.bwGBs = row.at(11).numberValue();
        phase.cpuCores = row.at(12).numberValue();
        out->phases.push_back(std::move(phase));
    }
    return true;
}

} // anonymous namespace

bool
parsePointRecord(const std::string &line, uint64_t *key,
                 DsePoint *point, Schedule *schedule,
                 bool *has_schedule, std::string *config_name)
{
    Json entry;
    return Json::parse(line, &entry) &&
        parsePointRecord(entry, key, point, schedule, has_schedule,
                         config_name);
}

bool
parsePointRecord(const Json &entry, uint64_t *key, DsePoint *point,
                 Schedule *schedule, bool *has_schedule,
                 std::string *config_name)
{
    if (!entry.isObject())
        return false;
    // An absent member keeps its default; a present one of the wrong
    // kind or out of range drops the whole record, so a record this
    // program would not have written is never read as a default or a
    // truncated value.
    std::string key_text;
    std::string config;
    if (!readField(entry, "key", &key_text) ||
        !parseKeyText(key_text, key) ||
        !readField(entry, "config", &config))
        return false;

    *point = DsePoint{};
    // Absent, these two keep the defaults they are set to here.
    std::string fingerprint = "0";
    std::string status = cp::toString(point->status);
    if (!readField(entry, "fingerprint", &fingerprint) ||
        !parseKeyText(fingerprint, &point->fingerprint) ||
        !readField(entry, "status", &status) ||
        !statusFromString(status, &point->status) ||
        !readField(entry, "note", &point->note))
        return false;
    if (!readField(entry, "ok", &point->ok) ||
        !readField(entry, "degraded", &point->degraded) ||
        !readField(entry, "cache_hit", &point->cacheHit) ||
        !readField(entry, "warm_start", &point->warmStarted) ||
        !readField(entry, "pruned", &point->pruned))
        return false;
    if (!readField(entry, "makespan_s", &point->makespanS) ||
        point->makespanS < 0.0 ||
        !readField(entry, "speedup", &point->speedup) ||
        point->speedup < 0.0 ||
        !readField(entry, "gap", &point->gap) || point->gap < 0.0 ||
        point->gap > 1.0 ||
        !readField(entry, "avg_wlp", &point->averageWlp) ||
        point->averageWlp < 0.0 ||
        !readField(entry, "solve_s", &point->solveSeconds) ||
        point->solveSeconds < 0.0)
        return false;
    int64_t solves = 0;
    // The trace id is a uint64 carried as an int64.
    int64_t trace_id = 0;
    if (!readField(entry, "nodes", &point->nodes) ||
        point->nodes < 0 ||
        !readField(entry, "backtracks", &point->backtracks) ||
        point->backtracks < 0 ||
        !readField(entry, "solves", &solves) || solves < 0 ||
        solves > INT_MAX ||
        !readField(entry, "trace_id", &trace_id))
        return false;
    point->solves = static_cast<int>(solves);
    point->traceId = static_cast<uint64_t>(trace_id);
    if (config_name)
        *config_name = std::move(config);

    // The schedule is optional (older records and the analytic
    // models have none); a malformed one degrades to "no schedule"
    // rather than dropping the whole record.
    *has_schedule = false;
    if (const Json *sched = entry.find("schedule")) {
        Schedule discard;
        *has_schedule =
            parseSchedule(*sched, schedule ? schedule : &discard);
    }
    return true;
}

Json
pointRecordJson(uint64_t key, ModelKind kind, const DsePoint &point,
                const Schedule *schedule)
{
    Json entry = Json::object();
    entry.set("key", Json::string(keyText(key)));
    entry.set("model", Json::string(toString(kind)));
    entry.set("config", Json::string(point.config.name()));
    entry.set("fingerprint",
              Json::string(keyText(point.fingerprint)));
    entry.set("ok", Json::boolean(point.ok));
    entry.set("status", Json::string(cp::toString(point.status)));
    entry.set("makespan_s", Json::number(point.makespanS));
    entry.set("speedup", Json::number(point.speedup));
    entry.set("gap", Json::number(point.gap));
    entry.set("avg_wlp", Json::number(point.averageWlp));
    entry.set("note", Json::string(point.note));
    entry.set("degraded", Json::boolean(point.degraded));
    entry.set("nodes", Json::number(point.nodes));
    entry.set("backtracks", Json::number(point.backtracks));
    entry.set("solves",
              Json::number(static_cast<int64_t>(point.solves)));
    entry.set("solve_s", Json::number(point.solveSeconds));
    entry.set("cache_hit", Json::boolean(point.cacheHit));
    entry.set("warm_start", Json::boolean(point.warmStarted));
    entry.set("pruned", Json::boolean(point.pruned));
    if (point.traceId != 0)
        entry.set("trace_id",
                  Json::number(static_cast<int64_t>(point.traceId)));
    if (schedule)
        entry.set("schedule", scheduleJson(*schedule));
    return entry;
}

uint64_t
checkpointKey(uint64_t fingerprint, const std::string &config_name,
              ModelKind kind)
{
    Hasher hasher;
    hasher.u64(fingerprint);
    hasher.str(config_name);
    hasher.str(toString(kind));
    return hasher.digest();
}

SweepCheckpoint::~SweepCheckpoint()
{
    close();
}

void
SweepCheckpoint::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

bool
SweepCheckpoint::open(const std::string &path, bool resume,
                      std::string *error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    hilp_assert(!file_);
    entries_.clear();
    schedules_.clear();
    dropped_ = 0;
    bool torn_tail = false;

    if (resume) {
        // Load whatever a previous run managed to flush. A missing
        // file is a cold start, not an error; malformed records -
        // the torn final line a SIGKILL leaves, or damaged interior
        // lines in a merged ledger - are skipped and counted, never
        // fatal.
        if (std::FILE *in = std::fopen(path.c_str(), "r")) {
            std::string line;
            size_t dropped = 0;
            char buffer[4096];
            bool at_eof = false;
            while (!at_eof) {
                size_t got = std::fread(buffer, 1, sizeof(buffer), in);
                at_eof = got < sizeof(buffer);
                for (size_t i = 0; i < got; ++i) {
                    if (buffer[i] != '\n') {
                        line += buffer[i];
                        continue;
                    }
                    uint64_t key;
                    DsePoint point;
                    Schedule schedule;
                    bool has_schedule = false;
                    if (!line.empty()) {
                        if (parsePointRecord(line, &key, &point,
                                             &schedule,
                                             &has_schedule)) {
                            entries_[key] = std::move(point);
                            if (has_schedule)
                                schedules_[key] =
                                    std::move(schedule);
                        } else {
                            ++dropped;
                        }
                    }
                    line.clear();
                }
            }
            // A record is only durable once its newline landed; any
            // trailing partial line is from an interrupted write.
            if (!line.empty()) {
                ++dropped;
                torn_tail = true;
            }
            std::fclose(in);
            dropped_ = dropped;
            if (dropped > 0)
                warn("checkpoint %s: dropped %zu malformed record(s)",
                     path.c_str(), dropped);
        }
    }

    file_ = std::fopen(path.c_str(), resume ? "a" : "w");
    if (!file_) {
        if (error)
            *error = format("cannot open checkpoint '%s' for writing",
                            path.c_str());
        entries_.clear();
        schedules_.clear();
        return false;
    }
    // Seal a torn final line before appending, or the next record
    // would fuse with the partial one into a single corrupt line.
    if (torn_tail)
        std::fputc('\n', file_);
    return true;
}

size_t
SweepCheckpoint::loaded() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

size_t
SweepCheckpoint::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

void
SweepCheckpoint::setFsync(bool on)
{
    std::lock_guard<std::mutex> lock(mutex_);
    fsync_ = on;
}

bool
SweepCheckpoint::lookup(uint64_t key, DsePoint *out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end())
        return false;
    *out = it->second;
    out->resumed = true;
    return true;
}

bool
SweepCheckpoint::lookupSchedule(uint64_t key, Schedule *out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = schedules_.find(key);
    if (it == schedules_.end())
        return false;
    *out = it->second;
    return true;
}

void
SweepCheckpoint::record(uint64_t key, ModelKind kind,
                        const DsePoint &point,
                        const Schedule *schedule)
{
    std::string line =
        pointRecordJson(key, kind, point, schedule).dump();
    line += '\n';

    std::lock_guard<std::mutex> lock(mutex_);
    if (!file_)
        return;
    std::fwrite(line.data(), 1, line.size(), file_);
    // One flush per completed point: a kill loses only in-flight
    // work, and a solve dwarfs the cost of the write.
    std::fflush(file_);
    // With fsync on, the record also survives a host crash - the
    // durability an acknowledged coordinator submit promises.
    if (fsync_)
        ::fsync(fileno(file_));
}

} // namespace dse
} // namespace hilp
