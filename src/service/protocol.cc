#include "protocol.hh"

#include <limits>

#include "arch/parse.hh"
#include "hilp/options.hh"
#include "support/str.hh"

namespace hilp {
namespace service {
namespace protocol {

namespace {

/**
 * Most workload copies a request may ask for: the daemon builds every
 * copy, and no caller sends more than one.
 */
constexpr int kMaxCopies = 64;

/** Report `message` through `error` (when given) and fail. */
bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

} // anonymous namespace

const char *
toString(Op op)
{
    switch (op) {
      case Op::Eval:
        return "eval";
      case Op::Sweep:
        return "sweep";
      case Op::Stats:
        return "stats";
      case Op::Shutdown:
        return "shutdown";
      case Op::Lease:
        return "lease";
      case Op::Submit:
        return "submit";
      case Op::Heartbeat:
        return "heartbeat";
      case Op::Drain:
        return "drain";
    }
    return "unknown";
}

bool
parseModelKind(const std::string &name, dse::ModelKind *out)
{
    if (name == "MA")
        *out = dse::ModelKind::MultiAmdahl;
    else if (name == "HILP")
        *out = dse::ModelKind::Hilp;
    else if (name == "Gables")
        *out = dse::ModelKind::Gables;
    else
        return false;
    return true;
}

bool
parseVariant(const std::string &name, workload::Variant *out)
{
    if (name == "Rodinia")
        *out = workload::Variant::Rodinia;
    else if (name == "Default")
        *out = workload::Variant::Default;
    else if (name == "Optimized")
        *out = workload::Variant::Optimized;
    else
        return false;
    return true;
}

Json
constraintsJson(const arch::Constraints &constraints)
{
    Json json = Json::object();
    json.set("power_budget_w",
             Json::number(constraints.powerBudgetW));
    Json memory = Json::object();
    memory.set("bandwidth_gbs",
               Json::number(constraints.memory.bandwidthGBs));
    memory.set("pj_per_bit", Json::number(constraints.memory.pjPerBit));
    json.set("memory", memory);
    if (!constraints.cacheLevels.empty()) {
        Json levels = Json::array();
        for (const arch::CacheLevel &level : constraints.cacheLevels) {
            Json entry = Json::object();
            entry.set("name", Json::string(level.name));
            entry.set("bandwidth_gbs",
                      Json::number(level.bandwidthGBs));
            entry.set("traffic_amplification",
                      Json::number(level.trafficAmplification));
            levels.append(entry);
        }
        json.set("cache_levels", levels);
    }
    return json;
}

bool
parseConstraints(const Json &json, arch::Constraints *out,
                 std::string *error)
{
    if (!json.isObject())
        return fail(error, "constraints must be an object");
    // Every field must be a number (a cache level's name a string),
    // and the budgets positive; a bad one is named.
    auto bad = [error](const char *field) {
        return fail(error,
                    format("constraints out of range: %s", field));
    };
    if (!readField(json, "power_budget_w", &out->powerBudgetW) ||
        out->powerBudgetW <= 0.0)
        return bad("power_budget_w");
    const Json *memory = json.find("memory");
    if (memory) {
        if (!memory->isObject())
            return bad("memory");
        if (!readField(*memory, "bandwidth_gbs",
                       &out->memory.bandwidthGBs) ||
            out->memory.bandwidthGBs <= 0.0)
            return bad("memory.bandwidth_gbs");
        if (!readField(*memory, "pj_per_bit", &out->memory.pjPerBit))
            return bad("memory.pj_per_bit");
    }
    const Json *levels = json.find("cache_levels");
    if (levels) {
        if (!levels->isArray())
            return fail(error, "cache_levels must be an array");
        out->cacheLevels.clear();
        for (size_t i = 0; i < levels->size(); ++i) {
            const Json &entry = levels->at(i);
            if (!entry.isObject())
                return fail(error,
                            "cache_levels entries must be objects");
            arch::CacheLevel level;
            if (!readField(entry, "name", &level.name))
                return bad("cache_levels.name");
            if (!readField(entry, "bandwidth_gbs", &level.bandwidthGBs))
                return bad("cache_levels.bandwidth_gbs");
            if (!readField(entry, "traffic_amplification",
                           &level.trafficAmplification))
                return bad("cache_levels.traffic_amplification");
            out->cacheLevels.push_back(std::move(level));
        }
    }
    return true;
}

Json
sweepParamsJson(const Request &request)
{
    Json json = Json::object();

    Json wl = Json::object();
    wl.set("variant",
           Json::string(workload::toString(request.variant)));
    wl.set("copies",
           Json::number(static_cast<int64_t>(request.copies)));
    json.set("workload", wl);

    json.set("dsa_advantage", Json::number(request.dsaAdvantage));
    json.set("model", Json::string(dse::toString(request.kind)));
    json.set("constraints", constraintsJson(request.constraints));

    Json options = Json::object();
    options.set("engine", engineOptionsJson(request.options.engine));
    options.set("threads",
                Json::number(
                    static_cast<int64_t>(request.options.threads)));
    options.set("reuse", Json::boolean(request.options.reuse));
    json.set("options", options);
    return json;
}

bool
parseSweepParams(const Json &json, Request *out, std::string *error)
{
    if (!json.isObject())
        return fail(error, "sweep params must be a JSON object");

    const Json *wl = json.find("workload");
    if (wl) {
        if (!wl->isObject())
            return fail(error, "\"workload\" must be an object");
        std::string variant = "Default";
        if (!readField(*wl, "variant", &variant))
            return fail(error, "workload variant must be a string");
        if (!parseVariant(variant, &out->variant))
            return fail(error, format("unknown workload variant \"%s\"",
                                      variant.c_str()));
        // Range-checked as int64 before narrowing, so an
        // out-of-range value cannot wrap into an accepted one.
        int64_t copies = out->copies;
        if (!readField(*wl, "copies", &copies) || copies < 1 ||
            copies > kMaxCopies)
            return fail(error,
                        format("workload copies out of range [1, %d]",
                               kMaxCopies));
        out->copies = static_cast<int>(copies);
    }

    if (!readField(json, "dsa_advantage", &out->dsaAdvantage) ||
        out->dsaAdvantage <= 0.0)
        return fail(error, "dsa_advantage must be a positive number");

    std::string model = "HILP";
    if (!readField(json, "model", &model))
        return fail(error, "model must be a string");
    if (!parseModelKind(model, &out->kind))
        return fail(error, format("unknown model \"%s\"", model.c_str()));

    const Json *constraints = json.find("constraints");
    if (constraints &&
        !parseConstraints(*constraints, &out->constraints, error))
        return false;

    const Json *options = json.find("options");
    if (options) {
        if (!options->isObject())
            return fail(error, "\"options\" must be an object");
        const Json *engine = options->find("engine");
        if (engine &&
            !parseEngineOptions(*engine, &out->options.engine, error))
            return false;
        int64_t threads = out->options.threads;
        if (!readField(*options, "threads", &threads) || threads < 0 ||
            threads > cp::kMaxThreads)
            return fail(error, "sweep options out of range: threads");
        out->options.threads = static_cast<int>(threads);
        if (!readField(*options, "reuse", &out->options.reuse))
            return fail(error, "sweep options out of range: reuse");
    }
    return true;
}

std::string
encodeRequest(const Request &request)
{
    Json json = Json::object();
    json.set("op", Json::string(toString(request.op)));
    if (request.op == Op::Stats || request.op == Op::Shutdown ||
        request.op == Op::Drain)
        return json.dump();

    if (request.op == Op::Lease || request.op == Op::Submit ||
        request.op == Op::Heartbeat) {
        json.set("worker", Json::string(request.worker));
        if (request.op != Op::Lease)
            json.set("lease",
                     Json::number(
                         static_cast<int64_t>(request.leaseId)));
        if (request.op == Op::Submit) {
            Json records = Json::array();
            for (const Json &record : request.records)
                records.append(record);
            json.set("records", records);
            json.set("complete", Json::boolean(request.complete));
        }
        return json.dump();
    }

    Json configs = Json::array();
    for (const std::string &name : request.configNames)
        configs.append(Json::string(name));
    json.set("configs", configs);

    // The shared sweep body is exactly the lease-grant "params"
    // payload: one writer serves both.
    Json params = sweepParamsJson(request);
    for (const auto &[key, value] : params.members())
        json.set(key, value);

    json.set("priority",
             Json::number(static_cast<int64_t>(request.priority)));
    return json.dump();
}

bool
parseRequest(const std::string &line, Request *out, std::string *error)
{
    Json json;
    std::string parse_error;
    if (!Json::parse(line, &json, &parse_error)) {
        if (error)
            *error = format("bad request JSON: %s",
                            parse_error.c_str());
        return false;
    }
    if (!json.isObject()) {
        if (error)
            *error = "request must be a JSON object";
        return false;
    }
    std::string op;
    if (!readField(json, "op", &op))
        return fail(error, "\"op\" must be a string");
    if (op == "eval")
        out->op = Op::Eval;
    else if (op == "sweep")
        out->op = Op::Sweep;
    else if (op == "stats")
        out->op = Op::Stats;
    else if (op == "shutdown")
        out->op = Op::Shutdown;
    else if (op == "lease")
        out->op = Op::Lease;
    else if (op == "submit")
        out->op = Op::Submit;
    else if (op == "heartbeat")
        out->op = Op::Heartbeat;
    else if (op == "drain")
        out->op = Op::Drain;
    else {
        if (error)
            *error = format("unknown op \"%s\"", op.c_str());
        return false;
    }
    if (out->op == Op::Stats || out->op == Op::Shutdown ||
        out->op == Op::Drain)
        return true;

    if (out->op == Op::Lease || out->op == Op::Submit ||
        out->op == Op::Heartbeat) {
        out->worker.clear();
        if (!readField(json, "worker", &out->worker))
            return fail(error, "\"worker\" must be a string");
        if (out->worker.empty())
            return fail(error, "request needs a \"worker\" identity");
        if (out->op == Op::Lease)
            return true;
        int64_t lease = 0;
        if (!readField(json, "lease", &lease) || lease <= 0)
            return fail(error,
                        "request needs a positive integer \"lease\" id");
        out->leaseId = static_cast<uint64_t>(lease);
        if (out->op == Op::Heartbeat)
            return true;
        out->records.clear();
        const Json *records = json.find("records");
        if (!records || !records->isArray()) {
            if (error)
                *error = "submit needs a \"records\" array";
            return false;
        }
        for (size_t i = 0; i < records->size(); ++i) {
            if (!records->at(i).isObject()) {
                if (error)
                    *error = "submit records must be objects";
                return false;
            }
            out->records.push_back(records->at(i));
        }
        out->complete = false;
        if (!readField(json, "complete", &out->complete))
            return fail(error, "\"complete\" must be a boolean");
        return true;
    }

    const Json *configs = json.find("configs");
    if (!configs || !configs->isArray() || configs->size() == 0) {
        if (error)
            *error = "request needs a non-empty \"configs\" array";
        return false;
    }
    out->configNames.clear();
    for (size_t i = 0; i < configs->size(); ++i) {
        if (!configs->at(i).isString()) {
            if (error)
                *error = "config labels must be strings";
            return false;
        }
        out->configNames.push_back(configs->at(i).stringValue());
    }
    if (out->op == Op::Eval && out->configNames.size() != 1) {
        if (error)
            *error = "eval takes exactly one config";
        return false;
    }

    // The shared sweep body is exactly the lease-grant "params"
    // payload: one parser serves both.
    if (!parseSweepParams(json, out, error))
        return false;

    int64_t priority = out->priority;
    if (!readField(json, "priority", &priority) ||
        priority < std::numeric_limits<int>::min() ||
        priority > std::numeric_limits<int>::max())
        return fail(error, "request priority out of int range");
    out->priority = static_cast<int>(priority);
    return true;
}

bool
toSweepRequest(const Request &request, SweepRequest *out,
               std::string *error)
{
    std::vector<int> priority = workload::dsaPriorityOrder();
    out->configs.clear();
    out->configs.reserve(request.configNames.size());
    for (const std::string &name : request.configNames) {
        arch::SocParseResult parsed =
            arch::parseSocName(name, priority, request.dsaAdvantage);
        if (!parsed.ok) {
            if (error)
                *error = format("bad config \"%s\": %s", name.c_str(),
                                parsed.error.c_str());
            return false;
        }
        out->configs.push_back(std::move(parsed.config));
    }
    out->workload = workload::makeWorkload(request.variant,
                                           request.copies);
    out->constraints = request.constraints;
    out->kind = request.kind;
    out->options = request.options;
    return true;
}

std::string
encodeDone(bool ok, const std::string &error, size_t points,
           uint64_t trace_id)
{
    Json json = Json::object();
    json.set("type", Json::string("done"));
    json.set("ok", Json::boolean(ok));
    if (!error.empty())
        json.set("error", Json::string(error));
    if (points > 0)
        json.set("points",
                 Json::number(static_cast<int64_t>(points)));
    if (trace_id != 0)
        json.set("trace_id",
                 Json::number(static_cast<int64_t>(trace_id)));
    return json.dump();
}

std::string
encodeStats(Json stats)
{
    Json json = Json::object();
    json.set("type", Json::string("stats"));
    json.set("stats", std::move(stats));
    return json.dump();
}

std::string
encodeLeaseGrant(uint64_t lease_id, size_t unit, double expires_s,
                 const std::vector<std::string> &configs,
                 const Json &params)
{
    Json json = Json::object();
    json.set("type", Json::string("lease"));
    json.set("lease",
             Json::number(static_cast<int64_t>(lease_id)));
    json.set("unit", Json::number(static_cast<int64_t>(unit)));
    json.set("expires_s", Json::number(expires_s));
    Json names = Json::array();
    for (const std::string &name : configs)
        names.append(Json::string(name));
    json.set("configs", names);
    json.set("params", params);
    return json.dump();
}

std::string
encodeLeaseWait()
{
    Json json = Json::object();
    json.set("type", Json::string("wait"));
    return json.dump();
}

std::string
encodeLeaseComplete()
{
    Json json = Json::object();
    json.set("type", Json::string("complete"));
    return json.dump();
}

std::string
encodeAck(bool ok, size_t accepted, size_t duplicates)
{
    Json json = Json::object();
    json.set("type", Json::string("ack"));
    json.set("ok", Json::boolean(ok));
    json.set("accepted",
             Json::number(static_cast<int64_t>(accepted)));
    json.set("duplicates",
             Json::number(static_cast<int64_t>(duplicates)));
    return json.dump();
}

std::string
encodeProgress(Json progress)
{
    Json json = Json::object();
    json.set("type", Json::string("progress"));
    json.set("progress", std::move(progress));
    return json.dump();
}

} // namespace protocol
} // namespace service
} // namespace hilp
