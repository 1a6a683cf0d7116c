#include "client.hh"

#include <unordered_map>

#include "dse/checkpoint.hh"
#include "support/str.hh"

namespace hilp {
namespace service {

bool
ServiceClient::connect(const std::string &address, std::string *error)
{
    net::Socket socket = net::connectTo(address, error);
    if (!socket.valid())
        return false;
    channel_ = net::LineChannel(std::move(socket));
    return true;
}

bool
ServiceClient::exchange(const protocol::Request &request,
                        const ReplyHandler &on_reply,
                        std::string *error)
{
    auto fail = [&](std::string why, bool disconnect) {
        if (disconnect)
            channel_ = net::LineChannel(net::Socket());
        if (error)
            *error = std::move(why);
        return false;
    };
    if (!connected())
        return fail("not connected", false);
    if (!channel_.writeLine(protocol::encodeRequest(request)))
        return fail("write failed (daemon gone?)", true);

    std::string line;
    while (channel_.readLine(&line)) {
        if (line.empty())
            continue;
        Json reply;
        if (!Json::parse(line, &reply))
            return fail(format("bad response line: %s", line.c_str()),
                        true);
        if (stringOr(reply, "type") != "done") {
            if (on_reply)
                on_reply(line, reply);
            continue;
        }
        lastTraceId_ =
            static_cast<uint64_t>(intOr(reply, "trace_id", 0));
        if (boolOr(reply, "ok", false))
            return true;
        return fail(stringOr(reply, "error", "request failed"), false);
    }
    return fail("connection closed before the done line", true);
}

bool
ServiceClient::sweep(const protocol::Request &request,
                     const std::vector<arch::SocConfig> &configs,
                     std::vector<dse::DsePoint> *points,
                     std::string *error,
                     const std::function<void(const std::string &)>
                         &on_record)
{
    protocol::Request wire = request;
    wire.configNames.clear();
    wire.configNames.reserve(configs.size());
    std::unordered_map<std::string, std::vector<size_t>> byName;
    for (size_t i = 0; i < configs.size(); ++i) {
        wire.configNames.push_back(configs[i].name());
        byName[configs[i].name()].push_back(i);
    }

    points->assign(configs.size(), dse::DsePoint());
    std::string bad_record;
    auto on_reply = [&](const std::string &line, const Json &reply) {
        if (!bad_record.empty() || stringOr(reply, "type") != "point")
            return;
        if (on_record)
            on_record(line);

        uint64_t key = 0;
        dse::DsePoint point;
        bool has_schedule = false;
        if (!dse::parsePointRecord(reply, &key, &point, nullptr,
                                   &has_schedule)) {
            bad_record = format("bad point record: %s", line.c_str());
            return;
        }
        auto it = byName.find(stringOr(reply, "config"));
        if (it == byName.end() || it->second.empty())
            return; // A point we did not ask for; ignore.
        size_t index = it->second.front();
        it->second.erase(it->second.begin());
        // Structural fields derive from the local config (the record
        // only carries the label), exactly like a checkpoint resume.
        point.setConfig(configs[index]);
        (*points)[index] = std::move(point);
    };
    if (!exchange(wire, on_reply, error))
        return false;
    if (bad_record.empty())
        return true;
    if (error)
        *error = bad_record;
    return false;
}

bool
ServiceClient::stats(Json *out, std::string *error)
{
    protocol::Request request;
    request.op = protocol::Op::Stats;
    bool have_stats = false;
    auto on_reply = [&](const std::string &, const Json &reply) {
        const Json *stats = stringOr(reply, "type") == "stats"
                                ? reply.find("stats")
                                : nullptr;
        if (stats) {
            *out = *stats;
            have_stats = true;
        }
    };
    if (!exchange(request, on_reply, error))
        return false;
    if (!have_stats && error)
        *error = "done without a stats payload";
    return have_stats;
}

bool
ServiceClient::requestShutdown(std::string *error)
{
    protocol::Request request;
    request.op = protocol::Op::Shutdown;
    return exchange(request, nullptr, error);
}

} // namespace service
} // namespace hilp
