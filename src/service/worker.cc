/** @file Distributed-sweep worker loop. See worker.hh. */

#include "worker.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "client.hh"
#include "dse/checkpoint.hh"
#include "support/logging.hh"
#include "support/str.hh"

namespace hilp {
namespace service {

namespace {

void
sleepFor(double seconds)
{
    std::this_thread::sleep_for(
        std::chrono::duration<double>(seconds));
}

/**
 * Heartbeat state shared with the keep-alive thread. Heartbeats ride
 * their own connection: the control channel carries request/response
 * exchanges from multiple sweep threads, and interleaving a timer-
 * driven exchange into it would corrupt the pairing.
 */
struct HeartbeatState
{
    std::mutex mutex;
    std::condition_variable cv;
    uint64_t leaseId = 0;
    double intervalS = 1.0;
    bool stop = false;
};

void
heartbeatLoop(const std::string &address, const std::string &id,
              HeartbeatState *state)
{
    ServiceClient client;
    for (;;) {
        uint64_t lease = 0;
        {
            std::unique_lock<std::mutex> lock(state->mutex);
            state->cv.wait_for(
                lock,
                std::chrono::duration<double>(state->intervalS),
                [&] { return state->stop; });
            if (state->stop)
                return;
            lease = state->leaseId;
        }
        if (lease == 0)
            continue; // Between leases; nothing to keep alive.
        std::string error;
        if (!client.connected() && !client.connect(address, &error))
            continue; // Retry next tick.
        protocol::Request request;
        request.op = protocol::Op::Heartbeat;
        request.worker = id;
        request.leaseId = lease;
        // A lost connection disconnects the client; the next tick
        // reconnects.
        client.exchange(request, nullptr, &error);
    }
}

} // anonymous namespace

bool
runWorker(const std::string &address, const WorkerOptions &options,
          std::string *error)
{
    // The coordinator daemon may still be binding when a spawned
    // worker starts; retry the initial connect for a bounded window.
    ServiceClient control;
    std::string connect_error;
    const auto give_up = std::chrono::steady_clock::now() +
        std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options.connectRetryS));
    while (!control.connect(address, &connect_error)) {
        if (std::chrono::steady_clock::now() >= give_up) {
            if (error)
                *error = format("cannot reach coordinator %s: %s",
                                address.c_str(),
                                connect_error.c_str());
            return false;
        }
        sleepFor(0.1);
    }
    // One exchange on the control connection. The mutex serializes
    // whole exchanges: the sweep's point callbacks submit from worker
    // threads while the main thread is blocked inside sweep(). Returns
    // false only when the connection is lost; *accepted (nullable)
    // gets the done line's verdict and *reply (nullable) the last
    // reply line before it.
    std::mutex controlMutex;
    auto call = [&](const protocol::Request &request, Json *reply,
                    bool *accepted, std::string *lost) {
        std::lock_guard<std::mutex> lock(controlMutex);
        std::string verdict;
        const bool ok = control.exchange(
            request,
            [reply](const std::string &, const Json &line) {
                if (reply)
                    *reply = line;
            },
            &verdict);
        if (accepted)
            *accepted = ok;
        if (control.connected())
            return true;
        if (lost)
            *lost = "control connection lost: " + verdict;
        return false;
    };

    std::unique_ptr<EvalService> local;
    EvalService *service = options.service;
    if (!service) {
        local.reset(new EvalService());
        service = local.get();
    }

    HeartbeatState heartbeatState;
    std::thread heartbeat(heartbeatLoop, address, options.id,
                          &heartbeatState);

    bool ok = true;
    std::string failure;
    size_t units = 0;
    while (ok) {
        protocol::Request poll;
        poll.op = protocol::Op::Lease;
        poll.worker = options.id;
        Json response;
        bool done_ok = false;
        if (!call(poll, &response, &done_ok, &failure)) {
            ok = false;
            break;
        }
        const std::string type = stringOr(response, "type");
        if (type == "wait" || !done_ok) {
            sleepFor(options.pollIntervalS);
            continue;
        }
        if (type == "complete")
            break;
        if (type != "lease") {
            failure = format("unexpected lease response \"%s\"",
                             type.c_str());
            ok = false;
            break;
        }

        // Rebuild the unit's sweep request from the grant alone.
        const uint64_t leaseId =
            static_cast<uint64_t>(intOr(response, "lease", 0));
        const Json *params = response.find("params");
        const Json *names = response.find("configs");
        protocol::Request unit;
        if (leaseId == 0 || !params || !names || !names->isArray() ||
            !protocol::parseSweepParams(*params, &unit, &failure)) {
            if (failure.empty())
                failure = "malformed lease grant";
            ok = false;
            break;
        }
        for (size_t i = 0; i < names->size(); ++i)
            if (names->at(i).isString())
                unit.configNames.push_back(
                    names->at(i).stringValue());
        // Evaluate the unit exactly as the in-process sweep would -
        // the unit is one whole similarity chain, so the local sweep
        // rebuilds the same warm-start order.
        SweepRequest sweep;
        if (!protocol::toSweepRequest(unit, &sweep, &failure)) {
            ok = false;
            break;
        }
        inform("worker %s: leased unit (lease %llu, %zu configs)",
               options.id.c_str(),
               static_cast<unsigned long long>(leaseId),
               sweep.configs.size());

        {
            std::lock_guard<std::mutex> lock(heartbeatState.mutex);
            heartbeatState.leaseId = leaseId;
            const Json *window = response.find("expires_s");
            const double expires = window && window->isNumber()
                                       ? window->numberValue()
                                       : 30.0;
            heartbeatState.intervalS = std::max(0.05, expires / 3.0);
        }

        const dse::ModelKind kind = unit.kind;
        std::atomic<bool> submitFailed{false};
        sweep.onPoint = [&](const dse::DsePoint &point,
                            const Schedule *schedule) {
            if (submitFailed.load(std::memory_order_relaxed))
                return;
            protocol::Request submit;
            submit.op = protocol::Op::Submit;
            submit.worker = options.id;
            submit.leaseId = leaseId;
            submit.records.push_back(dse::pointRecordJson(
                dse::checkpointKey(point.fingerprint,
                                   point.config.name(), kind),
                kind, point, schedule));
            if (!call(submit, nullptr, nullptr, nullptr))
                submitFailed.store(true,
                                   std::memory_order_relaxed);
        };
        service->sweep(sweep);

        {
            std::lock_guard<std::mutex> lock(heartbeatState.mutex);
            heartbeatState.leaseId = 0;
        }
        if (submitFailed.load()) {
            failure = "control connection died mid-unit";
            ok = false;
            break;
        }

        // Close out the lease; an empty submit carries the flag.
        protocol::Request finish;
        finish.op = protocol::Op::Submit;
        finish.worker = options.id;
        finish.leaseId = leaseId;
        finish.complete = true;
        if (!call(finish, nullptr, nullptr, &failure)) {
            ok = false;
            break;
        }
        ++units;
    }

    {
        std::lock_guard<std::mutex> lock(heartbeatState.mutex);
        heartbeatState.stop = true;
    }
    heartbeatState.cv.notify_all();
    heartbeat.join();

    if (ok)
        inform("worker %s: run complete (%zu units evaluated)",
               options.id.c_str(), units);
    else if (error)
        *error = failure;
    return ok;
}

} // namespace service
} // namespace hilp
