/**
 * @file
 * The hilpd wire protocol: newline-delimited JSON over a stream
 * socket (see support/net.hh).
 *
 * Requests are one JSON object per line:
 *
 *   {"op": "eval",  "configs": ["(c4,g16,d2^16)"], "workload":
 *    {"variant": "Default", "copies": 1}, "model": "HILP",
 *    "constraints": {...}, "options": {...}, "priority": 0}
 *   {"op": "sweep", "configs": [...], ...}          same shape
 *   {"op": "stats"}
 *   {"op": "shutdown"}
 *
 * Distributed-sweep operations (served only when a coordinator is
 * registered with the daemon; see dse/distribute.hh):
 *
 *   {"op": "lease", "worker": "w1"}
 *   {"op": "submit", "worker": "w1", "lease": 7,
 *    "records": [{...point record...}], "complete": false}
 *   {"op": "heartbeat", "worker": "w1", "lease": 7}
 *   {"op": "drain"}
 *
 * Configurations travel as the paper's labels ("(c4,g16,d2^16)") and
 * are reconstructed server-side with arch::parseSocName against the
 * request's DSA advantage and the paper's DSA priority order - the
 * label is the complete identity of a design-space point.
 *
 * Responses stream back per line:
 *
 *   {"type": "point", ...}   one per completed point, in completion
 *                            order: the sweep-checkpoint record
 *                            format (dse::pointRecordJson) plus the
 *                            "type" tag, which parsePointRecord
 *                            ignores - so a captured stream is a
 *                            valid --resume checkpoint file.
 *   {"type": "stats", "stats": {...}}  the stats response payload.
 *   {"type": "lease", "lease": 7, "unit": 3, "expires_s": 30.0,
 *    "configs": [...], "params": {...}}  a granted work unit; params
 *                            is the sweep-request body (workload,
 *                            model, constraints, options) shared by
 *                            every unit of the sweep.
 *   {"type": "wait"}         no unit available right now; poll again.
 *   {"type": "complete"}     the coordinator is retired: exit.
 *   {"type": "ack", "ok": true, "accepted": N, "duplicates": N}
 *                            submit/heartbeat acknowledgment.
 *   {"type": "progress", "progress": {...}}  the drain payload.
 *   {"type": "done", "ok": true|false, "error": "...", "points": N,
 *    "trace_id": T}          exactly one per request, last. T is the
 *                            request id assigned at admission; the
 *                            same id rides every streamed point's
 *                            "trace_id" field and the daemon's spans
 *                            and flight-recorder entries.
 *
 * A malformed request gets a done/ok=false line and the connection
 * stays usable; a rejected request (admission control) reports the
 * rejection reason the same way.
 *
 * Request fields are optional and unknown keys are ignored, so a
 * client that still sends a field the daemon no longer knows gets
 * its result. A field that is present must have its own JSON kind
 * and lie in its range: the "options"/"engine" object is checked
 * field by field against the option tables (hilp/options.hh), the
 * other fields by hand in protocol.cc, and a bad value fails the
 * request naming the field.
 */

#ifndef HILP_SERVICE_PROTOCOL_HH
#define HILP_SERVICE_PROTOCOL_HH

#include <string>
#include <vector>

#include "arch/soc.hh"
#include "dse/explore.hh"
#include "eval_service.hh"
#include "support/json.hh"
#include "workload/rodinia.hh"

namespace hilp {
namespace service {
namespace protocol {

/** Request operations. */
enum class Op { Eval, Sweep, Stats, Shutdown, Lease, Submit,
                Heartbeat, Drain };

const char *toString(Op op);

/** A decoded request line. */
struct Request
{
    Op op = Op::Stats;
    /** Configuration labels; exactly one for Eval. */
    std::vector<std::string> configNames;
    workload::Variant variant = workload::Variant::Default;
    int copies = 1;
    double dsaAdvantage = 4.0;
    arch::Constraints constraints;
    dse::ModelKind kind = dse::ModelKind::Hilp;
    /**
     * Exploration options. Only value fields travel (engine, solver,
     * threads, reuse); the pointer members (memo, checkpoint,
     * injectFault) are the server's.
     */
    dse::DseOptions options;
    int priority = 0;

    // Distributed-sweep fields (Lease/Submit/Heartbeat only).
    /** Worker identity, for lease bookkeeping and logs. */
    std::string worker;
    /** The lease the submit/heartbeat refers to. */
    uint64_t leaseId = 0;
    /** Submit: checkpoint-format record objects to merge. */
    std::vector<Json> records;
    /** Submit: the unit is fully evaluated; complete the lease. */
    bool complete = false;
};

/** Encode a request as one wire line (no trailing newline). */
std::string encodeRequest(const Request &request);

/**
 * Decode one request line. Returns false and fills *error on
 * malformed input (bad JSON, unknown op/model/variant, invalid
 * config label, a field of the wrong kind or out of its range).
 */
bool parseRequest(const std::string &line, Request *out,
                  std::string *error);

/**
 * The sweep an eval/sweep request (or a leased unit) describes: its
 * labels resolved to SocConfigs in request order, its workload
 * built, and its constraints, model and options copied. The sink and
 * trace id are left to the caller. Returns false and fills *error on
 * the first bad label, which the error names.
 */
bool toSweepRequest(const Request &request, SweepRequest *out,
                    std::string *error);

// JSON round trip for the constraints payload; absent fields keep
// their defaults.

Json constraintsJson(const arch::Constraints &constraints);
bool parseConstraints(const Json &json, arch::Constraints *out,
                      std::string *error);

/** Model kind by wire name ("MA", "HILP", "Gables"). */
bool parseModelKind(const std::string &name, dse::ModelKind *out);

/** Workload variant by wire name ("Rodinia", "Default", "Optimized"). */
bool parseVariant(const std::string &name, workload::Variant *out);

// Response lines.

/**
 * The terminal line of every request. A nonzero trace_id is the
 * request id the daemon assigned at admission; clients log it to
 * join their request against the daemon's spans, flight-recorder
 * entries, and slow-request dumps.
 */
std::string encodeDone(bool ok, const std::string &error,
                       size_t points = 0, uint64_t trace_id = 0);

/** The stats response payload line. */
std::string encodeStats(Json stats);

// Distributed-sweep payloads.

/**
 * The shared sweep-request body of a distributed sweep (workload,
 * model, constraints, options, advantage - everything but the
 * configs): what a lease grant embeds as "params" so a worker can
 * rebuild a full sweep request from the grant alone.
 */
Json sweepParamsJson(const Request &request);

/**
 * Inverse of sweepParamsJson: fill *out's shared fields from a
 * grant's params object (configNames stays empty - the grant's
 * "configs" array carries the unit).
 */
bool parseSweepParams(const Json &json, Request *out,
                      std::string *error);

/** A granted lease line: the unit plus the shared params object. */
std::string encodeLeaseGrant(uint64_t lease_id, size_t unit,
                             double expires_s,
                             const std::vector<std::string> &configs,
                             const Json &params);

/** The "poll again" lease response. */
std::string encodeLeaseWait();

/** The "coordinator retired, exit" lease response. */
std::string encodeLeaseComplete();

/** Submit/heartbeat acknowledgment. */
std::string encodeAck(bool ok, size_t accepted, size_t duplicates);

/** The drain response payload line. */
std::string encodeProgress(Json progress);


} // namespace protocol
} // namespace service
} // namespace hilp

#endif // HILP_SERVICE_PROTOCOL_HH
