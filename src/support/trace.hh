/**
 * @file
 * A span-based tracer exporting Chrome trace-event JSON.
 *
 * Instrumentation sites use TRACE_SPAN (RAII begin/end pairs) and
 * TRACE_INSTANT (point events); events land in per-thread buffers
 * with no cross-thread contention and are exported with toJson() /
 * writeFile() as a Chrome trace loadable in Perfetto
 * (https://ui.perfetto.dev) or chrome://tracing.
 *
 * Tracing is off by default: every trace point compiles to a single
 * relaxed-load branch, so instrumented hot paths (the solver's node
 * bound, the search recursion) pay nothing measurable
 * until setEnabled(true) - typically via the bench harness's
 * --trace-out flag. Per-thread buffers are capped; events past the
 * cap are counted as dropped (reported in the export) rather than
 * overwriting earlier ones, and spans whose end was dropped or is
 * still open at export time get a synthesized end so the exported
 * stream is always begin/end balanced per thread.
 */

#ifndef HILP_SUPPORT_TRACE_HH
#define HILP_SUPPORT_TRACE_HH

#include <cstdint>
#include <string>

#include "json.hh"

namespace hilp {
namespace trace {

/** Is tracing currently recording? A relaxed atomic load. */
bool enabled();

/** Turn recording on or off process-wide. */
void setEnabled(bool on);

/**
 * Name the calling thread in the exported trace (Perfetto shows it
 * as the track title). Cheap; safe to call with tracing disabled.
 */
void setThreadName(const std::string &name);

/**
 * Ring-buffered recording: when a per-thread buffer is full, the
 * oldest event is overwritten instead of the newest dropped, so a
 * long-lived process (the daemon) always holds the most *recent*
 * window of activity. Overwritten events count as dropped. Exports
 * skip end events whose begin was overwritten and synthesize ends
 * for begins whose end has not happened yet, so the exported stream
 * stays balanced either way.
 */
void setRingBuffered(bool on);
bool ringBuffered();

// --- Trace context (request-scoped tracing) ---------------------------
//
// A trace context is a process-unique id stamped on every event a
// thread records while a ContextScope is alive. The daemon assigns
// one id per request at admission and re-establishes the scope on
// every thread that works for that request (the connection handler,
// the executor running the job, each sweep worker), so the spans of
// one request can be told apart from concurrent requests sharing the
// same threads - and exported alone with toJsonForContext().

/** Allocate a fresh nonzero trace id. Thread-safe. */
uint64_t newTraceId();

/** The calling thread's current trace context (0 = none). */
uint64_t currentContext();

/**
 * RAII: events recorded by the calling thread while the scope is
 * alive carry the given context id (exported as args.trace_id).
 * Scopes nest; destruction restores the previous context. A zero id
 * keeps whatever context is already current.
 */
class ContextScope
{
  public:
    explicit ContextScope(uint64_t ctx);
    ~ContextScope();

    ContextScope(const ContextScope &) = delete;
    ContextScope &operator=(const ContextScope &) = delete;

  private:
    uint64_t saved_ = 0;
    bool active_ = false;
};

/**
 * One key/value annotation on an event. Keys must be string
 * literals (the tracer stores the pointer, not a copy).
 */
struct Arg
{
    enum class Kind { None, Int, Num, Str };

    const char *key = nullptr;
    Kind kind = Kind::None;
    int64_t i = 0;
    double d = 0.0;
    std::string s;

    static Arg
    intArg(const char *key, int64_t value)
    {
        Arg arg;
        arg.key = key;
        arg.kind = Kind::Int;
        arg.i = value;
        return arg;
    }

    static Arg
    numArg(const char *key, double value)
    {
        Arg arg;
        arg.key = key;
        arg.kind = Kind::Num;
        arg.d = value;
        return arg;
    }

    static Arg
    strArg(const char *key, std::string value)
    {
        Arg arg;
        arg.key = key;
        arg.kind = Kind::Str;
        arg.s = std::move(value);
        return arg;
    }
};

/** Record a point event (phase "i") on the calling thread. */
void instant(const char *name);
void instant(const char *name, Arg a0);
void instant(const char *name, Arg a0, Arg a1);

/**
 * An RAII span: records a begin event at construction and the
 * matching end event at destruction, on the calling thread. A null
 * name or disabled tracing makes the span a no-op. The name must be
 * a string literal (or otherwise outlive the trace export).
 */
class Span
{
  public:
    explicit Span(const char *name);
    Span(const char *name, Arg a0);
    Span(const char *name, Arg a0, Arg a1);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /**
     * Attach an annotation to the span's end event (for values only
     * known when the work finishes). At most four; extras are dropped.
     */
    void arg(Arg a);

  private:
    const char *name_ = nullptr;
    bool active_ = false;
    int numEndArgs_ = 0;
    Arg endArgs_[4];
};

/**
 * Export everything recorded so far as a Chrome trace-event JSON
 * object: {"traceEvents": [...], "droppedEvents": N}. Thread-safe;
 * spans still open are ended at the current time in the export (the
 * recorded buffers are not modified).
 */
Json toJson();

/**
 * Export only the events stamped with the given trace context (plus
 * process/thread metadata), balanced the same way as toJson(). This
 * is the slow-request dump: one request's span tree extracted from
 * buffers shared with concurrent requests.
 */
Json toJsonForContext(uint64_t ctx);

/**
 * Dump toJson() to a file. Returns "" on success, else an error
 * message.
 */
std::string writeFile(const std::string &path);

/**
 * Insert ".tag" before the path's extension ("out/trace.json", "7"
 * -> "out/trace.7.json"; no extension appends ".7"). Used to stamp
 * per-process trace files with the pid and per-request dumps with
 * the request id so concurrent writers never overwrite each other.
 */
std::string taggedPath(const std::string &path,
                       const std::string &tag);

/** Total events dropped to per-thread buffer caps so far. */
int64_t droppedEvents();

/**
 * Discard all recorded events and drop counts (thread buffers stay
 * registered). For tests and repeated measurement runs.
 */
void clearAll();

/**
 * Structural validation of a Chrome trace object: "traceEvents"
 * array present; every event carries name/ph/pid/tid/ts; per
 * (pid, tid) timestamps are monotonically non-decreasing and B/E
 * events are balanced and properly nested. Returns "" when valid,
 * else a description of the first problem.
 */
std::string validateChromeTrace(const Json &trace);

} // namespace trace
} // namespace hilp

#define HILP_TRACE_CONCAT2(a, b) a##b
#define HILP_TRACE_CONCAT(a, b) HILP_TRACE_CONCAT2(a, b)

/**
 * Open a span covering the rest of the enclosing scope:
 * TRACE_SPAN("cp.solve") or
 * TRACE_SPAN("cp.solve", trace::Arg::intArg("tasks", n)).
 */
#define TRACE_SPAN(...)                                                 \
    ::hilp::trace::Span HILP_TRACE_CONCAT(hilp_trace_span_,             \
                                          __COUNTER__)(__VA_ARGS__)

/** Record a point event: TRACE_INSTANT("cp.incumbent", args...). */
#define TRACE_INSTANT(...) ::hilp::trace::instant(__VA_ARGS__)

#endif // HILP_SUPPORT_TRACE_HH
