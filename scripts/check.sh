#!/usr/bin/env sh
# Run the full verification gate: the plain build plus the sanitized
# (ASan + UBSan) build, each followed by the tier1 test suite. This is
# the one command to run before sending a change for review.
#
# Usage: scripts/check.sh [jobs]
#   jobs  parallel build/test width (default: nproc)

set -eu

cd "$(dirname "$0")/.."
jobs="${1:-$(nproc 2>/dev/null || echo 4)}"

run_suite() {
    build_dir="$1"
    shift
    echo "==> configure ${build_dir} ($*)"
    cmake -B "${build_dir}" -S . "$@"
    echo "==> build ${build_dir}"
    cmake --build "${build_dir}" -j "${jobs}"
    echo "==> test ${build_dir} (tier1)"
    ctest --test-dir "${build_dir}" -L tier1 -j "${jobs}" \
        --output-on-failure
}

run_suite build
run_suite build-asan -DHILP_SANITIZE=ON

# No-good, LP-bound, list-scheduler and engine soundness under ASan:
# the no-good store's tests and differential (the search, which
# always records no-goods, proves the exhaustive oracle's optimum),
# the pinned single-thread trees, the LP bound between the
# combinatorial bounds and the exhaustive optimum, the LP bound
# against the direct relaxation in tests/oracles (random models here,
# the Figure 7 models in hilp_test_core), the incremental list
# scheduler against the from-scratch reference, the engine's
# adaptive-resolution ladder (a late point included), and the LP
# solver's own tests run again on their own, so a heap bug in the
# solver hot path (such as a stale index into the list scheduler's
# per-run arrays) or an unsound bound fails this stage by name even
# when the tier1 sweep above is trimmed or filtered.
echo "==> no-good/LP-bound/LP-bound-differential/list-scheduler/engine soundness (ASan)"
./build-asan/tests/hilp_test_cp \
    --gtest_filter='Nogood.*:*/NogoodDiff.*:*/SearchPinned.*:*/ExhaustiveLpBound.*:LpBoundDiff.*:*/ListSchedulerDiff.*:ListSchedulerEngine.*'
./build-asan/tests/hilp_test_core --gtest_filter='LpBoundDiffFig7.*:Engine.*'
./build-asan/tests/hilp_test_lp

# Thread-sanitizer stage: build only the concurrency test binary
# (thread pool + budget + parallel branch-and-bound) under TSan and
# run it. TSan is incompatible with ASan, so this is a third build
# tree; benches and examples are skipped to keep it fast.
echo "==> configure build-tsan"
cmake -B build-tsan -S . -DHILP_TSAN=ON \
    -DHILP_BUILD_BENCH=OFF -DHILP_BUILD_EXAMPLES=OFF
echo "==> build build-tsan (hilp_test_concurrency)"
cmake --build build-tsan -j "${jobs}" --target hilp_test_concurrency
echo "==> test build-tsan (concurrency under TSan)"
./build-tsan/tests/hilp_test_concurrency

# Tracing smoke test: run the solver microbenchmark with a trace
# export (benchmark timing loops filtered out for speed) and validate
# that the file is a well-formed, balanced Chrome trace. --trace-out
# stamps the writing pid into the name (check_trace.<pid>.json), so
# clear old stamps first and glob for the one this run produced.
echo "==> trace smoke test"
rm -f build/check_trace.*.json
./build/bench/solver_micro "--trace-out=build/check_trace.json" \
    --no-thread-sweep --benchmark_filter=none > /dev/null
trace_file=$(ls build/check_trace.*.json)
./build/bench/trace_check "${trace_file}"

# Golden outputs: the full fig7 sweep (Pareto fronts plus the HILP
# node/backtrack totals) must match tests/golden/fig7.txt. The ctest
# is registered in the Release build only and runs serially.
echo "==> golden outputs"
ctest --test-dir build -L golden --no-tests=error --output-on-failure

# Checkpoint/resume round trip: an uninterrupted truncated fig7 sweep
# vs the same sweep SIGKILLed mid-run and resumed. The resumed
# checkpoint must end up with the same set of (key, ok) records - a
# kill loses only in-flight points, never completed ones, and resume
# re-solves only what is missing. This stage, the daemon round trip
# and the chaos stage use a 40-config slice: the first 16 configs all
# solve at 0 branch-and-bound nodes, so a shorter slice would compare
# outputs that never ran the search.
echo "==> checkpoint/resume round trip"
ckpt_a="build/check_ckpt_a.jsonl"
ckpt_b="build/check_ckpt_b.jsonl"
rm -f "${ckpt_a}" "${ckpt_b}"
fig7="./build/bench/fig7_design_space"
"${fig7}" --max-configs=40 "--checkpoint=${ckpt_a}" \
    --benchmark_filter=none > /dev/null

# Interrupted run: SIGKILL the sweep once a few points have been
# flushed. Best-effort timing - if the run finishes first, the resume
# below simply finds everything done, which is also a valid path.
"${fig7}" --max-configs=40 "--checkpoint=${ckpt_b}" \
    --benchmark_filter=none > /dev/null 2>&1 &
sweep_pid=$!
for _ in $(seq 1 200); do
    lines=$(wc -l < "${ckpt_b}" 2>/dev/null || echo 0)
    if [ "${lines}" -ge 20 ]; then
        kill -9 "${sweep_pid}" 2>/dev/null || true
        break
    fi
    kill -0 "${sweep_pid}" 2>/dev/null || break
    sleep 0.05
done
wait "${sweep_pid}" 2>/dev/null || true

"${fig7}" --max-configs=40 "--checkpoint=${ckpt_b}" --resume \
    --benchmark_filter=none > /dev/null

# Compare the completed point sets: sorted unique (key, ok) pairs.
# Telemetry fields (nodes, seconds) legitimately vary run to run.
point_set() {
    sed -n 's/.*"key":"\([0-9a-f]*\)".*"ok":\(true\|false\).*/\1 \2/p' \
        "$1" | sort -u
}
point_set "${ckpt_a}" > build/check_ckpt_a.set
point_set "${ckpt_b}" > build/check_ckpt_b.set
if ! diff build/check_ckpt_a.set build/check_ckpt_b.set; then
    echo "checkpoint/resume point sets differ" >&2
    exit 1
fi
if ! [ -s build/check_ckpt_a.set ]; then
    echo "checkpoint round trip produced no points" >&2
    exit 1
fi

# Warm-start rehydration after resume: drop the last few records from
# the completed checkpoint (its tail is the HILP sweep, which runs
# last) and resume. The re-solved tail points must warm-start from
# schedules persisted by the *previous* run - the resumed chain
# predecessors rehydrate their hints - so the resume's metrics must
# show both resumed points and rehydrated chain hints, and the final
# point set must again match the uninterrupted run.
echo "==> checkpoint resume rehydrates warm starts"
ckpt_c="build/check_ckpt_c.jsonl"
metrics_c="build/check_ckpt_c.metrics.json"
total=$(wc -l < "${ckpt_a}")
if [ "${total}" -le 3 ]; then
    echo "checkpoint too small to truncate (${total} lines)" >&2
    exit 1
fi
head -n "$((total - 3))" "${ckpt_a}" > "${ckpt_c}"
"${fig7}" --max-configs=40 "--checkpoint=${ckpt_c}" --resume \
    "--metrics-out=${metrics_c}" --benchmark_filter=none > /dev/null
counter() {
    sed -n "s/.*\"$1\": \([0-9][0-9]*\).*/\1/p" "${metrics_c}" \
        | head -n 1
}
resumed=$(counter "dse.points.resumed")
rehydrated=$(counter "dse.chain.rehydrated")
if [ -z "${resumed}" ] || [ "${resumed}" -lt 1 ]; then
    echo "resume reported no resumed points (${resumed:-missing})" >&2
    exit 1
fi
if [ -z "${rehydrated}" ] || [ "${rehydrated}" -lt 1 ]; then
    echo "resume rehydrated no chain hints (${rehydrated:-missing})" >&2
    exit 1
fi
point_set "${ckpt_c}" > build/check_ckpt_c.set
if ! diff build/check_ckpt_a.set build/check_ckpt_c.set; then
    echo "truncated-resume point set differs" >&2
    exit 1
fi

# Daemon round trip: boot hilpd on a Unix socket, run a truncated
# fig7 sweep through it via --connect, and require the figure output
# (Pareto fronts included) to match the in-process run. The one
# tolerated difference is the per-propagator telemetry line: the wire
# shares the checkpoint record format, which does not carry
# propagator stats (resumed points behave identically). A warm
# re-run must then hit the daemon's cross-request memo, stats must
# report it, shutdown must unlink the socket, and a SIGKILLed daemon
# must leave a stale socket that the next boot reclaims. Last, the
# first sweep runs again over TCP and must match too.
echo "==> hilpd daemon round trip"
hilpd="./build/src/service/hilpd"
daemon_sock="build/check_hilpd.sock"
rm -f "${daemon_sock}"
"${hilpd}" "--listen=unix:${daemon_sock}" \
    > build/check_hilpd.log 2>&1 &
daemon_pid=$!
for _ in $(seq 1 100); do
    [ -S "${daemon_sock}" ] && break
    kill -0 "${daemon_pid}" 2>/dev/null || {
        echo "hilpd died on startup" >&2
        cat build/check_hilpd.log >&2
        exit 1
    }
    sleep 0.05
done
"${fig7}" --max-configs=40 "--connect=unix:${daemon_sock}" \
    --benchmark_filter=none > build/check_fig7_daemon.out
"${fig7}" --max-configs=40 \
    --benchmark_filter=none > build/check_fig7_local.out
grep -v "solver effort" build/check_fig7_daemon.out \
    > build/check_fig7_daemon.cmp
grep -v "solver effort" build/check_fig7_local.out \
    > build/check_fig7_local.cmp
if ! diff build/check_fig7_daemon.cmp build/check_fig7_local.cmp; then
    echo "daemon sweep output differs from in-process run" >&2
    exit 1
fi

# Warm re-run: the daemon's memo outlives the first request, so the
# second identical sweep must record hits.
"${fig7}" --max-configs=40 "--connect=unix:${daemon_sock}" \
    --benchmark_filter=none > /dev/null
"${hilpd}" "--connect=unix:${daemon_sock}" stats \
    > build/check_hilpd_stats.json
memo_hits=$(sed -n '/"memo"/,/}/s/.*"hits": \([0-9][0-9]*\).*/\1/p' \
    build/check_hilpd_stats.json | head -n 1)
if [ -z "${memo_hits}" ] || [ "${memo_hits}" -lt 1 ]; then
    echo "daemon memo recorded no hits (${memo_hits:-missing})" >&2
    exit 1
fi

# The cold reference survives a warm daemon: a --no-reuse sweep gets
# no memo, so it neither hits the cache nor warm-starts from it, and
# its solver effort equals the same cold sweep run in-process.
"${fig7}" --max-configs=40 --no-reuse "--connect=unix:${daemon_sock}" \
    --benchmark_filter=none > build/check_fig7_cold_daemon.out
"${fig7}" --max-configs=40 --no-reuse \
    --benchmark_filter=none > build/check_fig7_cold_local.out
cold_daemon=$(grep "HILP solver effort" build/check_fig7_cold_daemon.out)
case "${cold_daemon}" in
    *"| 0 cache hits, 0 warm starts,"*) ;;
    *)
        echo "daemon --no-reuse sweep was not cold: ${cold_daemon}" >&2
        exit 1
        ;;
esac
effort_totals() {
    grep "HILP solver effort" "$1" |
        sed -n 's/.* \([0-9]*\) nodes, \([0-9]*\) backtracks.*/\1 \2/p'
}
cold_daemon_totals=$(effort_totals build/check_fig7_cold_daemon.out)
cold_local_totals=$(effort_totals build/check_fig7_cold_local.out)
if [ -z "${cold_daemon_totals}" ] ||
    [ "${cold_daemon_totals}" != "${cold_local_totals}" ]; then
    echo "daemon --no-reuse nodes/backtracks (${cold_daemon_totals})" \
        "differ from in-process (${cold_local_totals})" >&2
    exit 1
fi

# Clean shutdown unlinks the socket.
"${hilpd}" "--connect=unix:${daemon_sock}" shutdown > /dev/null
wait "${daemon_pid}" || {
    echo "hilpd exited non-zero after shutdown" >&2
    exit 1
}
if [ -e "${daemon_sock}" ]; then
    echo "shutdown left the socket behind" >&2
    exit 1
fi

# A SIGKILLed daemon leaves a stale socket; the next boot on the same
# path must reclaim it (a live daemon would be address-in-use).
"${hilpd}" "--listen=unix:${daemon_sock}" > /dev/null 2>&1 &
daemon_pid=$!
for _ in $(seq 1 100); do
    [ -S "${daemon_sock}" ] && break
    sleep 0.05
done
kill -9 "${daemon_pid}" 2>/dev/null
wait "${daemon_pid}" 2>/dev/null || true
if ! [ -S "${daemon_sock}" ]; then
    echo "SIGKILL test expected a stale socket" >&2
    exit 1
fi
"${hilpd}" "--listen=unix:${daemon_sock}" > /dev/null 2>&1 &
daemon_pid=$!
for _ in $(seq 1 100); do
    if "${hilpd}" "--connect=unix:${daemon_sock}" stats \
        > /dev/null 2>&1; then
        break
    fi
    sleep 0.05
done
"${hilpd}" "--connect=unix:${daemon_sock}" shutdown > /dev/null
wait "${daemon_pid}" || {
    echo "hilpd restarted on a stale socket but exited non-zero" >&2
    exit 1
}

# The same sweep over TCP, the transport remote clients and the
# perfbench service workload use. The daemon binds an ephemeral port
# and logs the address it bound; the figure output must match the
# in-process run.
HILP_LOG_LEVEL=inform "${hilpd}" "--listen=tcp:127.0.0.1:0" \
    > build/check_hilpd_tcp.log 2>&1 &
daemon_pid=$!
tcp_port=""
for _ in $(seq 1 100); do
    tcp_port=$(sed -n \
        's/.*listening on tcp:127\.0\.0\.1:\([0-9][0-9]*\) .*/\1/p' \
        build/check_hilpd_tcp.log)
    [ -n "${tcp_port}" ] && break
    kill -0 "${daemon_pid}" 2>/dev/null || break
    sleep 0.05
done
if [ -z "${tcp_port}" ]; then
    echo "hilpd (tcp) logged no listening port" >&2
    cat build/check_hilpd_tcp.log >&2
    kill "${daemon_pid}" 2>/dev/null || true
    exit 1
fi
"${fig7}" --max-configs=40 "--connect=tcp:127.0.0.1:${tcp_port}" \
    --benchmark_filter=none > build/check_fig7_tcp.out
grep -v "solver effort" build/check_fig7_tcp.out \
    > build/check_fig7_tcp.cmp
if ! diff build/check_fig7_tcp.cmp build/check_fig7_local.cmp; then
    echo "daemon sweep over TCP differs from in-process run" >&2
    exit 1
fi
"${hilpd}" "--connect=tcp:127.0.0.1:${tcp_port}" shutdown > /dev/null
wait "${daemon_pid}" || {
    echo "hilpd (tcp) exited non-zero after shutdown" >&2
    exit 1
}

# Telemetry endpoint: boot hilpd with a metrics listener and a
# deliberately tiny SLO, drive one sweep through it, and check what
# an operator sees. /metrics must parse as Prometheus text (the
# expo_check validator) and count the served request, /healthz must
# answer ok, the stats op must report latency percentiles and flight
# recorder occupancy, and the slow request (everything beats a 1 ms
# SLO) must have left a request-id-stamped span-tree dump that the
# Chrome-trace validator accepts.
echo "==> hilpd telemetry endpoint"
expo="./build/bench/expo_check"
metrics_sock="build/check_hilpd_metrics.sock"
dump_dir="build/check_slow_dumps"
rm -f "${daemon_sock}" "${metrics_sock}"
rm -rf "${dump_dir}"
mkdir -p "${dump_dir}"
"${hilpd}" "--listen=unix:${daemon_sock}" \
    "--metrics-addr=unix:${metrics_sock}" \
    --slo-ms=1 "--slow-dump-dir=${dump_dir}" \
    > build/check_hilpd_telemetry.log 2>&1 &
daemon_pid=$!
for _ in $(seq 1 100); do
    [ -S "${daemon_sock}" ] && [ -S "${metrics_sock}" ] && break
    kill -0 "${daemon_pid}" 2>/dev/null || {
        echo "hilpd (telemetry) died on startup" >&2
        cat build/check_hilpd_telemetry.log >&2
        exit 1
    }
    sleep 0.05
done
"${fig7}" --max-configs=16 "--connect=unix:${daemon_sock}" \
    --benchmark_filter=none > /dev/null

"${expo}" "unix:${metrics_sock}" /metrics > build/check_metrics.prom
grep -q "^hilpd_requests_total [1-9]" build/check_metrics.prom || {
    echo "/metrics did not count the served requests" >&2
    exit 1
}
grep -q "^hilpd_request_total_us_count [1-9]" \
    build/check_metrics.prom || {
    echo "/metrics has no request latency histogram" >&2
    exit 1
}
"${expo}" "unix:${metrics_sock}" /healthz > build/check_healthz.json
grep -q '"ok":true' build/check_healthz.json || {
    echo "/healthz did not report ok" >&2
    exit 1
}

"${hilpd}" "--connect=unix:${daemon_sock}" stats \
    > build/check_hilpd_telemetry_stats.json
grep -q '"p50"' build/check_hilpd_telemetry_stats.json || {
    echo "stats has no latency percentiles" >&2
    exit 1
}
grep -q '"flight_recorder"' build/check_hilpd_telemetry_stats.json || {
    echo "stats has no flight recorder section" >&2
    exit 1
}

dump=$(ls "${dump_dir}"/hilpd_slow_req*.trace.json 2>/dev/null \
    | head -n 1)
if [ -z "${dump}" ]; then
    echo "no slow-request trace dump in ${dump_dir}" >&2
    exit 1
fi
./build/bench/trace_check "${dump}"

"${hilpd}" "--connect=unix:${daemon_sock}" shutdown > /dev/null
wait "${daemon_pid}" || {
    echo "hilpd (telemetry) exited non-zero" >&2
    exit 1
}

# Distributed-sweep chaos: run the same fig7 slice through a
# coordinator with three forked workers, SIGKILL one worker in the
# middle of the HILP sweep, and require (a) the merged figure output
# to match the in-process run byte for byte and (b) at least one
# lease to have been re-issued - proof the kill exercised the
# failure path rather than landing in an idle window. The kill is
# inherently racy (the victim may finish its unit first), so the
# stage retries; the output equality must hold on every attempt.
echo "==> distributed sweep chaos (worker SIGKILL)"
dist_sock="build/check_dist.sock"
chaos_ok=0
for attempt in 1 2 3 4 5; do
    rm -f "${dist_sock}"
    "${fig7}" --max-configs=40 "--coordinator=unix:${dist_sock}" \
        --spawn-workers=3 --lease-timeout=2 \
        --benchmark_filter=none \
        > build/check_fig7_chaos.out 2> build/check_fig7_chaos.log &
    chaos_pid=$!
    # Wait for the HILP sweep (the long, solver-bound one), then for
    # the first unit leased inside it, and SIGKILL that worker while
    # it is still solving.
    victim=""
    for _ in $(seq 1 1200); do
        kill -0 "${chaos_pid}" 2>/dev/null || break
        # The most recently leased unit is the one most likely to
        # still be in flight when the signal lands.
        victim=$(awk '/coordinator sweep \(HILP\)/ { hilp = 1 }
                      hilp && /worker w[0-9]+: leased unit/ {
                          pid = $0
                          sub(/.*worker w/, "", pid)
                          sub(/:.*/, "", pid) }
                      END { if (pid != "") print pid }' \
            build/check_fig7_chaos.log)
        [ -n "${victim}" ] && break
        sleep 0.05
    done
    if [ -n "${victim}" ]; then
        kill -9 "${victim}" 2>/dev/null || true
    fi
    wait "${chaos_pid}" || {
        echo "coordinator run exited non-zero (attempt ${attempt})" >&2
        cat build/check_fig7_chaos.log >&2
        exit 1
    }
    grep -v "solver effort" build/check_fig7_chaos.out \
        > build/check_fig7_chaos.cmp
    if ! diff build/check_fig7_chaos.cmp build/check_fig7_local.cmp
    then
        echo "chaos sweep output differs from in-process run" >&2
        exit 1
    fi
    if grep -Eq "[1-9][0-9]* lease\(s\) re-issued" \
        build/check_fig7_chaos.log; then
        chaos_ok=1
        break
    fi
    echo "    attempt ${attempt}: no lease re-issued (victim" \
        "${victim:-none} finished first?); retrying"
done
if [ "${chaos_ok}" != 1 ]; then
    echo "no attempt re-issued a lease after the worker SIGKILL" >&2
    exit 1
fi

echo "==> all checks passed"
