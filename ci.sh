#!/bin/sh
# The hermetic CI gate: formatting, lints, tests, then the end-to-end
# gates on the release binary. Runs fully offline: no package in the
# tree has an external dependency.
set -eu

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
# Intra-doc links name the engine's types and functions; a rename that
# leaves a link dangling fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> release-only FTWC pins (generator and transform output at N = 32)"
# The N = 32 pins skip debug builds, and the reach gates below run that
# model.
cargo test --release -q --test ftwc_integration

echo "==> fault-injection gate (deterministic seeded faults)"
cargo test -q -p unicon-ctmdp --features fault-inject

echo "==> reach determinism contract (--threads 1 vs --threads 4)"
cargo build --release -q
CI_DIR=target/ci
mkdir -p "$CI_DIR"
BOUNDS="100,500,1000"
./target/release/unicon reach --ftwc 32 --time-bounds "$BOUNDS" --threads 1 \
    --json "$CI_DIR/reach_t1.json" --values-out "$CI_DIR/reach_t1.hex" 2>/dev/null
./target/release/unicon reach --ftwc 32 --time-bounds "$BOUNDS" --threads 4 \
    --json "$CI_DIR/reach_t4.json" --values-out "$CI_DIR/reach_t4.hex" 2>/dev/null
if ! cmp -s "$CI_DIR/reach_t1.hex" "$CI_DIR/reach_t4.hex"; then
    echo "FAIL: reach values diverge between --threads 1 and --threads 4"
    exit 1
fi
echo "reach values bitwise identical across thread counts"

echo "==> observability bit-invisibility gate (trace on vs off, 1 and 4 threads)"
# Full-fat telemetry (JSONL trace + debug console + residual CSV) must
# leave every result bit unchanged — the obs layer's hard contract.
for T in 1 4; do
    ./target/release/unicon reach --ftwc 32 --time-bounds "$BOUNDS" --threads "$T" \
        --trace-out "$CI_DIR/trace_t$T.jsonl" --log-level debug \
        --residuals-out "$CI_DIR/residuals_t$T.csv" \
        --values-out "$CI_DIR/reach_traced_t$T.hex" >/dev/null 2>&1
    if ! cmp -s "$CI_DIR/reach_t$T.hex" "$CI_DIR/reach_traced_t$T.hex"; then
        echo "FAIL: tracing changed the reach values (threads $T)"
        exit 1
    fi
done
echo "values byte-identical with tracing on and off at 1 and 4 threads"

echo "==> kernel parity gate (--kernel reference vs --kernel fused, max and min, 1 and 4 threads)"
# The fused SoA kernel is an optimization, not a semantics change: its
# value dumps must be byte-identical to the retained reference kernel.
# A fused batch runs its bounds as lanes over the goal-folded model, the
# reference kernel runs them one by one over the states: the --min runs
# hold minimizing lanes to the same per-query oracle. A single bound
# sweeps the state layout, the one serve and guarded runs sweep.
SINGLE="1000"
for T in 1 4; do
    for OBJ in max min; do
        MIN=""
        [ "$OBJ" = min ] && MIN="--min"
        for KIND in lanes single; do
            TB="$BOUNDS"
            [ "$KIND" = single ] && TB="$SINGLE"
            ./target/release/unicon reach --ftwc 32 --time-bounds "$TB" --threads "$T" $MIN \
                --kernel reference --values-out "$CI_DIR/kernel_ref_${KIND}_${OBJ}_t$T.hex" >/dev/null 2>&1
            ./target/release/unicon reach --ftwc 32 --time-bounds "$TB" --threads "$T" $MIN \
                --kernel fused --values-out "$CI_DIR/kernel_fused_${KIND}_${OBJ}_t$T.hex" >/dev/null 2>&1
            if ! cmp -s "$CI_DIR/kernel_ref_${KIND}_${OBJ}_t$T.hex" "$CI_DIR/kernel_fused_${KIND}_${OBJ}_t$T.hex"; then
                echo "FAIL: fused kernel values diverge from the reference kernel ($KIND, $OBJ, threads $T)"
                exit 1
            fi
        done
    done
done
echo "reference and fused kernel dumps bitwise identical, laned and single-bound, for max and min at 1 and 4 threads"

echo "==> metrics exposition smoke check"
./target/release/unicon metrics --ftwc 1 --time-bounds 10 2>/dev/null > "$CI_DIR/metrics.txt"
# every line is a comment header or a 'name value' / 'name{labels} value' sample
if ! awk '
    /^# (HELP|TYPE) / { next }
    /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9][0-9eE.+-]*$/ { next }
    { print "bad exposition line: " $0; bad = 1 }
    END { exit bad }
' "$CI_DIR/metrics.txt"; then
    echo "FAIL: metrics exposition is malformed"
    exit 1
fi
if ! grep -q '^unicon_reach_iterations_total ' "$CI_DIR/metrics.txt"; then
    echo "FAIL: metrics exposition lacks unicon_reach_iterations_total"
    exit 1
fi
echo "metrics exposition well-formed ($(wc -l < "$CI_DIR/metrics.txt") lines)"

echo "==> checkpoint kill/resume gate (interrupted + resumed vs uninterrupted)"
RBOUNDS="50,200"
for T in 1 4; do
    CK="$CI_DIR/resume_t$T.ck"
    rm -f "$CK"
    ./target/release/unicon reach --ftwc 8 --time-bounds "$RBOUNDS" --threads "$T" \
        --values-out "$CI_DIR/full_t$T.hex" >/dev/null 2>&1
    # interrupt mid-run on a budget: must exit 3 (partial) with a checkpoint
    status=0
    ./target/release/unicon reach --ftwc 8 --time-bounds "$RBOUNDS" --threads "$T" \
        --max-iters 40 --checkpoint "$CK" --checkpoint-every 16 >/dev/null 2>&1 || status=$?
    if [ "$status" -ne 3 ]; then
        echo "FAIL: budgeted reach exited $status, expected 3 (partial; threads $T)"
        exit 1
    fi
    ./target/release/unicon reach --ftwc 8 --time-bounds "$RBOUNDS" --threads "$T" \
        --resume "$CK" --values-out "$CI_DIR/resumed_t$T.hex" >/dev/null 2>&1
    if ! cmp -s "$CI_DIR/full_t$T.hex" "$CI_DIR/resumed_t$T.hex"; then
        echo "FAIL: resumed values diverge from the uninterrupted run (threads $T)"
        exit 1
    fi
done
echo "kill/resume dumps bitwise identical at 1 and 4 threads"

# BENCH_reach.json: both runs plus the wall-clock ratio of the iterate
# phase, composed in Rust (`unicon bench speedup`, shape under test in
# src/perf.rs). The speedup key is derived from the REQUESTED thread
# counts — the experiment the benchmark was asked to run — so it never
# degenerates to a self-comparing "speedup_threads1_over_threads1" on a
# clamped 1-CPU runner; a clamp is reported in the explicit `clamped`
# field instead.
./target/release/unicon bench speedup --serial "$CI_DIR/reach_t1.json" \
    --parallel "$CI_DIR/reach_t4.json" --out BENCH_reach.json 2>/dev/null
if ! grep -q '"speedup_threads4_over_threads1":' BENCH_reach.json; then
    echo "FAIL: BENCH_reach.json lacks the requested-count speedup key"
    exit 1
fi
echo "BENCH_reach.json written ($(sed -n 's/.*\("speedup_threads4_over_threads1":[0-9.e+-]*\).*\("clamped":[a-z]*\).*/\1, \2/p' BENCH_reach.json))"

echo "==> perf history regression gate (bench history + diff)"
# Two identical snapshots must diff clean; a synthetic 2x slowdown
# (injected with the --scale-metric test hook) must trip the gate.
HIST="$CI_DIR/bench_history.jsonl"
rm -f "$HIST"
./target/release/unicon bench history --from "$CI_DIR/reach_t1.json" \
    --rev ci-base --file "$HIST" 2>/dev/null
./target/release/unicon bench history --from "$CI_DIR/reach_t1.json" \
    --rev ci-head --file "$HIST" 2>/dev/null
./target/release/unicon bench diff --file "$HIST" --threshold 10 >/dev/null 2>&1 || {
    echo "FAIL: identical snapshots reported a perf regression"
    exit 1
}
./target/release/unicon bench history --from "$CI_DIR/reach_t1.json" \
    --rev ci-slow --file "$HIST" --scale-metric 2.0 2>/dev/null
if ./target/release/unicon bench diff --file "$HIST" --threshold 10 >/dev/null 2>&1; then
    echo "FAIL: a synthetic 2x slowdown passed the perf regression gate"
    exit 1
fi
# Track the real run too: append this revision's snapshot to the
# repo-level history and report (warn-only — wall-clock noise across
# heterogeneous runners is not a hermetic contract).
REV=$(git rev-parse --short HEAD 2>/dev/null || echo local)
./target/release/unicon bench history --from "$CI_DIR/reach_t1.json" \
    --rev "$REV" --file BENCH_HISTORY.jsonl 2>/dev/null
./target/release/unicon bench diff --file BENCH_HISTORY.jsonl --threshold 25 \
    || echo "warning: iterate_ms regressed vs the previous snapshot (not fatal)"
echo "perf history gate: identical runs diff clean, injected 2x regression caught"

echo "==> profile smoke gate (folded stacks + Chrome trace from real spans)"
./target/release/unicon profile --ftwc 2 --time-bounds 10,50 \
    --folded "$CI_DIR/profile.folded" --chrome "$CI_DIR/profile.trace.json" \
    --top 5 2>/dev/null > "$CI_DIR/profile.txt"
for stack in 'build;generate' 'build;transform' 'precompute' 'query;weights'; do
    if ! grep -q "^$stack " "$CI_DIR/profile.folded"; then
        echo "FAIL: profile folded stacks lack '$stack'"
        exit 1
    fi
done
if command -v python3 >/dev/null 2>&1; then
    python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); \
evs=d["traceEvents"]; assert evs and all(e["ph"]=="X" and e["dur"]>=0 for e in evs), "bad trace"' \
        "$CI_DIR/profile.trace.json" || { echo "FAIL: Chrome trace is malformed"; exit 1; }
fi
grep -q '^query ' "$CI_DIR/profile.txt" || {
    echo "FAIL: profile --top table lacks the query span"
    exit 1
}
echo "profile emits parseable folded stacks and Chrome trace"

echo "==> construction benchmark (worklist vs reference refiner, bitwise gate)"
# bench-build rebuilds the compositional FTWC with both refiner backends,
# panics if their quotients differ bitwise, and records both minimization
# timings so the speedup claim stays honest. The JSONL trace must show
# the whole pipeline: nested spans for all five phases plus the reach
# engine's per-iteration records.
./target/release/unicon bench-build --n-list 1,2,3,4,8 --out BENCH_build.json \
    --trace-out "$CI_DIR/bench_build.jsonl" 2>/dev/null
wl=$(sed -n 's/.*"minimize_worklist_ms":\([0-9.e+-]*\),"minimize_reference_ms":\([0-9.e+-]*\).*/\1/p' BENCH_build.json | tail -1)
ref=$(sed -n 's/.*"minimize_worklist_ms":\([0-9.e+-]*\),"minimize_reference_ms":\([0-9.e+-]*\).*/\2/p' BENCH_build.json | tail -1)
last_n=$(sed -n 's/.*{"n":\([0-9]*\),.*/\1/p' BENCH_build.json)
ratio=$(awk "BEGIN { printf \"%.4f\", ($ref) / ($wl) }")
echo "BENCH_build.json written (N=$last_n minimize speedup reference/worklist: $ratio)"
for PHASE in build generate compose minimize transform precompute; do
    if ! grep -q "\"type\":\"span_close\",\"name\":\"$PHASE\"" "$CI_DIR/bench_build.jsonl"; then
        echo "FAIL: bench-build trace lacks a closed '$PHASE' span"
        exit 1
    fi
done
if ! grep -q '"type":"reach_iteration"' "$CI_DIR/bench_build.jsonl"; then
    echo "FAIL: bench-build trace lacks reach_iteration records"
    exit 1
fi
if ! grep -q '"parent":[0-9]' "$CI_DIR/bench_build.jsonl"; then
    echo "FAIL: bench-build trace has no nested spans"
    exit 1
fi
echo "bench-build trace covers all five phases with nested spans"

echo "==> proof-chain audit gate (certify FTWC N=2 and N=8, certificate round-trip)"
# The certified compositional route must produce a gap-free obligation
# chain that the independent checker replays with zero failures, the
# JSONL certificate must re-check clean, and the JSON payload must parse.
./target/release/unicon audit --ftwc 2 --cert-out "$CI_DIR/ftwc2.cert.jsonl" \
    --json 2>/dev/null > "$CI_DIR/audit.json"
if ! grep -q '"certified":true' "$CI_DIR/audit.json"; then
    echo "FAIL: FTWC N=2 proof chain did not certify"
    exit 1
fi
if ! grep -q '"handoff_ok":true' "$CI_DIR/audit.json"; then
    echo "FAIL: prepared CTMDP is not the one the ledger certifies"
    exit 1
fi
if command -v python3 >/dev/null 2>&1; then
    python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); \
assert d["certified"] and all(s["ok"] for s in d["steps"]), "failed obligations"' \
        "$CI_DIR/audit.json" || { echo "FAIL: audit --json is malformed"; exit 1; }
fi
./target/release/unicon audit --cert "$CI_DIR/ftwc2.cert.jsonl" >/dev/null 2>&1 || {
    echo "FAIL: written certificate does not re-check clean"
    exit 1
}
# A truncated certificate must be rejected (nonzero exit).
tail -n +2 "$CI_DIR/ftwc2.cert.jsonl" > "$CI_DIR/ftwc2.truncated.jsonl"
if ./target/release/unicon audit --cert "$CI_DIR/ftwc2.truncated.jsonl" >/dev/null 2>&1; then
    echo "FAIL: truncated certificate re-checked clean"
    exit 1
fi
# N=8 certifies too: each repair protocol is hidden as soon as its join
# closes it, so no intermediate product gets large.
./target/release/unicon audit --ftwc 8 --json 2>/dev/null > "$CI_DIR/audit8.json"
if ! grep -q '"certified":true' "$CI_DIR/audit8.json"; then
    echo "FAIL: FTWC N=8 proof chain did not certify"
    exit 1
fi
if ! grep -q '"handoff_ok":true' "$CI_DIR/audit8.json"; then
    echo "FAIL: prepared N=8 CTMDP is not the one the ledger certifies"
    exit 1
fi
echo "FTWC N=2 and N=8 proof chains certified; certificate round-trips and tampering is caught"

echo "==> serve protocol gate (golden JSONL session, FTWC N=4)"
# The release-only acceptance test (100 queries against FTWC N=32,
# serial + concurrent, exactly one build) rides along here.
cargo test --release -q --test serve
./target/release/unicon serve < tests/data/serve_session.jsonl 2>/dev/null \
    > "$CI_DIR/serve_responses.jsonl"
# Wall-clock fields and the effective thread count (clamped to the
# machine's parallelism) are the only environment-dependent response
# fields; normalize them, split off the metrics scrape, and require the
# rest to match the checked-in golden byte for byte.
sed -E 's/"(build|wall)_ms":[0-9.e-]+/"\1_ms":null/g;
        s/"threads_effective":[0-9]+/"threads_effective":null/g' \
    "$CI_DIR/serve_responses.jsonl" \
    | grep -v '"ok":"metrics"' > "$CI_DIR/serve_normalized.jsonl"
cmp tests/data/serve_golden.jsonl "$CI_DIR/serve_normalized.jsonl" || {
    echo "FAIL: serve responses diverge from the golden session"
    diff tests/data/serve_golden.jsonl "$CI_DIR/serve_normalized.jsonl" | head -20
    exit 1
}
grep '"ok":"metrics"' "$CI_DIR/serve_responses.jsonl" > "$CI_DIR/serve_metrics.json"
# Exposition newlines are JSON-escaped, so a literal '\n' in the needle
# pins the exact counter value.
for needle in \
    'unicon_serve_registry_misses_total 1\n' \
    'unicon_serve_registry_hits_total 1\n' \
    'unicon_serve_requests_total 14\n' \
    'unicon_serve_errors_total 3\n' \
    'unicon_serve_partials_total 2\n' \
    'unicon_serve_sessions_rejected_total 0\n' \
    'unicon_serve_queries_shed_total 0\n' \
    'unicon_serve_cache_evictions_total 0\n' \
    'unicon_serve_build_failures_total 0\n' \
    'unicon_serve_idle_timeouts_total 0\n' \
    'unicon_serve_lines_too_long_total 0\n' \
    'unicon_serve_query_latency_ns_count 8\n' \
    'unicon_serve_queue_wait_ns_count 13\n' \
    'unicon_serve_request_run_ns_count 13\n' \
    'unicon_serve_build_ns_count 1\n' \
    'unicon_reach_query_ns_count 4\n' \
    'unicon_reach_iterations_total 686\n' \
    'unicon_kernel_fixed_ps_per_state_count 4\n' \
    'unicon_kernel_single_ps_per_state_count 4\n' \
    'unicon_kernel_multi_ps_per_state_count 4\n' \
    'unicon_kernel_empty_ps_per_state_count 0\n' \
    'unicon_serve_query_latency_ns_p50 ' \
    'unicon_serve_query_latency_ns_p90 ' \
    'unicon_serve_query_latency_ns_p99 ' \
    'unicon_serve_query_latency_ns_max ' \
    'unicon_serve_queue_wait_ns_p99 ' \
    'unicon_kernel_multi_ps_per_state_p50 ' \
    '# HELP unicon_serve_queue_wait_ns ' \
    '# HELP unicon_serve_request_run_ns ' \
    '# HELP unicon_serve_build_ns ' \
    '# TYPE unicon_serve_query_latency_ns histogram' \
    '# TYPE unicon_serve_active_sessions gauge' \
    '# TYPE unicon_serve_cache_resident_bytes gauge' \
    '# TYPE unicon_serve_drain_seconds gauge'; do
    grep -qF "$needle" "$CI_DIR/serve_metrics.json" || {
        echo "FAIL: serve metrics exposition lacks '$needle'"
        exit 1
    }
done
echo "serve golden session matches; metrics exposition scraped clean"

echo "==> serve chaos gate (seeded faults, admission, eviction, drain)"
# The chaos e2e suite: client disconnects mid-query, shutdown and
# SIGTERM with work in flight, session shedding, oversized lines, idle
# timeouts, cache eviction/rebuild, plus the fault-inject-only seeded
# build panics and eviction stalls.
cargo test --release -q --test serve --features fault-inject chaos_
# Drain-mode determinism: a session that ends in a graceful `shutdown`
# drain must answer with checksums bitwise identical to one-shot
# `unicon reach`, at --threads 1 and 4.
SBOUNDS="100,500,1000"
for T in 1 4; do
    ./target/release/unicon reach --ftwc 4 --time-bounds "$SBOUNDS" --threads "$T" \
        --json "$CI_DIR/serve_reach_t$T.json" >/dev/null 2>&1
    tr ',' '\n' < "$CI_DIR/serve_reach_t$T.json" \
        | sed -n 's/.*"checksum":"\([0-9a-f]*\)".*/\1/p' > "$CI_DIR/serve_reach_t$T.sums"
    {
        printf '{"register": {"ftwc": 4}}\n'
        for t in 100 500 1000; do
            printf '{"query": {"model": "41d013b62fd7dcf5", "t": %s, "threads": %s}}\n' \
                "$t" "$T"
        done
        printf '{"shutdown": {}}\n'
    } > "$CI_DIR/serve_drain_t$T.jsonl"
    # `set -e` enforces the drain contract: the shutdown verb must end
    # the session cleanly with exit status 0.
    ./target/release/unicon serve < "$CI_DIR/serve_drain_t$T.jsonl" 2>/dev/null \
        > "$CI_DIR/serve_drain_out_t$T.jsonl"
    sed -n 's/.*"checksum":"\([0-9a-f]*\)".*/\1/p' "$CI_DIR/serve_drain_out_t$T.jsonl" \
        > "$CI_DIR/serve_drain_t$T.sums"
    if [ "$(wc -l < "$CI_DIR/serve_drain_t$T.sums")" -ne 3 ]; then
        echo "FAIL: drained serve session did not answer all 3 queries (threads $T)"
        exit 1
    fi
    if ! cmp -s "$CI_DIR/serve_reach_t$T.sums" "$CI_DIR/serve_drain_t$T.sums"; then
        echo "FAIL: drained serve checksums diverge from unicon reach (threads $T)"
        exit 1
    fi
done
if ! cmp -s "$CI_DIR/serve_drain_t1.sums" "$CI_DIR/serve_drain_t4.sums"; then
    echo "FAIL: drained serve checksums diverge between --threads 1 and 4"
    exit 1
fi
echo "chaos suite green; drained sessions bitwise-match one-shot reach at 1 and 4 threads"

echo "==> paper Figure 4 gate (N = 4 panel: the CTMC overestimates the CTMDP worst case)"
# `paper figure4` exits 1 unless the Γ-resolved CTMC exceeds the CTMDP
# worst case at every point of its 10-point grid up to t = 2000 h.
./target/release/unicon paper figure4 --n 4 > "$CI_DIR/figure4_n4.txt" || {
    echo "FAIL: Figure 4 (N = 4): the CTMC does not exceed the CTMDP worst case"
    exit 1
}
echo "Figure 4, N = 4: the CTMC exceeds the CTMDP worst case at every grid point"

echo "==> determinism source lint gate"
./target/release/unicon det-lint --deny warnings 2>/dev/null
./target/release/unicon det-lint --json 2>/dev/null > "$CI_DIR/detlint.json"
if ! grep -q '"count":0' "$CI_DIR/detlint.json"; then
    echo "FAIL: determinism hazards in the tree"
    exit 1
fi
echo "det-lint clean under --deny warnings"

echo "CI OK"
