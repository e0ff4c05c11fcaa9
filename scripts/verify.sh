#!/usr/bin/env sh
# Tier-1 verification gate (see ROADMAP.md). Everything runs offline: the
# workspace has zero external crates, so no registry access is needed.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline --workspace"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> cargo doc --no-deps --offline (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --offline

echo "==> sharded replay determinism smoke (tquad/quad/gprof, 4 shards vs sequential)"
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
for tool in tquad quad gprof; do
    ./target/release/tq "$tool" --app img --scale tiny --jobs 1 > "$smoke_dir/$tool.seq"
    ./target/release/tq "$tool" --app img --scale tiny --jobs 4 > "$smoke_dir/$tool.sharded"
    diff "$smoke_dir/$tool.seq" "$smoke_dir/$tool.sharded" \
        || { echo "verify: FAIL ($tool sharded output diverged)"; exit 1; }
done
# QUAD's orphan runs stitch differently per stack and library policy.
for opt in --exclude-stack --track-libs; do
    ./target/release/tq quad --app img --scale tiny $opt --jobs 1 > "$smoke_dir/quad$opt.seq"
    ./target/release/tq quad --app img --scale tiny $opt --jobs 4 > "$smoke_dir/quad$opt.sharded"
    diff "$smoke_dir/quad$opt.seq" "$smoke_dir/quad$opt.sharded" \
        || { echo "verify: FAIL (quad $opt sharded output diverged)"; exit 1; }
done
tq_bin="$(pwd)/target/release/tq"
for jobs in 1 4; do
    mkdir "$smoke_dir/wfs.j$jobs"
    (cd "$smoke_dir/wfs.j$jobs" \
        && "$tq_bin" quad --app wfs --scale tiny --jobs "$jobs" --dot qdu.dot > quad.out)
done
diff "$smoke_dir/wfs.j1/quad.out" "$smoke_dir/wfs.j4/quad.out" \
    && cmp "$smoke_dir/wfs.j1/qdu.dot" "$smoke_dir/wfs.j4/qdu.dot" \
    || { echo "verify: FAIL (quad wfs sharded output or QDU graph diverged)"; exit 1; }
if ./target/release/tq tquad --app img --scale tiny --interval 0 > /dev/null 2>&1; then
    echo "verify: FAIL (--interval 0 must be rejected)"; exit 1
fi
# A flag the subcommand does not read is an error, not silently ignored.
if ./target/release/tq phases --scale tiny --strategy interval \
    > /dev/null 2> "$smoke_dir/unknown_flag.err"; then
    echo "verify: FAIL (unknown flag --strategy must be rejected)"; exit 1
fi
grep -q -- "--strategy" "$smoke_dir/unknown_flag.err" \
    || { echo "verify: FAIL (unknown-flag error does not name --strategy)"; exit 1; }

echo "==> repro_paper smoke (TQ_SCALE=tiny): the nine artefacts, repo results/ untouched"
# Run from a scratch cwd: without CARGO_MANIFEST_DIR the bin writes to
# <cwd>/results/. The paper's predicates hold only at paper scale, so this
# checks the run and its artefact set, not the numbers.
repro_bin="$(pwd)/target/release/repro_paper"
cp -R results "$smoke_dir/results.before"
mkdir "$smoke_dir/repro"
(cd "$smoke_dir/repro" && TQ_SCALE=tiny "$repro_bin" > repro.out) \
    || { echo "verify: FAIL (repro_paper exited non-zero)"; exit 1; }
artefacts=$(cd "$smoke_dir/repro/results" && LC_ALL=C ls | tr '\n' ' ')
[ "$artefacts" = "fig6.html fig6_read_incl_series.tsv fig7_write_excl_series.tsv \
qdu_graph.dot table1_call_graph.csv table1_flat_profile.csv table2_quad.csv \
table3_instrumented_profile.csv table4_phases.csv " ] \
    || { echo "verify: FAIL (repro_paper wrote [$artefacts], not the nine artefacts)"; exit 1; }
diff -r results "$smoke_dir/results.before" > /dev/null \
    || { echo "verify: FAIL (repro_paper changed the repo's results/)"; exit 1; }
if (cd "$smoke_dir/repro" && TQ_SCALE=smal "$repro_bin" > /dev/null 2>&1); then
    echo "verify: FAIL (an unknown TQ_SCALE must be rejected)"; exit 1
fi

echo "==> TQTRACE5 smoke: capture <= 4.5 B/event, live profiles == capture replays"
# The <= 0.7x-the-row-stream check against the reference row codec lives
# in crates/tq-trace/tests/row_oracle.rs.
./target/release/tq capture --app wfs --scale tiny \
    --out "$smoke_dir/cap.v3" > "$smoke_dir/capture.out"
n_events=$(sed -n 's/.*: \([0-9]*\) events, [0-9]* bytes (.*/\1/p' "$smoke_dir/capture.out")
cap_bytes=$(sed -n 's/.* events, \([0-9]*\) bytes (.*/\1/p' "$smoke_dir/capture.out")
[ -n "$n_events" ] && [ -n "$cap_bytes" ] \
    || { echo "verify: FAIL (capture summary lacks the event or byte count)"; exit 1; }
[ "$(wc -c < "$smoke_dir/cap.v3")" -eq "$cap_bytes" ] \
    || { echo "verify: FAIL (capture summary byte count disagrees with the file)"; exit 1; }
[ "$((cap_bytes * 10))" -le "$((n_events * 45))" ] \
    || { echo "verify: FAIL (v3 capture $cap_bytes bytes > 4.5 B/event over $n_events events)"; exit 1; }
# gprof's live ticks carry the routine of the current instruction, replayed
# ticks the last event's (see `Trace::replay`), so its reference is a fresh
# recording replayed in memory (--jobs 2), not the live run; tquad and quad
# are live-exact.
for tool in tquad quad gprof; do
    case "$tool" in gprof) live_jobs=2 ;; *) live_jobs=1 ;; esac
    ./target/release/tq "$tool" --app wfs --scale tiny --jobs "$live_jobs" > "$smoke_dir/$tool.live"
    ./target/release/tq "$tool" --capture "$smoke_dir/cap.v3" > "$smoke_dir/$tool.capv3"
    diff "$smoke_dir/$tool.live" "$smoke_dir/$tool.capv3" \
        || { echo "verify: FAIL ($tool profile diverged between the live run and the v3 capture)"; exit 1; }
done
./target/release/tq tquad --capture "$smoke_dir/cap.v3" --jobs 2 \
    --trace-out "$smoke_dir/streaming.trace.json" \
    > "$smoke_dir/tquad.capv3.j2" 2> /dev/null
diff "$smoke_dir/tquad.capv3" "$smoke_dir/tquad.capv3.j2" \
    || { echo "verify: FAIL (sharded streaming replay diverged from sequential)"; exit 1; }
./target/release/check_trace "$smoke_dir/streaming.trace.json" \
    replay_sharded shard-0 shard-1 \
    || { echo "verify: FAIL (sharded replay spans missing from the streaming run)"; exit 1; }

# The bench gates save host-dependent numbers into results/. Snapshot the
# committed file before a gate; afterwards move the fresh output into the
# smoke dir and put the committed file back, so a verify run leaves
# results/ as it found it.
snapshot_result() {
    cp "results/$1" "$smoke_dir/$1.committed"
}
restore_result() {
    mv "results/$1" "$smoke_dir/$1.fresh"
    cp "$smoke_dir/$1.committed" "results/$1"
    cmp "results/$1" "$smoke_dir/$1.committed" \
        || { echo "verify: FAIL (results/$1 not restored)"; exit 1; }
}

# Timing-ratio guards measure wall-clock speedups on a shared single-core
# box; a background-load burst can sink a run that passes when quiet. Give
# each guard a few attempts — the floors themselves stay untouched.
bench_guard() {
    _bench="$1"; _iters="$2"; _attempts=3
    while :; do
        TQ_BENCH_ITERS="$_iters" cargo bench -q --offline -p tq-bench --bench "$_bench" && return 0
        _attempts=$((_attempts - 1))
        [ "$_attempts" -gt 0 ] || return 1
        echo "==> $_bench guard failed (noisy box?), retrying ($_attempts attempt(s) left)"
        sleep 2
    done
}

echo "==> obs smoke: --trace-out exports a valid Chrome trace"
./target/release/tq tquad --app img --scale tiny --jobs 2 \
    --trace-out "$smoke_dir/replay.trace.json" > /dev/null 2>&1
./target/release/check_trace "$smoke_dir/replay.trace.json" \
    capture decode shard-0 shard-1 merge \
    || { echo "verify: FAIL (trace-out export invalid)"; exit 1; }
./target/release/tq tquad --app img --scale tiny --jobs 2 --no-obs \
    --trace-out "$smoke_dir/empty.trace.json" > /dev/null 2>&1
./target/release/check_trace "$smoke_dir/empty.trace.json" \
    || { echo "verify: FAIL (--no-obs trace must still be valid JSON)"; exit 1; }

echo "==> obs smoke: tq serve answers a metrics request"
./target/release/tq serve --addr 127.0.0.1:0 --workers 1 \
    > "$smoke_dir/serve.out" 2> /dev/null &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^tq-profd listening on //p' "$smoke_dir/serve.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "verify: FAIL (tq serve did not come up)"; exit 1; }
./target/release/tq submit --addr "$addr" --tool gprof --scale tiny > /dev/null 2>&1 \
    || { echo "verify: FAIL (submit against smoke server)"; exit 1; }
# quad has no interval: a submit without --interval must not trip the
# positive-interval check.
./target/release/tq submit --addr "$addr" --tool quad --scale tiny > /dev/null 2>&1 \
    || { echo "verify: FAIL (quad submit without --interval)"; exit 1; }
./target/release/tq submit --addr "$addr" --metrics > "$smoke_dir/metrics.txt" 2>&1 \
    || { echo "verify: FAIL (metrics request)"; exit 1; }
for needle in \
    "# TYPE tq_profd_jobs_submitted_total counter" \
    "# TYPE tq_profd_queue_depth gauge" \
    "# TYPE tq_profd_job_micros histogram" \
    "# TYPE tq_vm_blocks_fused_total counter"; do
    grep -q "$needle" "$smoke_dir/metrics.txt" \
        || { echo "verify: FAIL (metrics missing: $needle)"; exit 1; }
done
./target/release/tq submit --addr "$addr" --shutdown > /dev/null 2>&1 || true
wait "$serve_pid" 2> /dev/null || true

echo "==> fleet smoke: 2-node fleet shards the capture cache (one recording fleet-wide)"
# Find two free loopback ports: bind ephemeral throwaway servers, note
# their addresses, shut them down. The fleet roster must be fixed before
# either real member starts, which rules out port 0.
./target/release/tq serve --addr 127.0.0.1:0 --workers 1 \
    > "$smoke_dir/probe1.out" 2> /dev/null &
probe1_pid=$!
./target/release/tq serve --addr 127.0.0.1:0 --workers 1 \
    > "$smoke_dir/probe2.out" 2> /dev/null &
probe2_pid=$!
fleet_a=""
fleet_b=""
for _ in $(seq 1 50); do
    fleet_a=$(sed -n 's/^tq-profd listening on //p' "$smoke_dir/probe1.out")
    fleet_b=$(sed -n 's/^tq-profd listening on //p' "$smoke_dir/probe2.out")
    [ -n "$fleet_a" ] && [ -n "$fleet_b" ] && break
    sleep 0.1
done
[ -n "$fleet_a" ] && [ -n "$fleet_b" ] \
    || { echo "verify: FAIL (fleet port probes did not come up)"; exit 1; }
./target/release/tq submit --addr "$fleet_a" --shutdown > /dev/null 2>&1 || true
./target/release/tq submit --addr "$fleet_b" --shutdown > /dev/null 2>&1 || true
wait "$probe1_pid" 2> /dev/null || true
wait "$probe2_pid" 2> /dev/null || true

./target/release/tq serve --addr "$fleet_a" --workers 1 --peers "$fleet_b" \
    > /dev/null 2>&1 &
fleet_a_pid=$!
./target/release/tq serve --addr "$fleet_b" --workers 1 --peers "$fleet_a" \
    > /dev/null 2>&1 &
fleet_b_pid=$!
up=""
for _ in $(seq 1 50); do
    if ./target/release/tq submit --addr "$fleet_a" --ping > /dev/null 2>&1 \
        && ./target/release/tq submit --addr "$fleet_b" --ping > /dev/null 2>&1; then
        up=yes
        break
    fi
    sleep 0.1
done
[ -n "$up" ] || { echo "verify: FAIL (fleet members did not come up)"; exit 1; }

# Every member answers `route` with the same deterministic ring owner.
owner=$(./target/release/tq submit --addr "$fleet_a" --route --app wfs --scale tiny \
    2> /dev/null | sed -n 's/.*"owner":"\([^"]*\)".*/\1/p')
case "$owner" in
    "$fleet_a") non_owner=$fleet_b ;;
    "$fleet_b") non_owner=$fleet_a ;;
    *) echo "verify: FAIL (route owner '$owner' is not a fleet member)"; exit 1 ;;
esac

# Submit to the NON-owner: it must serve the job by peeking the owner's
# cache (which records on demand), never by recording locally.
./target/release/tq submit --addr "$non_owner" --app wfs --scale tiny \
    > "$smoke_dir/fleet.profile" 2> /dev/null \
    || { echo "verify: FAIL (fleet submit to non-owner)"; exit 1; }
owner_stats=$(./target/release/tq submit --addr "$owner" --stats 2> /dev/null)
non_owner_stats=$(./target/release/tq submit --addr "$non_owner" --stats 2> /dev/null)
printf '%s' "$owner_stats" | grep -q '"cache_misses":1' \
    || { echo "verify: FAIL (owner must hold the fleet's one recording)"; exit 1; }
printf '%s' "$owner_stats" | grep -q '"peek_serves":1' \
    || { echo "verify: FAIL (owner never served the peek)"; exit 1; }
printf '%s' "$non_owner_stats" | grep -q '"cache_misses":0' \
    || { echo "verify: FAIL (non-owner recorded instead of peeking)"; exit 1; }
printf '%s' "$non_owner_stats" | grep -q '"peek_fetches":1' \
    || { echo "verify: FAIL (non-owner never fetched from the owner)"; exit 1; }
printf '%s' "$non_owner_stats" | grep -q '"role":"fleet"' \
    || { echo "verify: FAIL (fleet member reports wrong role)"; exit 1; }

echo "==> fleet telemetry smoke: merged trace correlates hops, merged metrics carry peer labels"
# The routed submit above tagged spans on BOTH peers (submit + job on the
# non-owner, peek-serve on the owner) with one client-minted job_id. The
# merged trace must show that id under two distinct pid tracks, with each
# peer's clock offset estimated from the scrape round-trip.
./target/release/tq fleet-trace --peers "$fleet_a,$fleet_b" \
    --out "$smoke_dir/fleet.trace.json" > /dev/null 2> /dev/null \
    || { echo "verify: FAIL (fleet-trace scrape)"; exit 1; }
./target/release/check_fleet_trace "$smoke_dir/fleet.trace.json" 2 \
    || { echo "verify: FAIL (merged trace lacks a cross-peer job_id)"; exit 1; }
./target/release/tq fleet-status --peers "$fleet_a,$fleet_b" \
    > "$smoke_dir/fleet_status.txt" 2> /dev/null \
    || { echo "verify: FAIL (fleet-status)"; exit 1; }
grep -q "$fleet_a" "$smoke_dir/fleet_status.txt" \
    && grep -q "$fleet_b" "$smoke_dir/fleet_status.txt" \
    || { echo "verify: FAIL (fleet-status table missing a peer row)"; exit 1; }
./target/release/tq fleet-status --peers "$fleet_a,$fleet_b" --metrics \
    > "$smoke_dir/fleet_metrics.txt" 2> /dev/null \
    || { echo "verify: FAIL (fleet-status --metrics)"; exit 1; }
# Every peer's startup log record registers tq_log_records_total, so both
# peer labels must appear; the routed submit tagged a job on one of them.
grep -q "tq_log_records_total{peer=\"$fleet_a\"}" "$smoke_dir/fleet_metrics.txt" \
    && grep -q "tq_log_records_total{peer=\"$fleet_b\"}" "$smoke_dir/fleet_metrics.txt" \
    || { echo "verify: FAIL (merged exposition lacks per-peer log counters)"; exit 1; }
grep -q 'tq_job_tagged_total{peer="' "$smoke_dir/fleet_metrics.txt" \
    || { echo "verify: FAIL (no peer counted a client-tagged job)"; exit 1; }
./target/release/tq submit --addr "$fleet_a" --shutdown > /dev/null 2>&1 || true
./target/release/tq submit --addr "$fleet_b" --shutdown > /dev/null 2>&1 || true
wait "$fleet_a_pid" \
    || { echo "verify: FAIL (fleet node A unclean exit)"; exit 1; }
wait "$fleet_b_pid" \
    || { echo "verify: FAIL (fleet node B unclean exit)"; exit 1; }

echo "==> fleet_load bench gate (redirect/peek/remote-owned counters nonzero)"
snapshot_result fleet_load.tsv
gate_ok=yes
TQ_BENCH_ITERS=1 cargo bench -q --offline -p tq-bench --bench fleet_load || gate_ok=""
restore_result fleet_load.tsv
[ -n "$gate_ok" ] || { echo "verify: FAIL (fleet_load gates)"; exit 1; }

echo "==> --instr smoke (filter:* identical to full, reduced profile labelled)"
./target/release/tq tquad --app img --scale tiny > "$smoke_dir/instr.full"
./target/release/tq tquad --app img --scale tiny --instr 'filter:*' > "$smoke_dir/instr.all"
diff "$smoke_dir/instr.full" "$smoke_dir/instr.all" \
    || { echo "verify: FAIL (--instr filter:* diverged from full)"; exit 1; }
./target/release/tq tquad --app img --scale tiny --instr sample:4 \
    | grep -q '# instr sample:4' \
    || { echo "verify: FAIL (sampled profile lacks its instr note)"; exit 1; }
if ./target/release/tq tquad --app img --scale tiny --instr sample:4 \
    --capture "$smoke_dir/nope.trace" > /dev/null 2>&1; then
    echo "verify: FAIL (--instr with --capture must be rejected)"; exit 1
fi
# Convergence gating was removed: its spec is a parse error (exit 1, no
# panic), not a silently full run.
if ./target/release/tq tquad --app img --scale tiny --instr converge:0.1,6 \
    > /dev/null 2> "$smoke_dir/instr.converge.err"; then
    echo "verify: FAIL (--instr converge:... must be rejected)"; exit 1
fi
grep -q "unknown --instr part \`converge\`" "$smoke_dir/instr.converge.err" \
    || { echo "verify: FAIL (--instr converge:... is not a parse error)"; exit 1; }

echo "==> docs dead-flag smoke (every --flag the docs name must exist in tq usage)"
tq_usage=$(./target/release/tq 2>&1 || true)
for flag in $(grep -ohE -- '--[a-z][a-z-]+' docs/CLI.md docs/OPERATIONS.md docs/ACCURACY.md \
    | sort -u | grep -vx -e '--flag' -e '--bench'); do
    # --flag is CLI.md's syntax placeholder; --bench is a cargo flag.
    printf '%s' "$tq_usage" | grep -q -- "$flag" \
        || { echo "verify: FAIL (docs name unknown flag $flag)"; exit 1; }
done

echo "==> instr_accuracy bench gate (sample >= 1.3x faster within its error bound)"
snapshot_result instr_accuracy.tsv
gate_ok=yes
bench_guard instr_accuracy 3 || gate_ok=""
restore_result instr_accuracy.tsv
[ -n "$gate_ok" ] || { echo "verify: FAIL (instr_accuracy gates)"; exit 1; }

echo "verify: OK"
