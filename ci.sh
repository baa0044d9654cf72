#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the full test suite.
# Everything runs offline against the vendored dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (no dangling doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo test"
cargo test --workspace -q

echo "==> bench smoke (schema check, live epoch streaming on)"
bench_dir="$(mktemp -d)"
trap 'rm -rf "$bench_dir"' EXIT
cargo build --release -q -p rip-bench --bin repro --bin ripsim

# The sorted set of JSON keys a BENCH file emits — the schema contract
# pinned by tests/bench_schema_expected.txt.
bench_keys() {
  grep -o '"[a-z_0-9]*":' "$1" | sort -u
}

# scrape_metrics <port-file> <out-file> <required-regex>... — wait for
# the port file, then scrape the Prometheus endpoint with retries and
# exponential backoff (0.1 s doubling to a 1.6 s cap) until one
# response carries every required regex. A freshly bound endpoint or a
# family that appears only after the first epoch flush is a retry, not
# a flake.
scrape_metrics() {
  local port_file="$1" out="$2" port delay pat ok
  shift 2
  for _ in $(seq 1 100); do
    [ -s "$port_file" ] && break
    sleep 0.1
  done
  test -s "$port_file" || return 1
  port="$(tr -d '[:space:]' < "$port_file")"
  delay=0.1
  for _ in $(seq 1 40); do
    if exec 3<>"/dev/tcp/127.0.0.1/$port" 2> /dev/null; then
      printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
      cat <&3 > "$out"
      exec 3<&- 3>&-
      ok=yes
      for pat in "$@"; do
        grep -q "$pat" "$out" || ok=""
      done
      if [ -n "$ok" ]; then
        return 0
      fi
    fi
    sleep "$delay"
    delay="$(awk -v d="$delay" 'BEGIN { printf "%.1f", (d * 2 > 1.6) ? 1.6 : d * 2 }')"
  done
  return 1
}

(cd "$bench_dir" && "$OLDPWD/target/release/repro" bench --quick --live-epochs > /dev/null)
# profile-overhead asserts byte-identical outputs with the profiler on
# and exits nonzero above 3% overhead; the gate below re-checks the
# emitted file so a stale artifact can never pass.
(cd "$bench_dir" && "$OLDPWD/target/release/repro" profile-overhead --quick > /dev/null)
for f in BENCH_sps_throughput.json BENCH_hbm_access.json BENCH_streaming_memory.json \
         BENCH_telemetry_overhead.json BENCH_profile_overhead.json; do
  bench_keys "$bench_dir/$f" > "$bench_dir/$f.keys"
done
cat "$bench_dir"/BENCH_sps_throughput.json.keys "$bench_dir"/BENCH_hbm_access.json.keys \
  "$bench_dir"/BENCH_streaming_memory.json.keys \
  "$bench_dir"/BENCH_telemetry_overhead.json.keys \
  "$bench_dir"/BENCH_profile_overhead.json.keys \
  | sort -u > "$bench_dir/bench.keys"
diff -u tests/bench_schema_expected.txt "$bench_dir/bench.keys" \
  || { echo "BENCH_*.json schema drifted from tests/bench_schema_expected.txt"; exit 1; }
test -s "$bench_dir/BENCH_sps_epochs.jsonl" \
  || { echo "bench --live-epochs produced no BENCH_sps_epochs.jsonl"; exit 1; }

echo "==> self-profiler overhead gate (<3%, outputs byte-identical)"
grep -q '"byte_identical": true' "$bench_dir/BENCH_profile_overhead.json" \
  || { echo "profiler changed a deterministic output"; exit 1; }
prof_frac="$(grep -o '"overhead_frac": *[-0-9.e]*' "$bench_dir/BENCH_profile_overhead.json" \
  | grep -o '[-0-9.e]*$')"
test -n "$prof_frac" || { echo "overhead_frac missing from BENCH_profile_overhead.json"; exit 1; }
awk -v o="$prof_frac" 'BEGIN { exit !(o < 0.03) }' \
  || { echo "self-profiler overhead $prof_frac is at or above the 3% budget"; exit 1; }
echo "profiler overhead_frac $prof_frac (budget < 0.03)"

echo "==> entry-point equivalence suite (plain vs checkpointed, byte-identical outputs)"
cargo test --release -q -p rip-integration-tests --test kernel_equivalence \
  || { echo "entry-point equivalence suite failed"; exit 1; }

echo "==> streaming soak smoke (bounded in-flight memory + live epoch determinism)"
# ripsim soak runs the spec at 1x and 4x its horizon and exits nonzero
# if offered traffic does not scale, the in-flight peak grows or a
# watchdog fires; its stdout is the live epoch stream of both runs.
for d in soak_a soak_b; do
  target/release/ripsim soak configs/soak_live.json > "$bench_dir/$d.jsonl" \
    || { echo "healthy streaming soak failed"; exit 1; }
done
cmp "$bench_dir/soak_a.jsonl" "$bench_dir/soak_b.jsonl" \
  || { echo "same-seed live soak streams are not byte-identical"; exit 1; }

echo "==> chrome trace export (same-seed byte identity)"
target/release/ripsim trace --chrome "$bench_dir/trace_a.json" configs/soak_live.json 2> /dev/null
target/release/ripsim trace --chrome "$bench_dir/trace_b.json" configs/soak_live.json 2> /dev/null
cmp "$bench_dir/trace_a.json" "$bench_dir/trace_b.json" \
  || { echo "same-seed chrome trace exports are not byte-identical"; exit 1; }
grep -q '"ph":"X"' "$bench_dir/trace_a.json" \
  || { echo "chrome trace export carries no duration events"; exit 1; }
grep -q '"name":"ch00/b00"' "$bench_dir/trace_a.json" \
  || { echo "chrome trace export carries no per-bank HBM tracks"; exit 1; }

echo "==> metrics endpoint smoke (live scrape during soak, profiler on)"
target/release/ripsim soak configs/soak_live.json --profile \
  --metrics 127.0.0.1:0 --metrics-port-file "$bench_dir/metrics.port" \
  --metrics-hold-ms 8000 \
  > "$bench_dir/soak_live.jsonl" 2> "$bench_dir/soak_live.log" &
soak_pid=$!
scrape_metrics "$bench_dir/metrics.port" "$bench_dir/scrape.txt" \
  '^rip_switch_packets_delivered_total{source="switch"} [0-9]' \
  '^ripsim_profile_phase_seconds_total{source="engine"' \
  || true # asserted below, after the soak is reaped
wait "$soak_pid" || { echo "healthy live soak exited nonzero"; exit 1; }
grep -q '^rip_switch_packets_delivered_total{source="switch"} [0-9]' "$bench_dir/scrape.txt" \
  || { echo "metrics scrape never returned switch totals"; exit 1; }
# The profiler's wall-clock families ride the same endpoint, on their
# own ripsim_profile_* names.
grep -q '^ripsim_profile_phase_seconds_total{source="engine"' "$bench_dir/scrape.txt" \
  || { echo "metrics scrape carries no ripsim_profile_* families"; exit 1; }
grep -q '^ripsim_profile_records_total{source="engine"} [0-9]' "$bench_dir/scrape.txt" \
  || { echo "metrics scrape is missing ripsim_profile_records_total"; exit 1; }
# Exposition grammar spot-checks: HELP and TYPE exactly once per family.
grep -q '^# HELP rip_switch_packets_delivered_total ' "$bench_dir/scrape.txt" \
  || { echo "scrape is missing HELP lines"; exit 1; }
test "$(grep -c '^# TYPE rip_switch_packets_delivered_total counter$' "$bench_dir/scrape.txt")" = 1 \
  || { echo "scrape repeats TYPE for a family"; exit 1; }
test "$(grep -c '^# TYPE ripsim_profile_phase_seconds_total counter$' "$bench_dir/scrape.txt")" = 1 \
  || { echo "scrape repeats TYPE for the profile family"; exit 1; }
grep -q 'le="+Inf"' "$bench_dir/scrape.txt" \
  || { echo "scrape is missing histogram +Inf buckets"; exit 1; }

echo "==> SLO watchdog smoke (injected channel fault must fail the soak)"
if target/release/ripsim soak configs/soak_live.json --inject-channel-fault 0 \
     > /dev/null 2> "$bench_dir/soak_fault.log"; then
  echo "fault-injected soak unexpectedly exited zero"; exit 1
fi
grep -q 'DegradedCapacity' "$bench_dir/soak_fault.log" \
  || { echo "fault-injected soak fired no degraded-capacity watchdog"; exit 1; }

echo "==> fault-plan validation (an unservable plan is a typed error, not a panic)"
# One channel per stripe subset: losing channel 0 leaves subset 0 with
# no live channel, which validation must reject before the run starts.
sed 's/"stripe_channels": null/"stripe_channels": 1/' configs/quickstart.json \
  > "$bench_dir/stripe1.json"
grep -q '"stripe_channels": 1' "$bench_dir/stripe1.json" \
  || { echo "could not derive the one-channel-stripe spec"; exit 1; }
if target/release/ripsim soak "$bench_dir/stripe1.json" --inject-channel-fault 0 \
     > /dev/null 2> "$bench_dir/stripe1.log"; then
  echo "unservable fault plan unexpectedly exited zero"; exit 1
fi
grep -q 'fault plan cannot be served at .* on switch 0: every channel of stripe subset 0 has failed' \
  "$bench_dir/stripe1.log" \
  || { echo "unservable fault plan produced no typed error"; exit 1; }
if grep -q 'panicked' "$bench_dir/stripe1.log"; then
  echo "unservable fault plan panicked"; exit 1
fi

# expect_fails <code> <log> <typed-regex> <cmd>... — the command exits
# with exactly <code>, its stderr carries the typed message, and nothing
# panicked.
expect_fails() {
  local want="$1" log="$2" pat="$3" rc=0
  shift 3
  "$@" > /dev/null 2> "$log" || rc=$?
  test "$rc" = "$want" || { echo "$* exited $rc, want $want"; exit 1; }
  grep -q -e "$pat" "$log" || { echo "$* gave no typed error matching $pat"; exit 1; }
  if grep -q 'panicked' "$log"; then
    echo "$* panicked"; exit 1
  fi
}
# The soak runs one switch: channel 8 is outside its 0..8 channels even
# though the router as a whole has 32.
expect_fails 1 "$bench_dir/ch8.log" 'channel 8 out of range' \
  target/release/ripsim soak configs/soak_live.json --inject-channel-fault 8
expect_fails 2 "$bench_dir/trace_metrics.log" '--metrics does not apply to trace' \
  target/release/ripsim trace --metrics 127.0.0.1:0
expect_fails 2 "$bench_dir/trace_no_chrome.log" '--chrome' \
  target/release/ripsim trace configs/quickstart.json
expect_fails 2 "$bench_dir/repro_e99.log" 'unknown experiment E99' \
  target/release/repro E99
# A spec that still carries the retired top-level drain_factor is
# refused with a pointer to router.drain, not run at another deadline.
sed 's/"seed": 42,/"seed": 42, "drain_factor": 4,/' configs/quickstart.json \
  > "$bench_dir/drain_factor.json"
expect_fails 2 "$bench_dir/drain_factor.log" 'router.drain' \
  target/release/ripsim "$bench_dir/drain_factor.json"

echo "==> flight recorder smoke (watchdog trip dumps a parseable bundle)"
mkdir "$bench_dir/flight"
if target/release/ripsim soak configs/soak_live.json --inject-channel-fault 0 \
     --profile --flight-dir "$bench_dir/flight" \
     > /dev/null 2> "$bench_dir/flight_fault.log"; then
  echo "fault-injected soak with flight recorder unexpectedly exited zero"; exit 1
fi
test -f "$bench_dir/flight/flight_watchdog.json" \
  || { echo "watchdog trip left no flight_watchdog.json"; exit 1; }
target/release/ripsim flight-check "$bench_dir/flight/flight_watchdog.json" \
  || { echo "flight bundle failed validation"; exit 1; }

echo "==> soak SIGINT smoke (plain and checkpointing: exit 130, stdout up to the flight bundle, resumable)"
# The shipped soak ends in well under a second; a 1000x horizon keeps
# the plain soak streaming until the signal is polled at the next epoch
# boundary.
sed 's/"horizon_us": 20,/"horizon_us": 20000,/' configs/soak_live.json \
  > "$bench_dir/soak_long.json"
grep -q '"horizon_us": 20000,' "$bench_dir/soak_long.json" \
  || { echo "could not derive the long-horizon soak spec"; exit 1; }

# sigint_soak <tag> <spec> <ready-file> [flag]... — start a soak, send
# SIGINT once <ready-file> is non-empty, and check that it exits 130
# without a panic, leaves a valid flight_signal.json, and that stdout's
# last epoch record is the bundle's last retained epoch (the bundle's
# watchdog events, which carry epochs too, are cut off first).
sigint_soak() {
  local tag="$1" spec="$2" ready="$3" pid rc=0 bundle want got
  shift 3
  mkdir "$bench_dir/flight_$tag"
  target/release/ripsim soak "$spec" --flight-dir "$bench_dir/flight_$tag" "$@" \
    > "$bench_dir/$tag.jsonl" 2> "$bench_dir/$tag.log" &
  pid=$!
  for _ in $(seq 1 2000); do
    [ -s "$ready" ] && break
    sleep 0.01
  done
  if ! [ -s "$ready" ]; then
    kill -9 "$pid" 2> /dev/null || true
    echo "$tag soak never wrote $ready"; exit 1
  fi
  kill -INT "$pid"
  wait "$pid" || rc=$?
  test "$rc" = 130 || { echo "interrupted $tag soak exited $rc, want 130"; exit 1; }
  bundle="$bench_dir/flight_$tag/flight_signal.json"
  test -f "$bundle" || { echo "interrupted $tag soak left no flight_signal.json"; exit 1; }
  target/release/ripsim flight-check "$bundle" \
    || { echo "$tag signal flight bundle failed validation"; exit 1; }
  if grep -q 'panicked' "$bench_dir/$tag.log"; then
    echo "interrupted $tag soak panicked"; exit 1
  fi
  want="$(sed 's/"watchdogs":.*//' "$bundle" \
    | grep -o '"source":"[^"]*","epoch":[0-9]*' | tail -n 1)"
  got="$(grep '"record":"epoch"' "$bench_dir/$tag.jsonl" | tail -n 1 \
    | grep -o '"source":"[^"]*","epoch":[0-9]*')"
  if [ -z "$want" ] || [ "$got" != "$want" ]; then
    echo "interrupted $tag soak's stdout ends at {$got}, its flight bundle at {$want}"; exit 1
  fi
}

# check_resume <tag> <part1.jsonl> <snapshot> — resume the checkpointed
# soak from <snapshot>: the first keep_lines=K lines of the interrupted
# stream plus the continuation must be byte-identical to the
# uninterrupted run.
check_resume() {
  local tag="$1" part1="$2" snap="$3" keep
  target/release/ripsim soak configs/soak_ckpt.json --resume "$snap" \
    > "$bench_dir/${tag}_part2.jsonl" 2> "$bench_dir/${tag}_resume.log" \
    || { echo "$tag: resume from snapshot failed"; exit 1; }
  keep="$(grep -o 'keep_lines=[0-9]*' "$bench_dir/${tag}_resume.log" | cut -d= -f2)"
  test -n "$keep" || { echo "$tag: resume reported no keep_lines"; exit 1; }
  head -n "$keep" "$part1" | cat - "$bench_dir/${tag}_part2.jsonl" \
    > "$bench_dir/${tag}_merged.jsonl"
  cmp "$bench_dir/${tag}_merged.jsonl" "$bench_dir/ckpt_base.jsonl" \
    || { echo "$tag: interrupted-and-resumed soak stream is not byte-identical"; exit 1; }
}

target/release/ripsim soak configs/soak_ckpt.json \
  > "$bench_dir/ckpt_base.jsonl" 2> /dev/null
sigint_soak sig_plain "$bench_dir/soak_long.json" "$bench_dir/sig_plain.jsonl"
sigint_snap="$bench_dir/sig.snapshot"
sigint_soak sig_ckpt configs/soak_ckpt.json "$sigint_snap" \
  --checkpoint-every 25 --checkpoint-path "$sigint_snap"
check_resume sig_ckpt "$bench_dir/sig_ckpt.jsonl" "$sigint_snap"

echo "==> checkpoint/resume smoke (SIGKILL mid-soak, byte-identical continuation)"
snap="$bench_dir/soak.snapshot"
target/release/ripsim soak configs/soak_ckpt.json \
  --checkpoint-every 25 --checkpoint-path "$snap" \
  > "$bench_dir/ckpt_part1.jsonl" 2> /dev/null &
ckpt_pid=$!
for _ in $(seq 1 2000); do
  [ -f "$snap" ] && break
  sleep 0.01
done
sleep 0.3
kill -9 "$ckpt_pid" 2> /dev/null || true
wait "$ckpt_pid" 2> /dev/null || true
test -f "$snap" || { echo "checkpointing soak wrote no snapshot"; exit 1; }
check_resume ckpt "$bench_dir/ckpt_part1.jsonl" "$snap"
# A truncated snapshot (with no .prev fallback) must be rejected cleanly.
head -c 512 "$snap" > "$bench_dir/trunc.snapshot"
if target/release/ripsim soak configs/soak_ckpt.json \
     --resume "$bench_dir/trunc.snapshot" \
     > /dev/null 2> "$bench_dir/ckpt_trunc.log"; then
  echo "resume from a truncated snapshot unexpectedly exited zero"; exit 1
fi
grep -q 'truncated' "$bench_dir/ckpt_trunc.log" \
  || { echo "truncated snapshot produced no typed error"; exit 1; }

echo "==> fleet collector smoke (1-plane + 3-plane workers over TCP, byte-identical merge, profiler on)"
target/release/ripsim collect configs/fleet_small.json --oracle \
  > "$bench_dir/fleet_oracle.jsonl" 2> /dev/null \
  || { echo "fleet oracle run failed"; exit 1; }
target/release/ripsim collect configs/fleet_small.json --profile \
  --listen 127.0.0.1:0 --port-file "$bench_dir/fleet.port" \
  --timeout-ms 60000 \
  --metrics 127.0.0.1:0 --metrics-port-file "$bench_dir/fleet_metrics.port" \
  --metrics-hold-ms 8000 \
  > "$bench_dir/fleet_merged.jsonl" 2> "$bench_dir/fleet_collect.log" &
collect_pid=$!
for _ in $(seq 1 100); do
  [ -s "$bench_dir/fleet.port" ] && break
  sleep 0.1
done
test -s "$bench_dir/fleet.port" || { echo "collector never published its port"; exit 1; }
fleet_port="$(tr -d '[:space:]' < "$bench_dir/fleet.port")"
target/release/ripsim plane-worker configs/fleet_small.json --profile \
  --worker 0 --planes 0 --connect "127.0.0.1:$fleet_port" 2> /dev/null &
w0_pid=$!
target/release/ripsim plane-worker configs/fleet_small.json --profile \
  --worker 1 --planes 1,2,3 --connect "127.0.0.1:$fleet_port" 2> /dev/null &
w1_pid=$!
wait "$w0_pid" || { echo "plane worker 0 exited nonzero"; exit 1; }
wait "$w1_pid" || { echo "plane worker 1 exited nonzero"; exit 1; }
# Scrape the fleet endpoint while the collector holds it open: the
# merged families must carry per-plane source labels, the
# ripsim_build_info / uptime preamble, and — with --profile on both
# ends — the collector's own phases plus the worker records it merged
# under their w<NN>/ source prefix.
scrape_metrics "$bench_dir/fleet_metrics.port" "$bench_dir/fleet_scrape.txt" \
  'source="plane00"' \
  '^ripsim_profile_phase_seconds_total{source="collect"' \
  '^ripsim_profile_records_total{source="w00/plane00"} [0-9]' \
  || true # asserted below, after the collector is reaped
wait "$collect_pid" || { echo "fleet collector exited nonzero"; exit 1; }
grep -q 'source="plane00"' "$bench_dir/fleet_scrape.txt" \
  || { echo "fleet scrape never returned per-plane families"; exit 1; }
grep -q '^ripsim_build_info{version="' "$bench_dir/fleet_scrape.txt" \
  || { echo "fleet scrape is missing ripsim_build_info"; exit 1; }
grep -q '^ripsim_uptime_seconds ' "$bench_dir/fleet_scrape.txt" \
  || { echo "fleet scrape is missing ripsim_uptime_seconds"; exit 1; }
grep -q '^ripsim_profile_phase_seconds_total{source="collect"' "$bench_dir/fleet_scrape.txt" \
  || { echo "fleet scrape carries no collector profile phases"; exit 1; }
grep -q '^ripsim_profile_records_total{source="w00/plane00"} [0-9]' "$bench_dir/fleet_scrape.txt" \
  || { echo "fleet scrape carries no merged per-worker profile records"; exit 1; }
cmp "$bench_dir/fleet_merged.jsonl" "$bench_dir/fleet_oracle.jsonl" \
  || { echo "fleet merged stream is not byte-identical to the single-process oracle"; exit 1; }

echo "==> fleet killed-worker smoke (typed watchdog event, nonzero exit, no hang)"
target/release/ripsim plane-worker configs/fleet_small.json \
  --worker 5 --planes 0,1,2,3 --out "$bench_dir/fleet_w5.bin" 2> /dev/null \
  || { echo "file-mode plane worker failed"; exit 1; }
w5_bytes="$(wc -c < "$bench_dir/fleet_w5.bin")"
head -c "$((w5_bytes / 2))" "$bench_dir/fleet_w5.bin" > "$bench_dir/fleet_w5_cut.bin"
if target/release/ripsim collect configs/fleet_small.json \
     --from "$bench_dir/fleet_w5_cut.bin" \
     > "$bench_dir/fleet_cut.jsonl" 2> "$bench_dir/fleet_cut.log"; then
  echo "collector on a killed worker stream unexpectedly exited zero"; exit 1
fi
grep -q 'worker 5 lost' "$bench_dir/fleet_cut.log" \
  || { echo "killed worker raised no typed collector error"; exit 1; }
grep -q 'WorkerLost' "$bench_dir/fleet_cut.jsonl" \
  || { echo "killed worker emitted no WorkerLost watchdog record"; exit 1; }

echo "==> repo benchmark smoke (ledger/ builds against the public API, every workload correct)"
# ledger/ is a package of its own, outside the workspace, so no step
# above compiles it: without this, a public-API change could break the
# benchmark with no signal. One short run of every workload; the last
# line of each workload's output is its result record.
cargo build --release --offline -q --manifest-path ledger/Cargo.toml
cargo test --release --offline -q --manifest-path ledger/Cargo.toml \
  || { echo "benchmark ledger unit tests failed"; exit 1; }
ledger/target/release/rip-ledger --workload all --seed 1 --seconds 1 --trace 0 \
  > "$bench_dir/ledger.txt" \
  || { echo "benchmark ledger exited nonzero"; exit 1; }
awk '
  function check() {
    n++
    if (last !~ /"correct": true/ || last !~ /"failed": 0[,}]/) {
      print "benchmark workload " name " is not correct: " last; bad = 1
    }
  }
  /^=== / { if (name != "") check(); name = $2; last = ""; next }
  { last = $0 }
  END { if (name != "") check(); if (n == 0 || bad) exit 1 }
' "$bench_dir/ledger.txt" || { echo "benchmark ledger smoke failed"; exit 1; }

echo "CI OK"
