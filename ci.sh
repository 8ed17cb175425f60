#!/usr/bin/env bash
# Tier-1 gate, fully offline: formatting, lints, build, tests.
#
# `cargo test -q` covers the default members (everything except the
# Criterion benches in crates/bench and the dependency shims in shims/;
# run those explicitly with `cargo test -p bench` / `-p proptest` etc.).
set -euo pipefail
cd "$(dirname "$0")"

# Run `cargo test -q <args>` and fail unless some test binary reports at
# least one passing test. A name filter that matches nothing (say, after
# a test is renamed) otherwise passes silently with "0 passed".
run_named() {
  local out
  out=$(cargo test -q "$@" 2>&1) || { echo "$out"; return 1; }
  echo "$out"
  if ! grep -Eq 'test result: ok\. [1-9][0-9]* passed' <<<"$out"; then
    echo "ci: 'cargo test -q $*' ran no tests" >&2
    return 1
  fi
}

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --exclude bench --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release

echo "== cargo test =="
cargo test -q

# Crypto gate: Montgomery fixed-window modpow against a square-and-
# multiply oracle over odd moduli of 1-32 limbs (edge bases and
# exponents, both DH primes), alongside the bignum and cipher laws.
echo "== modpow differential test =="
run_named -p kshot-crypto --test prop_crypto

# Crash-consistency gates (also part of `cargo test -q`, but named here
# so a failure reads as what it is): the exhaustive patch/rollback fault
# sweep, and the deterministic fuzz of Channel::open frame orderings
# (drop/reorder/duplicate/tamper/resync).
echo "== fault sweep =="
run_named -p kshot --test fault_sweep

echo "== channel ordering fuzz =="
run_named -p kshot-patchserver --test prop_channel_orderings

# Fleet gates: the byte-identical-applied-state property (including
# under an injected fault + retry, across pipeline depths and worker
# counts), the incremental shard-tail and injection-accounting
# regression tests, and the campaign smoke run, which itself asserts
# zero failures, >=4x wall-clock scaling from 8 workers, and >=4x from
# pipeline depth 16 on a single worker with digests identical to the
# sequential run, then writes the benchmark artefact this gate checks.
echo "== fleet identical-state property =="
run_named -p kshot-fleet --test prop_fleet_identical

echo "== shard tail + injection accounting regressions =="
run_named -p kshot-telemetry tail_
run_named -p kshot-fleet unfired_injection_plan_is_disarmed_and_accounted_on_success
run_named -p kshot-fleet pipelined_worker_matches_sequential_results

# Health-plane gates: the quantile sketch's documented error bound and
# merge-order independence over randomized distributions, and the
# byte-identical health.jsonl stream across worker counts and pipeline
# depths (with deterministic Degraded/Halt verdicts under an injected
# fault).
echo "== sketch error-bound property =="
run_named -p kshot-telemetry --test prop_sketch

# Roll-up gates: the Merkle accumulator's unit surface (append/merge/
# root/frontier round-trip), the shard roll-up parser, the fleet fold's
# unit tests (ordered retire through the reorder buffer, capped dwell
# anomalies and exemplars, logarithmic resident bytes) plus the campaign
# fold tests (pipelined reorder, the streamed rollup.jsonl line
# reconstructing the campaign root), and the cross-scheduler
# root-vs-digest-vector property.
echo "== merkle roll-up + outcome folding =="
run_named -p kshot-telemetry merkle
run_named -p kshot-telemetry rollup
run_named -p kshot-fleet fold
run_named -p kshot --test merkle_rollup

echo "== health stream determinism =="
run_named -p kshot-fleet --test health_stream

# Rollout gate: canary→ramp admission order, a mid-campaign Halt that
# stops admission, auto-rollback restoring the never-patched digest
# (and the session error paths the orchestrator trusts: folded
# injection stats on decode failure, terminal recovery failures), and
# a byte-identical wave trail + health stream across worker counts and
# pipeline depths.
echo "== rollout: staged waves, auto-halt, rollback determinism =="
run_named -p kshot --test rollout
run_named -p kshot-fleet decode_failure_terminal_path_folds_injection_stats
run_named -p kshot-fleet failed_recovery_is_terminal_and_counted

# Batched-SMI gates: the per-CVE journal-segmentation fault sweep
# (fail-write and power-loss at every SMM write index of a 3-CVE batch;
# recovery preserves exactly the committed CVE prefix and the machine
# matches a prefix-patched reference byte-for-byte), and the fleet
# catalogue tests (batched == sequential digests, decode-once cache
# accounting, faulted-batch resume).
echo "== batched-SMI fault sweep + fleet catalogue =="
run_named -p kshot --test fault_sweep batched
run_named -p kshot-fleet catalogue_campaign_batched_matches_sequential
run_named -p kshot-fleet batched_catalogue_decodes_once_per_blob
run_named -p kshot-fleet faulted_batched_machine_retries_and_matches

echo "== fleet campaign smoke (incl. pipelined + rollout gates) =="
rm -f BENCH_fleet.json
cargo run --release --example fleet_campaign
test -f BENCH_fleet.json
grep -q '"failed":0' BENCH_fleet.json
grep -q '"pipelined":{' BENCH_fleet.json
grep -q '"identical_digests":true' BENCH_fleet.json
# The healthy rollout ran every planned wave; the faulted one halted at
# wave 1 and rolled back exactly the wave's two patched machines.
grep -q '"rollout_healthy":{' BENCH_fleet.json
grep -q '"halt_wave":null' BENCH_fleet.json
grep -q '"halt_verdict":"halt"' BENCH_fleet.json
grep -q '"rolled_back":2' BENCH_fleet.json
grep -q '"not_admitted":6' BENCH_fleet.json
# The batched-SMI crossover stage ran: one merged SMI beat k sequential
# deliveries at k=4, and one rollback_last popped exactly the last CVE.
grep -q '"batched":{' BENCH_fleet.json
grep -q '"batched_beats_sequential":true' BENCH_fleet.json
grep -q '"rollback_pops_last_cve":true' BENCH_fleet.json
# Million-machine scale gate: the fold + Merkle-roll-up stage ran a
# >=100k-machine campaign (6+ digit machine count), its Merkle root was
# byte-identical across the workers {1,8} x depths {1,4} grid AND equal
# to the 64-machine fleet's digest-vector root, and the fold's resident
# footprint (reorder buffer included) stayed under 1/10th of
# machines x size_of::<MachineOutcome>().
grep -q '"scale":{' BENCH_fleet.json
grep -Eq '"scale":\{"machines":[1-9][0-9]{5}' BENCH_fleet.json
grep -q '"merkle_root_identical":true' BENCH_fleet.json
grep -q '"root_matches_digest_vector":true' BENCH_fleet.json
grep -q '"resident_bounded":true' BENCH_fleet.json

# Streaming observability gate: the example streams a 32-machine
# campaign to per-worker JSON-lines shards, tails them *live* with a
# windowed HealthMonitor, re-aggregates them from disk, and asserts
# (internally, exiting non-zero on failure) that the shard totals and
# phase profile equal the in-memory merge, that the dwell watchdog
# flags exactly the one slowed machine, and that the health plane
# flagged that machine's window in a Degraded snapshot BEFORE the
# campaign completed. The shell side re-checks the artefacts exist and
# carry the mid-campaign-detection markers.
echo "== streaming observability + live health gate =="
rm -rf target/observe
rm -f BENCH_observe.json
cargo run --release --example observe_report | tee target/observe_report.log
grep -q "OBSERVE OK" target/observe_report.log
grep -q "HEALTH OK" target/observe_report.log
grep -q "degraded mid-campaign" target/observe_report.log
for w in 0 1 2 3; do
  test -s "target/observe/worker-$w.jsonl"
done
test -s target/observe/health.jsonl
test -s BENCH_observe.json
grep -q '"degraded_live":true' BENCH_observe.json
grep -q '"final_verdict":"degraded"' BENCH_observe.json
grep -q '"resident_sketch_bytes":' BENCH_observe.json
grep -q '"agg_lines_per_sec":' BENCH_observe.json

# Integrity gate: the four attack scenarios (handler tamper, rogue
# write, journal abuse, dwell exhaustion) each caught with a typed
# verdict and a specific reason, an integrity Halt driving wave
# auto-rollback to the never-patched digest, and the clean smi
# flight-record stream byte-identical across worker counts, pipeline
# depths and batched/sequential modes. The observe example's attack
# sweep plus clean run land in BENCH_observe.json's "integrity" block:
# all four attacks caught, zero violations on the clean fleet, bounded
# resident monitor memory.
echo "== integrity: flight-record replay, attack sweep, clean-run zero-violation =="
run_named -p kshot-fleet --test integrity_attacks
grep -q '"integrity":{"clean_records":64,"clean_violations":0,' BENCH_observe.json
grep -q '"attacks_caught":4' BENCH_observe.json
grep -q '"clean_resident_bytes":' BENCH_observe.json

echo "CI OK"
