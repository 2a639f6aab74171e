#!/usr/bin/env bash
# The deletions that must stay deleted, as one table. CI runs this
# once; run it locally the same way: `bash ci/guards.sh`.
#
# A row is four strings:
#   pattern   extended regex that must not match
#   where     paths to search (`grep -rn`), or `above-tests:<paths>` for
#             the lines of each `<path>/**/*.rs` above the file's first
#             line that is a `#[cfg(test)]` attribute (production code,
#             by this repo's layout; a doc comment that mentions the
#             attribute does not end it)
#   allowed   extended regex over `path:line:text` for the hits that
#             may stay, or `-` for none
#   message   what the hit means
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

code='crates src tests examples'

guards=(
  # One round path, one spec: the retired engine/Medium fork and its
  # knob chain.
  'legacy_round_path|resolve_into|run_tuned|rounds_legacy'
  "$code" '-'
  'a retired round-path name is back'

  # One observer handle, one traffic entry, one deployment: the
  # per-recorder setters and the telescoping run/record chains.
  'set_flight|set_monitor|run_traffic_(recorded|traced|observed)|record_(traced|observed)'
  "$code" '-'
  'a retired recorder-wiring name is back'

  # One observer handle: the counters, timers, recorders and monitor
  # of a run share one state behind `Observers`, which every layer
  # holds a clone of. The separately null handles and their setters
  # are gone.
  'struct Probe|Probe::|set_probe|set_causal|(Monitor|CausalRecorder|FlightRecorder)::(enabled|disabled)'
  "$code" '-'
  'a retired observer handle or setter is back; hold a clone of the one Observers handle'

  'too_many_arguments'
  'crates/scenario/src/compile.rs crates/traffic/src crates/fuzz/src' '-'
  'compile.rs / vi-traffic / vi-fuzz thread too many values by hand again'

  # One thread per round: no intra-round worker pool, no tiles, no
  # `unsafe` anywhere (each crate root carries
  # `#![forbid(unsafe_code)]`, the one line let through).
  'unsafe|UnsafeCell|WorkerPool|std::thread|shard_'
  'crates/radio/src' 'forbid\(unsafe_code\)'
  'vi-radio resolves a round on one thread, in safe code'

  'unsafe'
  'src crates/*/src' 'forbid\(unsafe_code\)'
  'the workspace has no unsafe code'

  # The three inert shims the frozen benchmark sources still call or
  # implement must not grow a second caller before the benchmark-only
  # PR that deletes the mirror deletes them. (A traffic world receives
  # its observers when it is built; `Service::set_telemetry` is a
  # no-op.)
  'set_workers\(|with_workers\(|set_telemetry\('
  "$code" '^examples/perf/|pub fn (set_workers|with_workers)\(|^crates/traffic/src/service\.rs:[0-9]+: +fn set_telemetry\($'
  'a no-op shim (set_workers, with_workers, set_telemetry) has a caller outside examples/perf/'

  # vi-core says it once: Section 3.5 is `ChaProtocol::fold_decided`
  # (callers: the emulator's green fold and E10; its tests live beside
  # its definition), the replica tally is `EmulatorReport: AddAssign`
  # behind `World::report`. vi-scenario runs every CHA clique:
  # `ScenarioSpec::run_cha_clique` is the one entry that keeps its
  # engine, and vi-bench's hand-built clique runner is gone.
  'CheckpointCha|PeriodicClient|protocol_mut|struct WorldTotals|diff_tables|run_clique|CliqueConfig|CliqueRun'
  "$code Cargo.toml" '-'
  'a deleted duplicate is back'

  # One adversary description: `AdversaryKind` is the `Adversary`
  # (one impl, one `validate`). The structs that mirrored its variants
  # and vi-scenario's copy of their asserts are gone.
  'NoAdversary|RandomLoss|BurstLoss|FaultyDetector|WindowedRandomLoss|ComposeAdversary|validate_adversary'
  "$code" '-'
  'a deleted duplicate is back; an adversary is an AdversaryKind value'

  # One mobility description: `MobilitySpec` (vi-radio) validates and
  # builds every model, and a static node's model is its `Point`. The
  # five structs that mirrored its variants and vi-scenario's copy of
  # their asserts are gone.
  'struct (Static|Waypoint|Billiard|PatrolRoute|DepartAt)\b|\b(Static|Waypoint|Billiard|PatrolRoute|DepartAt)::new\('
  "$code" '-'
  'a mobility is a MobilitySpec value'

  # One client per app: vi-traffic's `App` adapters are the apps'
  # clients. vi-apps is the four virtual-node automata and their
  # messages; its six hand-written clients are gone.
  'impl ClientApp'
  'above-tests:crates/apps/src' '-'
  'vi-apps has a client again; each app is driven by its vi-traffic App adapter'

  'WriterClient|ReaderClient|LockClient|ReporterClient|QueryClient|InjectorClient'
  "$code" '-'
  'a deleted duplicate client is back; drive the app through run_traffic or HistoryRecorder::record'

  'current_history'
  'crates/core/src/vi' '-'
  'the emulator folds through ChaProtocol::fold_decided, not a History'

  'fold_decided\('
  "$code" '^crates/core/src/(cha/protocol(/reference)?|vi/emulator)\.rs:|^crates/bench/src/exp_cha\.rs:'
  'Section 3.5 has two callers: Emulator::fold_green and E10 gc'

  # A steady-state virtual round stays off the allocator
  # (`tests/virtual_round_allocs.rs`): the CHA per-instance state is
  # one flat window of statuses and one flat, sparse list of ballots
  # (the tree survives as the test-only reference model), and
  # contender lists and client receptions are swapped or cleared, never
  # taken and dropped.
  'BTreeMap'
  'above-tests:crates/core/src/cha/protocol.rs' '-'
  'ChaProtocol keeps its instances in a tree again; the window in protocol.rs replaced it'

  # A node that never collects adopts a ballot in about one instance
  # of four (`tests/cha_window_memory.rs`): the 24-byte slot that held
  # a status and an optional ballot for every instance is gone.
  'enum Slot|Slot::(Held|Vacant)'
  'above-tests:crates/core/src' '-'
  'per-instance ballots are stored sparsely'

  'mem::take\(&mut self\.cur_contenders\)'
  'crates/contention/src' '-'
  'a contention manager drops a contender buffer every round again; roll_contenders swaps them'

  'mem::(take|replace)\(&mut self\.client_(rx|prev)'
  'above-tests:crates/core/src/vi/emulator.rs' '-'
  'the emulator throws a per-round buffer away again; clear or swap it'

  # One value for what a virtual round delivered (`VirtualInput`): a
  # client's reception, a replica's CHAP proposal (the leader sorts a
  # copy of its device's reception) and the virtual node's input (the
  # decided proposal itself, or `VirtualInput::bottom()` for ⊥).
  'VrProposal|VirtualReception'
  "$code" '-'
  "a virtual round's reception, proposal and input are one type, VirtualInput"

  # One shape for a resolved round: both resolvers fill a
  # `ReceptionBuffer` (equal buffers = equal receptions, senders
  # included), and the medium's receiver walk counts the adversary
  # consultations it makes. Counters hold no second copy of
  # `rounds_reanchor`.
  'AttributedReception|to_attributed|CountingAdversary|counts_adversary|cache_reanchors'
  "$code" '-'
  'a resolved round is one ReceptionBuffer, and the receiver walk counts its own adversary calls'

  # One vocabulary for CHAP's three steps: the emulation's scheduled
  # and unscheduled instances are `VirtualPhase::Cha { scheduled, step:
  # cha::Phase, slot }`, each step handled by one arm, and the send-side
  # veto rule is `ChaProtocol::vetoes(step)`. The dead medium accessor
  # chain (`World::medium`, `Engine::medium`) is gone with them.
  'SchedBallot|SchedVeto|UnschedBallot|UnschedVeto|phase_matches_instance|ballot_phase_is_mine|veto[12]_broadcast|fn medium\('
  "$code" '-'
  "CHAP's steps are spelled once: VirtualPhase::Cha with a cha::Phase step, and ChaProtocol::vetoes"

  # A join-ack shares the replica state and counts its JSON length
  # (`Emulator::encode_transfer`): the join path writes and parses no
  # JSON, so nothing parses a `ChaProtocol`. The debug-build check of
  # the count against the writer is the one line let through.
  'serde_json::(to_vec|to_string|from_slice|from_str)'
  'above-tests:crates/core/src/vi' 'debug_assert'
  'the join path writes or parses JSON again; a join-ack shares the state and counts its JSON length'

  'Deserialize for ChaProtocol'
  'above-tests:crates/core/src/cha/protocol.rs' '-'
  'the hostile-blob parser is back with no caller'

  # A CHA outcome is stored once, compactly (`tests/cha_checker_memory.rs`):
  # each output holds ⊥ in 24 bytes; the incremental checker is handed
  # each output and keeps only the last decided history, and the
  # recording checker borrows outputs as `(node, slice)` runs instead of
  # copying them.
  'struct Recorded|history\.clone\(\)'
  'above-tests:crates/core/src/cha/spec.rs' '-'
  'the spec checker copies outputs again; it borrows them'

  # The scenario compiler checks a CHA run as it goes: each node hands
  # its proposals and outputs to the run's shared `ChaSpecStream`, and
  # no node keeps them for a check after the run.
  '\.outputs\(\)|\.proposals\(\)|record_outputs\('
  'above-tests:crates/scenario/src' '-'
  "the scenario compiler checks CHA runs as they go; it reads no node's outputs"

  'pub history: Option<History<'
  'above-tests:crates/core/src/cha/protocol.rs' '-'
  'ChaOutput holds ⊥ in 24 bytes: the history is boxed'

  # Nodes stored by value: a CHA clique is an
  # `Engine<ChaMessage<u64>, ChaNode<u64>>` and a world an
  # `Engine<Wire<..>, Device<VA>>`, read back typed through
  # `Engine::process_at`; a client app is read back by upcasting to
  # `Any`. `Process::as_any` survives only for boxed populations and
  # the frozen benchmark mirror.
  'process::<|as_any\('
  'above-tests:crates/scenario/src crates/core/src/vi' '-'
  'the scenario path downcasts a node again; its engine stores the process type by value'

  # vi-bench builds no CHA node and downcasts none: its cliques are
  # `clique_spec`s run by vi-scenario, its baselines typed engines.
  'process::<|\.process\(|ChaNode::'
  'above-tests:crates/bench/src' '-'
  'vi-bench builds or downcasts a node again; run a clique_spec, or a typed Engine<M, P>'

  # One register check that always concludes: the Gibbons–Korach zone
  # test. The budgeted WGL search, its forced-cut segments and its
  # budget-exhausted verdict are gone from production vi-audit; the
  # test-only WGL oracle keeps a budget of its own.
  'search_segment|SegmentWrites|DEFAULT_BUDGET|BudgetExhausted'
  'above-tests:crates/audit/src' '^crates/audit/src/linearizability/reference\.rs:'
  'the budgeted WGL search is back in production vi-audit; the register check is the zone test'

  # Each experiment asserts its paper claim where it builds the
  # table, and tier-1's pinned-table loop regenerates all of them: no
  # table is exempt from the loop.
  'NOT_REGENERATED'
  "$code" '-'
  'a table is exempt from the pinned-table loop again; tables_equal_the_committed_expected_files regenerates every one'

  # The clock has one home: vi-perf (`bash bench/run.sh`) is the only
  # code that reports a wall-clock or RSS number. vi-bench's tables
  # are pure functions of the code, pinned by crates/bench/expected/;
  # its release guards time themselves under `#[cfg(test)]`.
  '\bcriterion\b'
  "$code Cargo.toml" 'acceptance criterion'
  'the criterion stand-in and its benches are gone; time with bench/run.sh'

  'Instant::now|elapsed\(|/proc/self'
  'above-tests:crates/bench/src' '-'
  'vi-bench measures the host only inside #[cfg(test)] guards; tables come from the code alone'

  'VI_METROPOLIS_LARGE|artifact_name|bench-diff|bench_diff|PairedSweep'
  "$code .github" '-'
  'a retired vi-bench timing name is back; artifacts are BENCH_<id>.json, compared with cmp'

  # One trace collector: the Perfetto export is `TraceSink`, a
  # `MonitorSink` that the monitor's one env reader opens for
  # `VI_TRACE`. (`CausalSummary::dropped_spans`, a field, survives.)
  'record_span|record_flow|enable_tracing|tracing_enabled|flush_env|env_trace_path|take_events|export_flows|dropped_spans'
  "$code" '\.dropped_spans|dropped_spans: '
  'the second trace collector is back; Perfetto export is TraceSink, one more monitor sink'

  # Monitor sinks are values: a sweep carries its own `SinkSet`
  # (`SweepRunner::with_sinks`), which starts as the environment's.
  # The process-global sink registry, its functions, and the renamed
  # jobs and test lock that kept tests apart on it are gone.
  'install_sink|uninstall_sink|have_sinks|installed_sinks|force_enable|effective_every|emit_global|flush_global|REGISTRY|e21a_|e21s_|e19_trace'
  "$code" '-'
  'a deleted duplicate is back; a sweep carries its sinks (SweepRunner::with_sinks)'

  # The one `static` in library code is the environment, read once
  # (`monitor::env`): opening its sinks and binding its port happen
  # once per process, and the value never changes afterwards.
  ':[0-9]+:\s*(pub(\([a-z]+\))? )?static '
  'above-tests:src crates/*/src' '^crates/telemetry/src/monitor\.rs:[0-9]+: +static ENV: OnceLock<Env> = OnceLock::new\(\);$'
  'library code holds process-global state again; only the read-once environment (monitor::env) may'

  # One branch-free `Heard` fold (`HeardFold`) serves the churn scan,
  # the cached lists and scatter; the min-based fold survives only as
  # the test-only `Heard::reference`.
  'if hit|nearest\.min\('
  'above-tests:crates/radio/src/geometry.rs crates/radio/src/channel.rs' '-'
  'a Heard fold branches on hit or keeps a minimum again; fold through HeardFold::push'

  # One spatial index and slot-only neighbour lists: the medium's
  # `CellIndex` serves churn scans, re-anchor queries and mover
  # updates; the bucketed grid, its position copy, the stored d² and
  # the fold's distance are gone (the delivery rule recomputes the one
  # distance it reads).
  'SpatialGrid|list_update|all_pos|last_d2'
  "$code" '-'
  'the medium has one cell index and slot-only lists'

  # One collision-detector rule: a report exactly when a broadcast
  # within R2 was lost. The gray-ring knob (`RadioConfig` field and
  # builder) and the R1 flag every `Heard` fold computed for the
  # R1-only detector are gone.
  'ring_reports|within_r1'
  "$code" '-'
  'the collision detector has one rule'

  # An audited traffic run hands each event to a `vi_audit::Auditor`
  # as the driver produces it (`run_traffic`'s sink), and an
  # unaudited one passes no sink: no operation history is buffered.
  'History::from_events|Vec<TrafficEvent>'
  'crates/scenario/src' '-'
  'the scenario compiler audits as the run goes; it keeps no history'
)

# `path:line:text` for every line above a file's first `#[cfg(test)]`
# attribute line.
above_tests() {
  find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests { print FILENAME ":" FNR ":" $0 }'
}

failed=0
for ((i = 0; i < ${#guards[@]}; i += 4)); do
  pattern=${guards[i]} where=${guards[i + 1]} allowed=${guards[i + 2]} message=${guards[i + 3]}
  if [[ $where == above-tests:* ]]; then
    # shellcheck disable=SC2086  # `where` is a list of paths
    hits=$(above_tests ${where#above-tests:} | grep -E -- "$pattern" || true)
  else
    # shellcheck disable=SC2086  # `where` is a list of paths and globs
    hits=$(grep -rnE -- "$pattern" $where || true)
  fi
  if [ "$allowed" != - ]; then
    hits=$(printf '%s\n' "$hits" | grep -vE -- "$allowed" || true)
  fi
  if [ -n "$hits" ]; then
    printf '%s\n%s (see above)\n\n' "$hits" "$message"
    failed=1
  fi
done

# Three guards are not "this must not match": exactly one service
# adapter (`impl Service for Adapter<A>`; an app is a description, not
# a second adapter), exactly one shared observer state (`Observers`;
# a recorder is a plain struct inside it, not a handle of its own),
# and every crate root forbids unsafe code.
n=$(grep -rn 'impl.*Service for' crates/traffic/src/ | wc -l)
if [ "$n" -ne 1 ]; then
  grep -rn 'impl.*Service for' crates/traffic/src/ || true
  echo "expected exactly one 'impl Service for' under crates/traffic/src/, found $n"
  failed=1
fi
hits=$(above_tests crates/telemetry/src | grep -F 'Option<Rc<RefCell<' || true)
n=$(printf '%s' "$hits" | grep -c . || true)
if [ "$n" -ne 1 ]; then
  printf '%s\n' "$hits"
  echo "expected exactly one 'Option<Rc<RefCell<' above the tests in crates/telemetry/src/, found $n"
  failed=1
fi
for f in src/lib.rs crates/*/src/lib.rs; do
  if ! grep -q '^#!\[forbid(unsafe_code)\]' "$f"; then
    echo "$f lost #![forbid(unsafe_code)]"
    failed=1
  fi
done

exit "$failed"
