#!/bin/sh
# One-stop local CI: build, full test suite, and the trace determinism
# gate (every golden scenario run twice; the two JSONL traces must be
# byte-identical).  See DESIGN.md "Observability" and EXPERIMENTS.md.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @check =="
dune build @check

echo "== dune runtest =="
dune runtest

echo "== determinism gate =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

status=0
for s in "ElmExploit" "nlspath" "procex" "grabem" "vixie crontab" \
         "pma" "superforker" "ls" "column"; do
  f=$(echo "$s" | tr ' ' '_')
  dune exec bin/hth_run.exe -- run "$s" --trace "$tmp/$f.1.jsonl" >/dev/null
  dune exec bin/hth_run.exe -- run "$s" --trace "$tmp/$f.2.jsonl" >/dev/null
  if cmp -s "$tmp/$f.1.jsonl" "$tmp/$f.2.jsonl"; then
    echo "  ok: $s"
  else
    echo "  NONDETERMINISTIC TRACE: $s" >&2
    diff "$tmp/$f.1.jsonl" "$tmp/$f.2.jsonl" | head -10 >&2 || true
    status=1
  fi
done

echo "== engine-reuse gate =="
# One shared Hth.Engine.t runs every golden scenario twice in one
# process: traces must be byte-identical to cold per-session runs and
# warnings/verdicts identical (see DESIGN.md "The session engine").
if dune exec test/test_hth.exe -- test engine >/dev/null 2>&1; then
  echo "  ok: engine reuse (warm traces byte-identical to cold)"
else
  echo "  ENGINE-REUSE GATE FAILED" >&2
  dune exec test/test_hth.exe -- test engine || true
  status=1
fi

echo "== hth_trace smoke =="
# Offline analysis of a committed golden: explain and profile must
# render, self-diff must exit 0 and a cross-diff must exit 1.
dune exec bin/hth_trace.exe -- explain test/golden/pma.jsonl >/dev/null
dune exec bin/hth_trace.exe -- profile test/golden/pma.jsonl >/dev/null
dune exec bin/hth_trace.exe -- diff test/golden/pma.jsonl \
  test/golden/pma.jsonl >/dev/null
if dune exec bin/hth_trace.exe -- diff test/golden/pma.jsonl \
     test/golden/grabem.jsonl >/dev/null 2>&1; then
  echo "  hth_trace diff missed a divergence" >&2
  status=1
else
  echo "  ok: hth_trace explain/profile/diff"
fi

echo "== chaos gate =="
# Whole corpus under 5 seeded fault plans: no exception may escape the
# session supervisor, faulted traces must be byte-identical per seed,
# and degraded runs must be flagged without ever losing a warning.
if CHAOS_CORPUS=full dune exec test/test_hth.exe -- test chaos; then
  echo "  ok: chaos (full corpus)"
else
  echo "  CHAOS GATE FAILED" >&2
  status=1
fi

echo "== fleet gate =="
# The whole corpus on a 4-worker fleet must be byte-identical to the
# one-worker fleet: same summary table on stdout, byte-identical
# per-scenario traces (see DESIGN.md "Fleet architecture").
dune exec bin/hth_run.exe -- batch --jobs 1 --trace-dir "$tmp/fleet1" \
  > "$tmp/fleet1.out"
dune exec bin/hth_run.exe -- batch --jobs 4 --trace-dir "$tmp/fleet4" \
  > "$tmp/fleet4.out"
if cmp -s "$tmp/fleet1.out" "$tmp/fleet4.out" \
   && diff -r "$tmp/fleet1" "$tmp/fleet4" >/dev/null; then
  echo "  ok: batch --jobs 4 byte-identical to --jobs 1 (stdout + traces)"
else
  echo "  FLEET NONDETERMINISM: --jobs 4 diverged from --jobs 1" >&2
  diff "$tmp/fleet1.out" "$tmp/fleet4.out" | head -10 >&2 || true
  diff -r "$tmp/fleet1" "$tmp/fleet4" | head -10 >&2 || true
  status=1
fi

# Repeated stress sanity: scheduling is racy even though output must
# not be — three more 4-worker sweeps, all identical to the first.
for i in 1 2 3; do
  dune exec bin/hth_run.exe -- batch --jobs 4 > "$tmp/fleet4.rep"
  if ! cmp -s "$tmp/fleet4.out" "$tmp/fleet4.rep"; then
    echo "  FLEET STRESS: run $i diverged" >&2
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "  ok: 3 repeated --jobs 4 sweeps identical"

echo "== dormancy gate =="
# Every dormant scenario's live trace must match its committed golden
# byte for byte — the armed path must appear in triggered runs only —
# and the triggered explain renderings (which cite the trigger input's
# taint origin) must match their committed goldens (see DESIGN.md
# "Dormant scenarios & trigger protocol").
for s in "sleeper daemon idle" "sleeper daemon triggered" \
         "sleeper daemon disarmed" "logic bomb idle" \
         "logic bomb triggered" "logic bomb defused" \
         "worm pair idle" "worm pair triggered" "worm pair recalled" \
         "update client idle" "update client triggered" \
         "update client rejected"; do
  f=$(echo "$s" | tr ' ' '_')
  dune exec bin/hth_run.exe -- run "$s" --trace "$tmp/$f.jsonl" >/dev/null
  if cmp -s "test/golden/$f.jsonl" "$tmp/$f.jsonl"; then
    echo "  ok: $s"
  else
    echo "  DORMANT TRACE DIVERGED FROM GOLDEN: $s" >&2
    diff "test/golden/$f.jsonl" "$tmp/$f.jsonl" | head -10 >&2 || true
    status=1
  fi
  case "$s" in
  *triggered)
    dune exec bin/hth_trace.exe -- explain "test/golden/$f.jsonl" \
      > "$tmp/$f.explain"
    if cmp -s "test/golden/$f.explain.txt" "$tmp/$f.explain"; then
      echo "  ok: $s (explain)"
    else
      echo "  DORMANT EXPLAIN DIVERGED FROM GOLDEN: $s" >&2
      diff "test/golden/$f.explain.txt" "$tmp/$f.explain" | head -10 >&2 \
        || true
      status=1
    fi
    ;;
  esac
done

echo "== tiering gate =="
# Tiered execution must be observationally invisible (DESIGN.md §19).
# The dormancy gate above already ran the 12-scenario golden corpus
# with tiering on (the default); running it again with tiering off
# must reproduce the committed goldens byte for byte, so tier on vs
# off differ in nothing but speed.  Then an aggressive tier
# (threshold 1, every block compiled on first entry) fleet sweep on
# two workers must be byte-identical to a --no-tier sweep — tiering
# and work-stealing parity hold together, not just separately.
for s in "sleeper daemon idle" "sleeper daemon triggered" \
         "sleeper daemon disarmed" "logic bomb idle" \
         "logic bomb triggered" "logic bomb defused" \
         "worm pair idle" "worm pair triggered" "worm pair recalled" \
         "update client idle" "update client triggered" \
         "update client rejected"; do
  f=$(echo "$s" | tr ' ' '_')
  dune exec bin/hth_run.exe -- run "$s" --no-tier \
    --trace "$tmp/$f.notier.jsonl" >/dev/null
  if cmp -s "test/golden/$f.jsonl" "$tmp/$f.notier.jsonl"; then
    echo "  ok: $s (--no-tier = golden)"
  else
    echo "  TIERING CHANGED THE OBSERVABLE TRACE: $s" >&2
    diff "test/golden/$f.jsonl" "$tmp/$f.notier.jsonl" | head -10 >&2 || true
    status=1
  fi
done
dune exec bin/hth_run.exe -- batch --jobs 2 --tier-threshold 1 \
  --trace-dir "$tmp/tier_on" > "$tmp/tier_on.out"
dune exec bin/hth_run.exe -- batch --jobs 2 --no-tier \
  --trace-dir "$tmp/tier_off" > "$tmp/tier_off.out"
if cmp -s "$tmp/tier_on.out" "$tmp/tier_off.out" \
   && diff -r "$tmp/tier_on" "$tmp/tier_off" >/dev/null; then
  echo "  ok: --tier-threshold 1 fleet sweep byte-identical to --no-tier"
else
  echo "  TIERING DIVERGED UNDER THE FLEET" >&2
  diff "$tmp/tier_on.out" "$tmp/tier_off.out" | head -10 >&2 || true
  diff -r "$tmp/tier_on" "$tmp/tier_off" | head -10 >&2 || true
  status=1
fi

echo "== hth_serve smoke =="
# A mixed request script (native, clips, faulted, malformed) served on
# two workers: responses must come back in input order and be
# deterministic across two service processes.
cat > "$tmp/serve.jobs" <<'EOF'
{"scenario":"pma","id":"a"}
{"scenario":"grabem","policy":"clips"}
{"scenario":"ls","seed":3}
this is not json
{"scenario":"column"}
EOF
dune exec bin/hth_serve.exe -- --jobs 2 < "$tmp/serve.jobs" \
  > "$tmp/serve.1"
dune exec bin/hth_serve.exe -- --jobs 2 < "$tmp/serve.jobs" \
  > "$tmp/serve.2"
if [ "$(wc -l < "$tmp/serve.1")" = 5 ] \
   && cmp -s "$tmp/serve.1" "$tmp/serve.2" \
   && [ "$(grep -c '"status":"ok"' "$tmp/serve.1")" = 4 ] \
   && [ "$(grep -c '"status":"bad_request"' "$tmp/serve.1")" = 1 ]; then
  echo "  ok: hth_serve (5 requests, ordered, deterministic)"
else
  echo "  HTH_SERVE SMOKE FAILED" >&2
  cat "$tmp/serve.1" >&2
  status=1
fi

echo "== serve-resilience gate =="
# One supervised fleet behind a Unix socket (DESIGN.md §17): a client
# that vanishes mid-stream must not disturb other connections; SIGTERM
# under load must drain every admitted response, exit 0 and unlink the
# socket file.  Three iterations because the scheduling is racy even
# though the contract is not.
serve_exe=_build/default/bin/hth_serve.exe
client_exe=_build/default/bin/hth_client.exe
dune build bin/hth_serve.exe bin/hth_client.exe
cat > "$tmp/resil.jobs" <<'EOF'
{"scenario":"pma","id":"r0"}
{"scenario":"grabem","policy":"clips","id":"r1"}
{"scenario":"ls","seed":3,"id":"r2"}
{"scenario":"column","id":"r3"}
{"scenario":"procex","id":"r4"}
EOF
# reference bytes for that script, from the same service code path
"$serve_exe" --jobs 2 < "$tmp/resil.jobs" > "$tmp/resil.ref"
: > "$tmp/load.jobs"
i=0
while [ "$i" -lt 20 ]; do
  echo "{\"scenario\":\"pma\",\"id\":\"load-$i\"}" >> "$tmp/load.jobs"
  i=$((i + 1))
done
for i in 1 2 3; do
  sock="$tmp/hth.$i.sock"
  "$serve_exe" --socket "$sock" --jobs 2 --deadline 30 \
    2> "$tmp/serve_resil.$i.log" &
  srv=$!
  n=0
  while [ ! -S "$sock" ] && [ "$n" -lt 100 ]; do
    sleep 0.05
    n=$((n + 1))
  done
  # a misbehaving client disconnects after one response...
  "$client_exe" --socket "$sock" --abort-after 1 < "$tmp/resil.jobs" \
    > /dev/null 2>&1 || true
  # ...while a well-behaved one must still get every byte it is owed
  "$client_exe" --socket "$sock" < "$tmp/resil.jobs" > "$tmp/resil.$i"
  if ! cmp -s "$tmp/resil.ref" "$tmp/resil.$i"; then
    echo "  SERVE RESILIENCE: post-disconnect responses diverged (iter $i)" >&2
    diff "$tmp/resil.ref" "$tmp/resil.$i" | head -10 >&2 || true
    status=1
  fi
  # health answers from the shared supervisor
  if ! echo '{"op":"health"}' | "$client_exe" --socket "$sock" \
       | grep -q '"status":"health"'; then
    echo "  SERVE RESILIENCE: health op failed (iter $i)" >&2
    status=1
  fi
  # SIGTERM under load: every admitted request still gets a response
  "$client_exe" --socket "$sock" < "$tmp/load.jobs" > "$tmp/load.$i" &
  cli=$!
  sleep 0.3
  kill -TERM "$srv"
  wait "$cli" || true
  if wait "$srv"; then :; else
    echo "  SERVE RESILIENCE: server exit code $? after SIGTERM (iter $i)" >&2
    status=1
  fi
  if [ "$(wc -l < "$tmp/load.$i")" != 20 ]; then
    echo "  SERVE RESILIENCE: $(wc -l < "$tmp/load.$i")/20 responses drained (iter $i)" >&2
    status=1
  fi
  if [ -e "$sock" ]; then
    echo "  SERVE RESILIENCE: socket file left behind (iter $i)" >&2
    status=1
  fi
done
[ "$status" -eq 0 ] \
  && echo "  ok: serve resilience (disconnects, SIGTERM drain, 3 iterations)"

echo "== store-determinism gate =="
# The trace warehouse contract (DESIGN.md §18): two independently
# built stores — a 1-worker and a 2-worker batch sweep — must be
# byte-identical down to every segment file; per-run answers from the
# store must match the JSONL-file path byte for byte; and the fleet
# query surface must answer byte-identically from either build.
run_exe=_build/default/bin/hth_run.exe
trace_exe=_build/default/bin/hth_trace.exe
dune build bin/hth_run.exe bin/hth_trace.exe
"$run_exe" batch --jobs 1 --store "$tmp/store1" > /dev/null
"$run_exe" batch --jobs 2 --store "$tmp/store2" > /dev/null
if diff -r "$tmp/store1" "$tmp/store2" >/dev/null; then
  echo "  ok: batch --jobs 2 store byte-identical to --jobs 1"
else
  echo "  STORE NONDETERMINISM: --jobs 2 store diverged from --jobs 1" >&2
  diff -r "$tmp/store1" "$tmp/store2" | head -10 >&2 || true
  status=1
fi

# store-vs-file answers: one run teed to both destinations, every
# per-run analysis compared byte for byte
"$run_exe" run pma --trace "$tmp/pma.tee.jsonl" --store "$tmp/store.tee" \
  > /dev/null
store_file_ok=1
for c in explain profile replay; do
  "$trace_exe" "$c" "$tmp/pma.tee.jsonl" > "$tmp/pma.$c.file"
  "$trace_exe" "$c" --store "$tmp/store.tee" pma > "$tmp/pma.$c.store"
  if ! cmp -s "$tmp/pma.$c.file" "$tmp/pma.$c.store"; then
    echo "  STORE ANSWER DIVERGED: $c (file vs warehouse)" >&2
    store_file_ok=0
    status=1
  fi
done
"$trace_exe" query "$tmp/pma.tee.jsonl" --ev flow > "$tmp/pma.query.file"
"$trace_exe" query --store "$tmp/store.tee" pma --ev flow \
  > "$tmp/pma.query.store"
if ! cmp -s "$tmp/pma.query.file" "$tmp/pma.query.store"; then
  echo "  STORE ANSWER DIVERGED: query (file vs warehouse)" >&2
  store_file_ok=0
  status=1
fi
# reconstructed trace must byte-equal the teed file: self-diff exits 0
if ! "$trace_exe" diff --store "$tmp/store.tee" pma pma > /dev/null; then
  echo "  STORE ANSWER DIVERGED: self-diff nonzero" >&2
  store_file_ok=0
  status=1
fi
[ "$store_file_ok" -eq 1 ] \
  && echo "  ok: explain/query/profile/replay/diff identical from file and store"

# the fleet surface, from both builds
fleet_ok=1
for q in ls "query --severity HIGH" "query --resource SYS_execve" \
         "profile --top 5" "diff pma"; do
  # shellcheck disable=SC2086
  "$trace_exe" fleet $q --store "$tmp/store1" > "$tmp/fleetq.1"
  # shellcheck disable=SC2086
  "$trace_exe" fleet $q --store "$tmp/store2" > "$tmp/fleetq.2"
  if ! cmp -s "$tmp/fleetq.1" "$tmp/fleetq.2"; then
    echo "  FLEET QUERY DIVERGED ACROSS BUILDS: fleet $q" >&2
    status=1
    fleet_ok=0
  fi
done
[ "$fleet_ok" -eq 1 ] \
  && echo "  ok: fleet ls/query/profile/diff byte-identical across builds"

# SIGTERM under load with a store attached: appends are
# publish-atomic and ordered before response emission, so the drained
# store must hold exactly one complete, readable run per drained
# response — never a torn segment
sock="$tmp/hth.store.sock"
"$serve_exe" --socket "$sock" --jobs 2 --deadline 30 \
  --store "$tmp/store.srv" 2> "$tmp/serve_store.log" &
srv=$!
n=0
while [ ! -S "$sock" ] && [ "$n" -lt 100 ]; do
  sleep 0.05
  n=$((n + 1))
done
"$client_exe" --socket "$sock" < "$tmp/load.jobs" > "$tmp/load.store" &
cli=$!
sleep 0.3
kill -TERM "$srv"
wait "$cli" || true
if wait "$srv"; then :; else
  echo "  STORE DRAIN: server exit code $? after SIGTERM" >&2
  status=1
fi
drained=$(wc -l < "$tmp/load.store")
stored=$(wc -l < "$tmp/store.srv/MANIFEST.jsonl")
if [ "$stored" != "$drained" ]; then
  echo "  STORE DRAIN: $stored stored runs vs $drained drained responses" >&2
  status=1
fi
# every manifest entry's segment index must load (profile touches all),
# and a full segment reconstruction must round-trip
if "$trace_exe" fleet profile --store "$tmp/store.srv" > /dev/null \
   && { [ "$stored" -eq 0 ] \
        || "$trace_exe" profile --store "$tmp/store.srv" pma@0 > /dev/null; }
then
  echo "  ok: SIGTERM-drained store complete-or-absent ($stored runs)"
else
  echo "  STORE DRAIN: drained store failed to read back" >&2
  status=1
fi

[ "$status" -eq 0 ] && echo "all checks passed"
exit "$status"
