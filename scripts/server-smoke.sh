#!/usr/bin/env bash
# End-to-end smoke test of the sweep daemon (also run by the CI
# server-smoke job): build recnserved and recnsim, start the daemon,
# submit a small figure sweep over HTTP, poll to completion, require the
# fetched results to equal recnsim's tables (recnsim prints a blank line
# after each table, stripped here; the exact-byte API-vs-library
# contract is tier-1's TestAPISweepByteIdenticalToCLIAndCacheHits),
# exercise the too_many_runs admission rejection, resubmit the same spec
# and require every run to come from the cache, then SIGTERM-drain.
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:8321}"
WORK="$(mktemp -d)"
SRV=
cleanup() {
  [ -n "$SRV" ] && kill "$SRV" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

say() { echo "server-smoke: $*"; }

# jsonfield FILE KEY -> first top-level-ish string/number value of KEY.
jsonfield() {
  sed -n "s/^  \"$2\": \"\{0,1\}\([^\",]*\)\"\{0,1\},\{0,1\}\$/\1/p" "$1" | head -1
}

go build -o "$WORK/recnserved" ./cmd/recnserved
go build -o "$WORK/recnsim" ./cmd/recnsim

say "starting daemon on $ADDR"
"$WORK/recnserved" -addr "$ADDR" -cache "$WORK/cache" -queue-cap 4 -max-runs 8 &
SRV=$!
for _ in $(seq 50); do
  curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "http://$ADDR/healthz" >/dev/null

say "oversized request is rejected with the typed error"
code=$(curl -s -o "$WORK/reject.json" -w '%{http_code}' \
  -X POST "http://$ADDR/v1/sweeps" -d '{"figures":["2a","2b"]}')
[ "$code" = 413 ] || { say "want 413, got $code"; cat "$WORK/reject.json"; exit 1; }
grep -q too_many_runs "$WORK/reject.json"

submit_and_wait() {
  curl -fsS -X POST "http://$ADDR/v1/sweeps" -d '{"figures":["2a"],"scale":0.05}' > "$WORK/job.json"
  id=$(jsonfield "$WORK/job.json" id)
  [ -n "$id" ] || { say "no job id in response"; cat "$WORK/job.json"; exit 1; }
  say "job $id submitted; polling"
  state=
  for _ in $(seq 300); do
    curl -fsS "http://$ADDR/v1/sweeps/$id" > "$WORK/status.json"
    state=$(jsonfield "$WORK/status.json" state)
    case "$state" in
      done) break ;;
      failed|canceled) say "job $id $state"; cat "$WORK/status.json"; exit 1 ;;
    esac
    sleep 1
  done
  [ "$state" = done ] || { say "job $id never finished"; exit 1; }
}

say "submit a small fig2 sweep and fetch results"
submit_and_wait
curl -fsS "http://$ADDR/v1/sweeps/$id/results" > "$WORK/api.txt"

say "API results must equal recnsim's tables"
"$WORK/recnsim" -fig 2a -scale 0.05 -q | sed '/^$/d' > "$WORK/cli.txt"
cmp "$WORK/api.txt" "$WORK/cli.txt"

say "resubmitting the same spec: every run must be a cache hit"
submit_and_wait
done_runs=$(jsonfield "$WORK/status.json" runs_done)
cached_runs=$(jsonfield "$WORK/status.json" runs_cached)
[ "$done_runs" = "$cached_runs" ] && [ "$done_runs" != 0 ] || {
  say "want all runs cached, got $cached_runs/$done_runs"; exit 1; }
curl -fsS "http://$ADDR/v1/sweeps/$id/results" > "$WORK/api2.txt"
cmp "$WORK/api.txt" "$WORK/api2.txt"

say "metrics report the cache hits"
curl -fsS "http://$ADDR/metrics" > "$WORK/metrics.txt"
grep -q '^recnserved_runs_cached_total [1-9]' "$WORK/metrics.txt"
grep -q '^recnserved_rejected_too_many_runs_total 1' "$WORK/metrics.txt"

say "SIGTERM drains and exits cleanly"
kill -TERM "$SRV"
wait "$SRV"
SRV=
say "ok"
