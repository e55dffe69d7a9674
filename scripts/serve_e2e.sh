#!/usr/bin/env bash
# End-to-end exercise of the fpserved conversion service: boot on a
# random port with the debug surface and request tracing enabled, hit
# every endpoint, check the 10k-value batch stream byte-for-byte
# against the fpprint reference and its kernel and batch counters
# exactly, round-trip that output through the
# /v1/batch-parse ingestion engine and back, round-trip interval text
# through /v1/interval with an enclosure assertion, propagate a W3C
# traceparent end to end (response header, access log, and
# /debug/traces), scrape /metrics (including the per-route RED
# metrics, the runtime collector, and the exact-core, batch-parse,
# and interval counters), exercise /debug/pprof and the
# slow-request captures in /debug/traces, verify request ids tie
# responses to the structured access log, and verify graceful shutdown
# drains and exits 0 within the drain deadline.  A second, short boot
# with tracing off checks that -debug still captures a slow request in
# /debug/traces, as a one-span trace, and that /v1/fixed takes Gay's
# fast path by default and the exact core under backend=exact.
#
# Run from the repository root:  ./scripts/serve_e2e.sh
set -euo pipefail

workdir="$(mktemp -d)"
pid=""
cleanup() {
  [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() { echo "serve_e2e: FAIL: $*" >&2; exit 1; }

echo "== build =="
go build -o "$workdir/fpserved" ./cmd/fpserved
go build -o "$workdir/fpprint" ./cmd/fpprint

# boot starts fpserved on a random port with the given flags, logging
# to $workdir/serve.log, and sets pid and base.
boot() {
  "$workdir/fpserved" -addr 127.0.0.1:0 "$@" >"$workdir/serve.log" 2>&1 &
  pid=$!
  local addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/^fpserved listening on //p' "$workdir/serve.log" | head -n1)"
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { cat "$workdir/serve.log" >&2; fail "fpserved exited during startup"; }
    sleep 0.1
  done
  [ -n "$addr" ] || fail "no listening line within 10s"
  base="http://$addr"
  echo "fpserved up at $base (pid $pid)"
}

# shutdown sends SIGTERM and requires a clean drain and exit 0 within
# 15s.
shutdown() {
  kill -TERM "$pid"
  local deadline=$((SECONDS + 15))
  while kill -0 "$pid" 2>/dev/null; do
    [ "$SECONDS" -lt "$deadline" ] || fail "fpserved still running 15s after SIGTERM"
    sleep 0.1
  done
  local rc=0
  wait "$pid" || rc=$?
  pid=""
  [ "$rc" -eq 0 ] || { cat "$workdir/serve.log" >&2; fail "fpserved exited $rc, want 0"; }
  grep -q "drained cleanly" "$workdir/serve.log" || fail "missing 'drained cleanly' in server log"
}

echo "== boot on a random port =="
# -slow-request 1ns makes every request a slow capture, and
# -trace-sample 1 traces every request, so /debug/traces holds every
# conversion request below (the ring is sized to keep them all).
boot -drain 10s -debug -slow-request 1ns -trace-sample 1 -trace-ring 128

echo "== /healthz =="
got="$(curl -fsS "$base/healthz")"
[ "$got" = "ok" ] || fail "/healthz = $got, want ok"

echo "== /v1/shortest =="
got="$(curl -fsS "$base/v1/shortest?v=1e23")"
[ "$got" = "1e23" ] || fail "/v1/shortest?v=1e23 = $got, want 1e23"
got="$(curl -fsS "$base/v1/shortest?v=1e23&mode=unknown")"
[ "$got" = "9.999999999999999e22" ] || fail "mode=unknown = $got"

echo "== /v1/shortest: backend selection =="
got="$(curl -fsS "$base/v1/shortest?v=0.3&backend=auto")"
[ "$got" = "0.3" ] || fail "backend=auto v=0.3 = $got, want 0.3"
# The exact core counts its own scale-estimator runs, traced request or
# not: one exact conversion is one estimate.
metric_now() { curl -fsS "$base/metrics" | awk -v m="$1" '$1 == m { print $2 }'; }
before="$(metric_now floatprint_trace_estimates_total)"
got="$(curl -fsS "$base/v1/shortest?v=0.3&backend=exact")"
[ "$got" = "0.3" ] || fail "backend=exact v=0.3 = $got, want 0.3"
after="$(metric_now floatprint_trace_estimates_total)"
[ -n "$before" ] && [ "$after" -eq $((before + 1)) ] \
  || fail "traced backend=exact did not advance floatprint_trace_estimates_total by one ($before -> $after)"
# An unknown backend is a client error, not a conversion; grisu is not a
# backend (auto runs the Ryu kernel under every reader mode).
for b in bogus grisu; do
  code="$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/shortest?v=0.3&backend=$b")"
  [ "$code" = "400" ] || fail "backend=$b returned HTTP $code, want 400"
done

echo "== /v1/shortest: non-default nearest mode on the Ryu kernel =="
before="$(metric_now floatprint_ryu_hits_total)"
got="$(curl -fsS "$base/v1/shortest?v=0.3&mode=unknown")"
[ "$got" = "0.3" ] || fail "mode=unknown v=0.3 = $got, want 0.3"
after="$(metric_now floatprint_ryu_hits_total)"
[ "$after" -eq $((before + 1)) ] \
  || fail "mode=unknown did not advance floatprint_ryu_hits_total by one ($before -> $after)"

echo "== /v1/fixed =="
got="$(curl -fsS "$base/v1/fixed?v=3.14159&n=3")"
[ "$got" = "3.14" ] || fail "/v1/fixed?v=3.14159&n=3 = $got, want 3.14"

echo "== /v1/parse =="
got="$(curl -fsS "$base/v1/parse?s=0.3")"
[ "$got" = "0.3" ] || fail "/v1/parse?s=0.3 = $got, want 0.3"
# 1e23 is the classic nearest-even tie: the read kernel decides it by the
# exact reader's own rounding rule.
got="$(curl -fsS "$base/v1/parse?s=1e23")"
[ "$got" = "1e23" ] || fail "/v1/parse?s=1e23 = $got, want 1e23"
# 5e-324 is subnormal, which the fast path declines: it must fall back to
# the exact reader and still answer correctly.
got="$(curl -fsS "$base/v1/parse?s=5e-324")"
[ "$got" = "5e-324" ] || fail "/v1/parse?s=5e-324 = $got, want 5e-324"
# Out-of-range input keeps IEEE semantics: ErrRange maps to +/-Inf.
got="$(curl -fsS "$base/v1/parse?s=-1e999")"
[ "$got" = "-Inf" ] || fail "/v1/parse?s=-1e999 = $got, want -Inf"

echo "== /v1/interval: outward print, enclosure parse =="
got="$(curl -fsS "$base/v1/interval?lo=0.1&hi=0.3")"
[ "$got" = "[0.1,0.3]" ] || fail "/v1/interval?lo=0.1&hi=0.3 = $got"
# Degenerate interval: both endpoints are one-sided conversions of the
# same float, outward-rounded so the decimal interval encloses it.
printed="$(curl -fsS "$base/v1/interval?lo=0.3&hi=0.3")"
[ "$printed" = "[0.29999999999999998,0.3]" ] || fail "/v1/interval?lo=0.3&hi=0.3 = $printed"
# Parse form: read the printed text back with outward rounding; the
# response is the enclosing rendering of the parsed endpoints, so its
# numeric endpoints must bracket the ones that went in.
parsed="$(curl -fsS --get --data-urlencode "s=$printed" "$base/v1/interval")"
[ "$parsed" = "[0.29999999999999993,0.30000000000000005]" ] || fail "interval parse of $printed = $parsed"
echo "$printed $parsed" | tr -d '[]' | tr ', ' '  ' \
  | awk '{ if ($3 > $1 || $4 < $2) exit 1 }' \
  || fail "parsed interval $parsed does not enclose printed $printed"

echo "== request ids: response header ties to the structured access log =="
req_id="$(curl -fsS -D - -o /dev/null "$base/v1/shortest?v=0.5" \
  | tr -d '\r' | sed -n 's/^X-Request-Id: //pI' | head -n1)"
[ -n "$req_id" ] || fail "no X-Request-Id header on /v1/shortest"
# The access-log line is written after the handler returns, so the
# response can arrive a beat before the line hits the log: retry briefly.
found=""
for _ in $(seq 1 50); do
  if grep -q "request_id=$req_id" "$workdir/serve.log"; then found=1; break; fi
  sleep 0.1
done
[ -n "$found" ] || { cat "$workdir/serve.log" >&2; fail "request_id=$req_id not in access log"; }
grep "request_id=$req_id" "$workdir/serve.log" | grep -q "path=/v1/shortest" \
  || fail "access log line for $req_id missing path"
grep "request_id=$req_id" "$workdir/serve.log" | grep -q "trace_id=" \
  || fail "access log line for $req_id missing trace_id"

echo "== W3C traceparent: propagation into header, log, and /debug/traces =="
upstream_trace="4bf92f3577b34da6a3ce929d0e0e4736"
upstream_span="00f067aa0ba902b7"
trace_id="$(curl -fsS -D - -o /dev/null \
  -H "traceparent: 00-$upstream_trace-$upstream_span-01" \
  "$base/v1/shortest?v=0.25" \
  | tr -d '\r' | sed -n 's/^X-Trace-Id: //pI' | head -n1)"
[ "$trace_id" = "$upstream_trace" ] || fail "X-Trace-Id = $trace_id, want adopted upstream $upstream_trace"
# The trace publishes when the root span ends; give the ring a beat.
found=""
for _ in $(seq 1 50); do
  curl -fsS "$base/debug/traces?route=/v1/shortest" >"$workdir/traces.json"
  if grep -q "$upstream_trace" "$workdir/traces.json"; then found=1; break; fi
  sleep 0.1
done
[ -n "$found" ] || { cat "$workdir/traces.json" >&2; fail "upstream trace id not in /debug/traces"; }
grep -q "\"parent_id\":\"$upstream_span\"" "$workdir/traces.json" \
  || fail "/debug/traces root span not parented on upstream span $upstream_span"
for span_name in decode convert encode; do
  grep -q "\"name\":\"$span_name\"" "$workdir/traces.json" \
    || fail "/debug/traces missing $span_name child span"
done
grep -q '"key":"backend"' "$workdir/traces.json" \
  || fail "/debug/traces convert span missing backend attribute"
grep "trace_id=$upstream_trace" "$workdir/serve.log" | grep -q "path=/v1/shortest" \
  || fail "access log missing trace_id=$upstream_trace line"

echo "== /v1/batch: 10k values, byte-identical to the fpprint reference =="
awk 'BEGIN { srand(7); for (i = 0; i < 10000; i++) printf "%.17g\n", (rand() - 0.5) * exp((rand() - 0.5) * 200) }' \
  >"$workdir/input.txt"
"$workdir/fpprint" <"$workdir/input.txt" >"$workdir/want.txt"
# The batch engine sums the Ryu kernel's hits and misses per chunk and
# adds each sum once, yet the counts must stay exact: one kernel attempt
# per nonzero finite value (zeros and specials never reach it), one
# batch value per line.
ryu_attempts() { echo $(( $(metric_now floatprint_ryu_hits_total) + $(metric_now floatprint_ryu_misses_total) )); }
ryu_before="$(ryu_attempts)"
values_before="$(metric_now floatprint_batch_values_total)"
curl -fsS -X POST --data-binary "@$workdir/input.txt" "$base/v1/batch" >"$workdir/got.txt"
ryu_after="$(ryu_attempts)"
values_after="$(metric_now floatprint_batch_values_total)"
cmp "$workdir/want.txt" "$workdir/got.txt" || fail "batch output differs from per-value reference"
[ "$(wc -l <"$workdir/got.txt")" -eq 10000 ] || fail "batch returned $(wc -l <"$workdir/got.txt") lines"
finite="$(awk '$1 != "0" && $1 != "-0" && $1 != "NaN" && $1 != "+Inf" && $1 != "-Inf"' "$workdir/want.txt" | wc -l)"
[ "$((ryu_after - ryu_before))" -eq "$finite" ] \
  || fail "batch moved ryu hits+misses by $((ryu_after - ryu_before)), want $finite (nonzero finite values)"
[ -n "$values_before" ] && [ "$((values_after - values_before))" -eq 10000 ] \
  || fail "batch moved floatprint_batch_values_total by $((values_after - values_before)), want 10000"

echo "== /v1/batch-parse: round-trip through the ingestion engine =="
# Parse the batch output (10k shortest renderings) into packed
# little-endian float64s, then print the packed values back through
# /v1/batch: a bit-exact parse must reproduce got.txt byte for byte.
curl -fsS -X POST --data-binary "@$workdir/got.txt" "$base/v1/batch-parse" >"$workdir/parsed.bin"
[ "$(wc -c <"$workdir/parsed.bin")" -eq 80000 ] || fail "batch-parse returned $(wc -c <"$workdir/parsed.bin") bytes, want 80000"
curl -fsS -X POST -H 'Content-Type: application/octet-stream' \
  --data-binary "@$workdir/parsed.bin" "$base/v1/batch" >"$workdir/roundtrip.txt"
cmp "$workdir/got.txt" "$workdir/roundtrip.txt" || fail "batch-parse round trip is not bit-identical"
# A malformed token before any output is a mapped 400 with coordinates.
code="$(printf '1.5\nbogus\n' | curl -s -o "$workdir/badparse.txt" -w '%{http_code}' --data-binary @- "$base/v1/batch-parse")"
[ "$code" = "400" ] || fail "malformed batch-parse returned HTTP $code, want 400"
grep -q "record 1" "$workdir/badparse.txt" || fail "batch-parse 400 lacks record coordinates: $(cat "$workdir/badparse.txt")"

echo "== /metrics =="
curl -fsS "$base/metrics" >"$workdir/metrics.txt"
batch_values="$(awk '$1 == "floatprint_batch_values_total" { print $2 }' "$workdir/metrics.txt")"
[ -n "$batch_values" ] || fail "floatprint_batch_values_total missing from /metrics"
[ "$batch_values" -ge 10000 ] || fail "floatprint_batch_values_total = $batch_values, want >= 10000"
# fpserved_requests_total is labeled by route; sum the samples for the
# process total and pin the per-route breakdown exactly.
requests="$(awk '/^fpserved_requests_total\{/ { sum += $2 } END { print sum+0 }' "$workdir/metrics.txt")"
# Twenty-one conversion requests so far (nine shortest — including the
# two backend selections, the rejected backend=bogus and backend=grisu
# counted at receipt, the mode=unknown request, and the
# traceparent-propagation request — one fixed, four parse, three
# interval, one batch, two batch-parse, and the round-trip batch);
# /healthz, /metrics, and /debug bypass the per-request wrapper and are
# deliberately not counted.
[ "$requests" -eq 21 ] || fail "fpserved_requests_total sums to $requests, want 21"

echo "== /metrics: per-route RED breakdown =="
grep -q 'fpserved_requests_total{route="/v1/shortest"} 9' "$workdir/metrics.txt" \
  || fail "per-route requests_total for /v1/shortest wrong: $(grep 'fpserved_requests_total{route="/v1/shortest"}' "$workdir/metrics.txt")"
grep -q 'fpserved_requests_total{route="/v1/batch"} 2' "$workdir/metrics.txt" \
  || fail "per-route requests_total for /v1/batch wrong"
# backend=bogus and backend=grisu were the two 4xx on the shortest
# route; batch-parse saw the malformed-token 400.
grep -q 'fpserved_request_errors_total{route="/v1/shortest",class="4xx"} 2' "$workdir/metrics.txt" \
  || fail "per-route 4xx for /v1/shortest wrong"
grep -q 'fpserved_request_errors_total{route="/v1/batch-parse",class="4xx"} 1' "$workdir/metrics.txt" \
  || fail "per-route 4xx for /v1/batch-parse wrong"
grep -q 'fpserved_request_errors_total{route="/v1/shortest",class="5xx"} 0' "$workdir/metrics.txt" \
  || fail "per-route 5xx for /v1/shortest wrong"
grep -q 'fpserved_request_seconds_count{route="/v1/shortest"} 9' "$workdir/metrics.txt" \
  || fail "per-route latency histogram count for /v1/shortest wrong"
grep -q 'fpserved_request_seconds_bucket{route="/v1/batch",le="+Inf"} 2' "$workdir/metrics.txt" \
  || fail "per-route latency histogram for /v1/batch wrong"

echo "== /metrics: runtime collector =="
goroutines="$(awk '$1 == "fpserved_goroutines" { print $2 }' "$workdir/metrics.txt")"
[ -n "$goroutines" ] && [ "$goroutines" -ge 1 ] || fail "fpserved_goroutines missing or zero"
heap="$(awk '$1 == "fpserved_heap_alloc_bytes" { print $2 }' "$workdir/metrics.txt")"
[ -n "$heap" ] && [ "$heap" -ge 1 ] || fail "fpserved_heap_alloc_bytes missing or zero"
grep -q '^fpserved_gomaxprocs ' "$workdir/metrics.txt" || fail "fpserved_gomaxprocs missing"
grep -q '^fpserved_gc_cycles_total ' "$workdir/metrics.txt" || fail "fpserved_gc_cycles_total missing"
grep -q '^fpserved_uptime_seconds ' "$workdir/metrics.txt" || fail "fpserved_uptime_seconds missing"
grep -q '^fpserved_build_info{go_version="go' "$workdir/metrics.txt" \
  || fail "fpserved_build_info missing go_version label"
grep -q 'instance="' "$workdir/metrics.txt" || fail "fpserved_build_info missing instance label"

echo "== /metrics: batch-parse engine counters =="
bp_values="$(awk '$1 == "floatprint_batch_parse_values_total" { print $2 }' "$workdir/metrics.txt")"
[ -n "$bp_values" ] || fail "floatprint_batch_parse_values_total missing from /metrics"
[ "$bp_values" -ge 10000 ] || fail "floatprint_batch_parse_values_total = $bp_values, want >= 10000"
bp_blocks="$(awk '$1 == "floatprint_batch_parse_blocks_total" { print $2 }' "$workdir/metrics.txt")"
[ -n "$bp_blocks" ] || fail "floatprint_batch_parse_blocks_total missing from /metrics"
[ "$bp_blocks" -ge 1 ] || fail "floatprint_batch_parse_blocks_total = $bp_blocks, want >= 1"
bp_bytes="$(awk '$1 == "floatprint_batch_parse_bytes_total" { print $2 }' "$workdir/metrics.txt")"
[ -n "$bp_bytes" ] || fail "floatprint_batch_parse_bytes_total missing from /metrics"
[ "$bp_bytes" -ge 10000 ] || fail "floatprint_batch_parse_bytes_total = $bp_bytes, want >= 10000"
grep -q '^floatprint_batch_parse_fallbacks_total' "$workdir/metrics.txt" \
  || fail "floatprint_batch_parse_fallbacks_total missing from /metrics"

echo "== /metrics: interval counters =="
iv_prints="$(awk '$1 == "floatprint_interval_prints_total" { print $2 }' "$workdir/metrics.txt")"
[ -n "$iv_prints" ] || fail "floatprint_interval_prints_total missing from /metrics"
# Three formatted intervals: the two print-form requests plus the
# enclosing rendering of the parse-form response.
[ "$iv_prints" -eq 3 ] || fail "floatprint_interval_prints_total = $iv_prints, want 3"
iv_parses="$(awk '$1 == "floatprint_interval_parses_total" { print $2 }' "$workdir/metrics.txt")"
[ -n "$iv_parses" ] || fail "floatprint_interval_parses_total missing from /metrics"
[ "$iv_parses" -eq 1 ] || fail "floatprint_interval_parses_total = $iv_parses, want 1"

echo "== /metrics: parse path counters =="
parse_hits="$(awk '$1 == "floatprint_parse_fast_hits_total" { print $2 }' "$workdir/metrics.txt")"
[ -n "$parse_hits" ] || fail "floatprint_parse_fast_hits_total missing from /metrics"
[ "$parse_hits" -ge 1 ] || fail "floatprint_parse_fast_hits_total = $parse_hits, want >= 1"
parse_exact="$(awk '$1 == "floatprint_parse_exact_total" { print $2 }' "$workdir/metrics.txt")"
[ -n "$parse_exact" ] || fail "floatprint_parse_exact_total missing from /metrics"
# The 5e-324 subnormal and the 1e999 overflow both took the exact reader.
[ "$parse_exact" -ge 2 ] || fail "floatprint_parse_exact_total = $parse_exact, want >= 2"

echo "== /metrics: ryu backend counters =="
ryu_hits="$(awk '$1 == "floatprint_ryu_hits_total" { print $2 }' "$workdir/metrics.txt")"
[ -n "$ryu_hits" ] || fail "floatprint_ryu_hits_total missing from /metrics"
# The Ryu kernel serves every base-10 nearest-mode shortest conversion,
# so nearly all of the 10k batch lands here (less the rare exact-halfway
# declines and specials, well under 1%).
[ "$ryu_hits" -ge 9900 ] || fail "floatprint_ryu_hits_total = $ryu_hits, want >= 9900"
grep -q '^floatprint_ryu_misses_total' "$workdir/metrics.txt" \
  || fail "floatprint_ryu_misses_total missing from /metrics"

echo "== /debug/pprof and /debug/traces captures (enabled by -debug) =="
curl -fsS "$base/debug/pprof/" | grep -q goroutine || fail "/debug/pprof/ index missing profiles"
code="$(curl -s -o /dev/null -w '%{http_code}' "$base/debug/exemplars")"
[ "$code" = "404" ] || fail "/debug/exemplars returned HTTP $code, want 404"
curl -fsS "$base/debug/traces" >"$workdir/captures.json"
grep -q '"route":"/v1/batch"' "$workdir/captures.json" \
  || fail "/debug/traces missing the batch request capture"
grep -q "{\"key\":\"request_id\",\"value\":\"$req_id\"}" "$workdir/captures.json" \
  || fail "/debug/traces missing a request_id attribute for request $req_id"
grep -q "\"trace_id\":\"$upstream_trace\"" "$workdir/captures.json" \
  || fail "/debug/traces missing the upstream trace id $upstream_trace"

echo "== graceful shutdown =="
shutdown

echo "== tracing off: -debug captures a slow request as a one-span trace =="
boot -drain 10s -debug -slow-request 1ns
hdrs="$(curl -fsS -D - -o /dev/null "$base/v1/shortest?v=0.5" | tr -d '\r')"
slow_id="$(echo "$hdrs" | sed -n 's/^X-Request-Id: //pI' | head -n1)"
[ -n "$slow_id" ] || fail "no X-Request-Id header on /v1/shortest"
if echo "$hdrs" | grep -qi '^X-Trace-Id:'; then fail "tracing off, yet X-Trace-Id was sent"; fi
# The capture publishes when the request's accounting finishes; give the
# ring a beat.
found=""
for _ in $(seq 1 50); do
  curl -fsS "$base/debug/traces" >"$workdir/untraced.json"
  if grep -q '"total":1,' "$workdir/untraced.json"; then found=1; break; fi
  sleep 0.1
done
[ -n "$found" ] || { cat "$workdir/untraced.json" >&2; fail "/debug/traces did not capture the slow request"; }
grep -q '"sample_every":0,' "$workdir/untraced.json" || fail "/debug/traces sample_every not 0 with tracing off"
grep -q '"route":"/v1/shortest"' "$workdir/untraced.json" || fail "untraced capture missing its route"
grep -q '"reason":"slow"' "$workdir/untraced.json" || fail "untraced capture reason is not slow"
grep -q "{\"key\":\"request_id\",\"value\":\"$slow_id\"}" "$workdir/untraced.json" \
  || fail "untraced capture missing request_id $slow_id"
[ "$(grep -o '"name":' "$workdir/untraced.json" | wc -l)" -eq 1 ] \
  || fail "untraced capture is not a one-span trace: $(cat "$workdir/untraced.json")"
if grep -q '"trace_id"' "$workdir/untraced.json"; then fail "untraced capture carries a trace id"; fi

echo "== /v1/fixed: backend=exact pins the exact core; the default takes Gay's fast path =="
gay_before="$(metric_now floatprint_gay_hits_total)"
exact_before="$(metric_now floatprint_exact_fixed_total)"
got="$(curl -fsS "$base/v1/fixed?v=3.14159&n=3&backend=exact")"
[ "$got" = "3.14" ] || fail "/v1/fixed?v=3.14159&n=3&backend=exact = $got, want 3.14"
exact_after="$(metric_now floatprint_exact_fixed_total)"
gay_after="$(metric_now floatprint_gay_hits_total)"
[ "$exact_after" -eq $((exact_before + 1)) ] \
  || fail "backend=exact fixed moved floatprint_exact_fixed_total $exact_before -> $exact_after, want +1"
[ "$gay_after" -eq "$gay_before" ] \
  || fail "backend=exact fixed moved floatprint_gay_hits_total $gay_before -> $gay_after, want +0"
got="$(curl -fsS "$base/v1/fixed?v=3.14159&n=3")"
[ "$got" = "3.14" ] || fail "/v1/fixed?v=3.14159&n=3 = $got, want 3.14"
gay_after="$(metric_now floatprint_gay_hits_total)"
[ "$gay_after" -eq $((gay_before + 1)) ] \
  || fail "default fixed moved floatprint_gay_hits_total $gay_before -> $gay_after, want +1"
shutdown

echo "serve_e2e: PASS"
