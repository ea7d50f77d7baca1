#!/usr/bin/env bash
# Full local check: lint, configure, build (the pcqe_bench harness too), test,
# smoke-run examples and benches.
# Usage: scripts/check.sh [--full]   (--full runs benches at paper scale)
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE=quick
if [[ "${1:-}" == "--full" ]]; then SCALE=paper; fi

scripts/lint.sh

# Share one build tree with the tier-1 path: use Ninja when available, else
# whatever CMake picks by default (Makefiles).
GENERATOR_ARGS=()
if command -v ninja > /dev/null 2>&1; then GENERATOR_ARGS=(-G Ninja); fi
if [[ -f build/CMakeCache.txt ]]; then
  # An existing tree keeps its generator; re-specifying a different one errors.
  GENERATOR_ARGS=()
fi

cmake -B build "${GENERATOR_ARGS[@]}"
cmake --build build -j"$(nproc)"

# Compile, never run, the end-to-end benchmark harness (pcqe_bench/, its own
# Release project over src/) in its own tree, so that an API change that
# breaks it fails here instead of in a benchmark run.
BENCH_GENERATOR_ARGS=()
if [[ ! -f build/pcqe_bench/CMakeCache.txt ]] && command -v ninja > /dev/null 2>&1; then
  BENCH_GENERATOR_ARGS=(-G Ninja)
fi
cmake -S pcqe_bench -B build/pcqe_bench "${BENCH_GENERATOR_ARGS[@]}"
cmake --build build/pcqe_bench -j"$(nproc)"

ctest --test-dir build -j"$(nproc)" --output-on-failure

for example in build/examples/*; do
  [[ -f "$example" && -x "$example" ]] || continue
  echo "== example: $example"
  "$example" > /dev/null
done

# Telemetry smoke: the shell must expose a parseable metrics page and record
# a trace for a served query.
echo "== shell: .metrics smoke"
METRICS_OUT=$(printf '.metrics\n.quit\n' | build/tools/pcqe_shell)
echo "$METRICS_OUT" | grep -q "pcqe_engine_queries_total" \
  || { echo ".metrics smoke failed: no pcqe_engine_queries_total in output"; exit 1; }

# Shell transcript smokes. Each expected transcript under
# tests/shell_transcripts/ is the row interpreter's output for the same input
# (the differential oracle), recorded when the shell could still switch
# interpreters, and byte-identical there to the vectorized interpreter's. The
# shell now serves through the vectorized interpreter only and must still
# print exactly that transcript.
TRANSCRIPTS=tests/shell_transcripts
expect_transcript() {  # expect_transcript <name> <actual output>
  local expected
  expected=$(cat "$TRANSCRIPTS/$1.txt")
  [[ "$2" == "$expected" ]] \
    || { echo "$1 smoke failed: output differs from $TRANSCRIPTS/$1.txt"; \
         diff <(echo "$expected") <(echo "$2") || true; exit 1; }
}

echo "== shell: vectorized differential smoke"
SMOKE_CSV=$(mktemp)
cat > "$SMOKE_CSV" <<'EOF'
id,amount,conf
1,50.5,0.9
2,120.0,0.4
3,75.25,0.7
4,300.0,0.85
5,120.0,0.4
EOF
SMOKE_SQL='SELECT id, amount FROM t WHERE amount < 200.0 ORDER BY amount DESC, id;'
VEC_OUT=$(printf '.load t %s conf\n%s\n.quit\n' "$SMOKE_CSV" "$SMOKE_SQL" | build/tools/pcqe_shell)
rm -f "$SMOKE_CSV"
echo "$VEC_OUT" | grep -q "4 row(s)" \
  || { echo "vectorized smoke failed: query returned no rows"; echo "$VEC_OUT"; exit 1; }
expect_transcript vectorized_differential "$VEC_OUT"

# Negative-literal GROUP BY, served through the engine (a policy applies), so
# its counters see the query: the oracle's table, with the filter on the typed
# kernels and native grouping, and no row evaluated one at a time.
echo "== shell: negative-literal GROUP BY smoke"
GROUP_CSV=$(mktemp)
cat > "$GROUP_CSV" <<'EOF'
id,amount,conf
1,50.5,0.9
2,-120.0,0.4
3,75.25,0.7
4,-300.0,0.85
5,-120.0,0.4
EOF
GROUP_SQL='SELECT amount, COUNT(*) AS n, MIN(id) AS first FROM t WHERE amount >= -200.0 GROUP BY amount ORDER BY amount;'
run_group() {
  printf '.load t %s conf\n.role add R\n.user add u\n.role grant u R\n.policy add R general 0.1\n.user use u\n%s\n%b.quit\n' \
    "$GROUP_CSV" "$GROUP_SQL" "${1:-}" | build/tools/pcqe_shell
}
VEC_GROUP=$(run_group)
VEC_METRICS=$(run_group '.metrics\n')
rm -f "$GROUP_CSV"
echo "$VEC_GROUP" | grep -q "3 of 3 row(s) released" \
  || { echo "GROUP BY smoke failed: expected 3 released groups"; echo "$VEC_GROUP"; exit 1; }
expect_transcript negative_group_by "$VEC_GROUP"
echo "$VEC_METRICS" | grep -q '^pcqe_engine_queries_total 1$' \
  || { echo "GROUP BY smoke failed: the query did not reach the engine"; exit 1; }
echo "$VEC_METRICS" | grep -q '^pcqe_engine_vec_fallback_rows_total 0$' \
  || { echo "GROUP BY smoke failed: rows took the row-at-a-time fallback"; \
       echo "$VEC_METRICS" | grep fallback_rows; exit 1; }

# Served grouped smoke: a single-table GROUP BY through the service, whose
# cache keeps the vectorized result's group lineage deferred. A shortfall
# (.fraction 0.9) makes the solver box it, `.why` explains the blocked group,
# and a repeat at .fraction 0 is a cache hit that `.why` boxes on demand.
echo "== shell: served grouped smoke"
SERVE_CSV=$(mktemp)
cat > "$SERVE_CSV" <<'EOF'
site,v,conf
7,1.5,0.3
3,2.0,0.9
7,2.5,0.2
3,3.0,0.8
3,3.5,0.95
7,4.0,0.4
5,1.0,0.6
EOF
SERVE_SQL='SELECT site, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY site;'
VEC_SERVED=$(printf '.load t %s conf\n.role add R\n.user add u\n.role grant u R\n.policy add R general 0.1\n.serve 2\n.session u\n.fraction 0.9\n%s\n.why 1\n.fraction 0\n%s\n.why 1\n.quit\n' \
  "$SERVE_CSV" "$SERVE_SQL" "$SERVE_SQL" | build/tools/pcqe_shell)
rm -f "$SERVE_CSV"
expect_transcript served_grouped "$VEC_SERVED"
echo "$VEC_SERVED" | grep -q "improvement available" \
  || { echo "served grouped smoke failed: no shortfall proposal"; echo "$VEC_SERVED"; exit 1; }
[[ $(echo "$VEC_SERVED" | grep -c "most influential base tuples") -eq 2 ]] \
  || { echo "served grouped smoke failed: .why explained no row"; echo "$VEC_SERVED"; exit 1; }

# Observability smoke: `.explain analyze json` must report a profiled
# operator tree and `.audit json` must reconstruct the policy decision —
# without ever exporting a blocked value. Rendered JSON is kept under
# build/observability_smoke/ (CI uploads it as an artifact).
echo "== shell: .explain analyze / .audit smoke"
OBS_DIR=build/observability_smoke
mkdir -p "$OBS_DIR"
OBS_CSV=$(mktemp)
cat > "$OBS_CSV" <<'EOF'
id,secret,conf
1,ssn-111-22-3333,0.9
2,ssn-444-55-6666,0.2
3,ssn-777-88-9999,0.7
EOF
printf '.load t %s conf\n.explain analyze json SELECT id FROM t WHERE id > 1\n.quit\n' "$OBS_CSV" \
  | build/tools/pcqe_shell | grep -o '{"mode".*}' > "$OBS_DIR/explain.json"
grep -q '"operators"' "$OBS_DIR/explain.json" \
  || { echo "explain smoke failed: no operators in $OBS_DIR/explain.json"; exit 1; }
printf '.load t %s conf\n.role add R\n.user add u\n.role grant u R\n.policy add R general 0.5\n.user use u\nSELECT id, secret FROM t;\n.audit json\n.quit\n' "$OBS_CSV" \
  | build/tools/pcqe_shell | grep -o '{"audit".*}' > "$OBS_DIR/audit.json"
rm -f "$OBS_CSV"
grep -q '"kind":"query"' "$OBS_DIR/audit.json" \
  || { echo "audit smoke failed: no query record in $OBS_DIR/audit.json"; exit 1; }
grep -q '"released":false' "$OBS_DIR/audit.json" \
  || { echo "audit smoke failed: no blocked row recorded"; exit 1; }
# Privacy contract: the blocked row's value must never appear in the export.
if grep -q 'ssn-444-55-6666' "$OBS_DIR/audit.json"; then
  echo "audit smoke failed: blocked value leaked into the audit export"
  exit 1
fi

# Export smoke: `.save` (CSV export) and `.savedb` (snapshot) write straight
# from the column chunks. A snapshot reopened in a fresh shell must export
# and snapshot to the same bytes, and a `.save`d file loaded into a fresh
# shell must `.save` to the same bytes: NULLs apart from empty strings,
# quoted fields and 17-digit negative doubles included.
echo "== shell: export round-trip smoke"
EXPORT_DIR=$(mktemp -d)
cat > "$EXPORT_DIR/in.csv" <<'EOF'
id,label,reading,ok,conf
1,"north, ""A""",-0.12345678901234566,true,0.9
2,,-1234.5678901234567,,0.30000000000000004
3,plain,,false,0.5
4,"",0.25,true,0.7
EOF
mkdir -p "$EXPORT_DIR/db1" "$EXPORT_DIR/db2"
FIRST_OUT=$(printf '.load t %s conf\n.save t %s\n.savedb %s\n.quit\n' \
  "$EXPORT_DIR/in.csv" "$EXPORT_DIR/first.csv" "$EXPORT_DIR/db1" | build/tools/pcqe_shell)
SECOND_OUT=$(printf '.opendb %s\n.save t %s\n.savedb %s\n.quit\n' \
  "$EXPORT_DIR/db1" "$EXPORT_DIR/second.csv" "$EXPORT_DIR/db2" | build/tools/pcqe_shell)
THIRD_OUT=$(printf '.load t %s confidence\n.save t %s\n.quit\n' \
  "$EXPORT_DIR/first.csv" "$EXPORT_DIR/third.csv" | build/tools/pcqe_shell)
for expected in "loaded 4 rows" "saved $EXPORT_DIR/first.csv" "database saved"; do
  echo "$FIRST_OUT" | grep -qF "$expected" \
    || { echo "export smoke failed: no '$expected'"; echo "$FIRST_OUT"; exit 1; }
done
for expected in "database loaded" "saved $EXPORT_DIR/second.csv" "database saved"; do
  echo "$SECOND_OUT" | grep -qF "$expected" \
    || { echo "export smoke failed: no '$expected'"; echo "$SECOND_OUT"; exit 1; }
done
grep -qF '"north, ""A"""' "$EXPORT_DIR/first.csv" \
  || { echo "export smoke failed: quoted field lost"; cat "$EXPORT_DIR/first.csv"; exit 1; }
for expected in "loaded 4 rows" "saved $EXPORT_DIR/third.csv"; do
  echo "$THIRD_OUT" | grep -qF "$expected" \
    || { echo "export smoke failed: no '$expected'"; echo "$THIRD_OUT"; exit 1; }
done
grep -qF -- '-1234.5678901234567,,' "$EXPORT_DIR/db1/t.csv" \
  || { echo "export smoke failed: snapshot lost a digit or a NULL"; cat "$EXPORT_DIR/db1/t.csv"; exit 1; }
grep -qF '4,"",0.25,' "$EXPORT_DIR/db1/t.csv" \
  || { echo "export smoke failed: snapshot lost an empty string"; cat "$EXPORT_DIR/db1/t.csv"; exit 1; }
cmp "$EXPORT_DIR/first.csv" "$EXPORT_DIR/second.csv" \
  || { echo "export smoke failed: .save differs after .opendb"; exit 1; }
cmp "$EXPORT_DIR/first.csv" "$EXPORT_DIR/third.csv" \
  || { echo "export smoke failed: .save differs after .load of a .save"; exit 1; }
diff -r "$EXPORT_DIR/db1" "$EXPORT_DIR/db2" \
  || { echo "export smoke failed: .savedb differs after .opendb"; exit 1; }
rm -rf "$EXPORT_DIR"

for bench in build/bench/*; do
  [[ -f "$bench" && -x "$bench" ]] || continue
  echo "== bench: $bench"
  if [[ "$bench" == *micro_* ]]; then
    PCQE_BENCH_SCALE=$SCALE "$bench" --benchmark_min_time=0.01 > /dev/null
  else
    PCQE_BENCH_SCALE=$SCALE "$bench" > /dev/null
  fi
done

echo "all checks passed (scale=$SCALE)"
