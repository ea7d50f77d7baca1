#!/usr/bin/env bash
# Deep correctness pass, slower than scripts/check.sh:
#   1. lint (pcqe_lint.py self-test + repo sweep)
#   2. full test suite under ASan+UBSan (fails on any sanitizer report:
#      -fno-sanitize-recover=all turns every report into a test failure)
#   3. the concurrent tests under TSan — ASan and TSan cannot be combined in
#      one binary, so the data-race check is its own build tree scoped to the
#      tests that actually exercise threads: the service layer plus the
#      parallel-solver suite (thread pool, D&C fan-out, shared B&B incumbent)
#      and the fault-injection suite (error/deadline paths under workers)
#   4. a second configure with the GCC static analyzer (-fanalyzer) and
#      -Werror, so any analyzer diagnostic fails the build
#   5. a GCC Release build (-O3) of the library and tools with
#      -DPCQE_WERROR=ON: -O3 inlines more of libstdc++, and some warnings
#      (-Wrestrict, for one) only fire there
#   6. clang Thread Safety Analysis (-Wthread-safety -Werror) over the
#      library and tools — the compile-time lock-discipline gate — plus the
#      negative-compile fixture check. Skipped with a notice when clang is
#      not installed; TSan (leg 3) still covers the dynamic side.
#   7. clang-tidy (bugprone/concurrency/performance checks from the repo
#      .clang-tidy) over src/ and tools/. Skipped when absent.
# Usage: scripts/analyze.sh
set -euo pipefail
cd "$(dirname "$0")/.."

GENERATOR_ARGS=()
if command -v ninja > /dev/null 2>&1; then GENERATOR_ARGS=(-G Ninja); fi

# An existing tree keeps its generator; re-specifying a different one errors
# (same policy as scripts/check.sh). Echoes e.g. "-G Ninja" for fresh trees;
# call sites expand unquoted on purpose.
generator_args_for() {
  if [[ -f "$1/CMakeCache.txt" ]]; then return; fi
  printf '%s' "${GENERATOR_ARGS[*]}"
}

# First clang/clang++ pair on PATH, trying bare names then versioned ones.
find_clang() {
  local cxx
  for cxx in clang++ clang++-19 clang++-18 clang++-17 clang++-16 clang++-15 \
      clang++-14; do
    if command -v "$cxx" > /dev/null 2>&1; then
      printf '%s' "$cxx"
      return 0
    fi
  done
  return 1
}

echo "== [1/7] lint"
scripts/lint.sh

echo "== [2/7] ASan+UBSan test suite"
cmake -B build-asan -S . $(generator_args_for build-asan) \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPCQE_SANITIZE="address;undefined" \
  -DPCQE_BUILD_BENCHMARKS=OFF -DPCQE_BUILD_EXAMPLES=OFF
cmake --build build-asan -j"$(nproc)"
ctest --test-dir build-asan -j"$(nproc)" --output-on-failure

echo "== [3/7] TSan concurrency tests"
cmake -B build-tsan -S . $(generator_args_for build-tsan) \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPCQE_SANITIZE=thread \
  -DPCQE_BUILD_BENCHMARKS=OFF -DPCQE_BUILD_EXAMPLES=OFF
cmake --build build-tsan -j"$(nproc)" \
  --target service_test service_stress_test parallel_solver_test \
           fault_injection_test
ctest --test-dir build-tsan \
  -R '^(service_test|service_stress_test|parallel_solver_test|fault_injection_test)$' \
  --output-on-failure

echo "== [4/7] GCC static analyzer (-fanalyzer -Werror)"
# Analyze the library and tools only: gtest/benchmark headers are not ours
# and -fanalyzer over them is slow and noisy.
cmake -B build-analyzer -S . $(generator_args_for build-analyzer) \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPCQE_ANALYZER=ON -DPCQE_WERROR=ON \
  -DPCQE_BUILD_TESTS=OFF -DPCQE_BUILD_BENCHMARKS=OFF -DPCQE_BUILD_EXAMPLES=OFF
cmake --build build-analyzer -j"$(nproc)"

echo "== [5/7] GCC Release build (-O3, -DPCQE_WERROR=ON)"
cmake -B build-release-werror -S . $(generator_args_for build-release-werror) \
  -DCMAKE_BUILD_TYPE=Release -DPCQE_WERROR=ON \
  -DPCQE_BUILD_TESTS=OFF -DPCQE_BUILD_BENCHMARKS=OFF -DPCQE_BUILD_EXAMPLES=OFF
cmake --build build-release-werror -j"$(nproc)"

echo "== [6/7] clang thread-safety analysis (-Wthread-safety -Werror)"
if CLANG_CXX=$(find_clang); then
  # Library and tools only, mirroring the -fanalyzer leg: the annotations
  # live in src/ and tools/; tests and benches are single-threaded callers
  # outside the analyzed locking discipline.
  cmake -B build-tsa -S . $(generator_args_for build-tsa) \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_COMPILER="$CLANG_CXX" \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DPCQE_THREAD_SAFETY=ON -DPCQE_WERROR=ON \
    -DPCQE_BUILD_TESTS=OFF -DPCQE_BUILD_BENCHMARKS=OFF -DPCQE_BUILD_EXAMPLES=OFF
  cmake --build build-tsa -j"$(nproc)"
  # Fixture gate: each bad_*.cc must be rejected, each good_*.cc accepted.
  tests/thread_safety_compile_test.sh src tests/thread_safety "$CLANG_CXX"
else
  echo "SKIP: clang not installed; thread-safety analysis not run" \
       "(the annotations are no-ops under GCC — install clang to verify the" \
       "lock discipline at compile time)"
fi

echo "== [7/7] clang-tidy"
if command -v clang-tidy > /dev/null 2>&1; then
  # clang-tidy needs a compilation database; reuse the TSA tree if clang was
  # found above, else generate one with the default compiler.
  TIDY_BUILD=build-tsa
  if [[ ! -f "$TIDY_BUILD/compile_commands.json" ]]; then
    TIDY_BUILD=build-tidy
    cmake -B "$TIDY_BUILD" -S . $(generator_args_for "$TIDY_BUILD") \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
      -DPCQE_BUILD_TESTS=OFF -DPCQE_BUILD_BENCHMARKS=OFF -DPCQE_BUILD_EXAMPLES=OFF
  fi
  find src tools -name '*.cc' -print0 |
    xargs -0 clang-tidy -p "$TIDY_BUILD" --warnings-as-errors='*' --quiet
else
  echo "SKIP: clang-tidy not installed"
fi

echo "analyze: lint, sanitizers, data-race check, and static analyzers all clean"
