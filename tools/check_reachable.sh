#!/usr/bin/env bash
# Lists the library functions that no consumer links, and fails if one of
# them is not on tools/reachable_allowlist.txt.
#
#   tools/check_reachable.sh [BUILD_DIR]     # default: build-reach/
#
# The consumers are the bench/ drivers, the two google-benchmark micro
# benches, the examples/ programs (sdfmem_cli among them) and the
# perfbench/ package's sdfmem_perfbench. Everything is compiled at
# -O0 -fno-inline -ffunction-sections, so each function keeps its own
# section, and linked with --gc-sections, so a function survives in an
# executable only if something reachable from main calls it. A text symbol
# of namespace sdf that is in libsdfmem.a but in no consumer is reached by
# nothing but the tests. Lambdas (local to the function that uses them) and
# std:: instantiations are ignored.
#
# Needs cmake, a C++20 compiler, GTest and google-benchmark (the top-level
# project finds both), nm and c++filt.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
dir=${1:-$root/build-reach}
allow=$root/tools/reachable_allowlist.txt
jobs=$(nproc 2>/dev/null || echo 2)

consumers=(
  table1_practical fig25_improvement fig27_random homogeneous_table
  randsort_study sdppo_vs_dppo dynamic_vs_static io_buffering_cddat
  fig3_granularity ablation_merging ablation_nappearance ablation_allocators
  codesize_tradeoff blocking_sweep design_frontier explore_scaling
  micro_scheduling micro_allocation micro_extensions
  quickstart filterbank_tour satellite_receiver homogeneous_sharing
  codegen_demo sdfmem_cli fir_regularity cyclic_control_loop moving_average
)

flags=(
  -DCMAKE_BUILD_TYPE=None
  "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)

cmake -S "$root" -B "$dir/main" "${flags[@]}" > /dev/null
cmake --build "$dir/main" -j "$jobs" --target "${consumers[@]}" > /dev/null
cmake -S "$root/perfbench" -B "$dir/perfbench" "${flags[@]}" > /dev/null
cmake --build "$dir/perfbench" -j "$jobs" --target sdfmem_perfbench > /dev/null

# Mangled names of functions in namespace sdf: _ZN, then optional cv/ref
# qualifiers, then 3sdf. Local entities (lambdas among them) mangle as _ZZ
# and std:: ones as _ZSt/_ZNSt, so neither matches.
sdf_text() {
  nm --defined-only "$@" 2>/dev/null |
    awk '$2 ~ /^[TtWw]$/ && $3 ~ /^_ZN[KVrRO]*3sdf/ { print $3 }' | sort -u
}

lib=$dir/main/src/libsdfmem.a
exes=()
for c in "${consumers[@]}"; do
  exes+=("$(find "$dir/main" -type f -name "$c" -perm -u+x | head -n 1)")
done
exes+=("$dir/perfbench/sdfmem_perfbench")
for e in "${exes[@]}"; do
  [[ -x $e ]] || { echo "check_reachable: missing consumer $e" >&2; exit 1; }
done

sdf_text "$lib" > "$dir/lib.syms"
for e in "${exes[@]}"; do sdf_text "$e"; done | sort -u > "$dir/linked.syms"
comm -23 "$dir/lib.syms" "$dir/linked.syms" | c++filt |
  grep -v '{lambda(' | sort -u > "$dir/unreached.txt" || true

# An allowlist entry is a function name without its parameter list (it
# keeps every overload of that name), a full signature as c++filt prints
# it, or a prefix ending in '*'. Text after '#' is the reason.
mapfile -t allowed < <(sed -e 's/#.*//' -e 's/[[:space:]]*$//' -e '/^$/d' \
  "$allow")
is_allowed() {
  local sym=$1 name entry
  name=${sym//"(anonymous namespace)"/"{anon}"}
  name=${name%%(*}
  name=${name//"{anon}"/"(anonymous namespace)"}
  name=${name//"[abi:cxx11]"/}
  for entry in "${allowed[@]}"; do
    if [[ $entry == *'*' ]]; then
      [[ $sym == "${entry%'*'}"* ]] && return 0
    elif [[ $entry == "$name" || $entry == "$sym" ]]; then
      return 0
    fi
  done
  return 1
}

status=0
while IFS= read -r sym; do
  [[ -z $sym ]] && continue
  if is_allowed "$sym"; then
    echo "kept      $sym"
  else
    echo "UNREACHED $sym"
    status=1
  fi
done < "$dir/unreached.txt"

if [[ $status -ne 0 ]]; then
  echo "check_reachable: functions above marked UNREACHED are linked by no" \
       "consumer; delete them or add them to tools/reachable_allowlist.txt" >&2
fi
exit $status
