#!/bin/sh
# Codegen-safety check for the SIMD kernel TUs.
#
# kernel_avx2.cpp, kernel_avx512.cpp and kernel_avx512fp16.cpp are compiled
# with ISA flags that baseline code must never execute unguarded. If a
# kernel TU emitted a weak (W) or vague-linkage (V) copy of a shared inline
# function — a Fixed or Half operator, a std:: template — the linker could
# keep that AVX-encoded copy for every caller in the program. This fails if
# any named object in the archive defines such a symbol, or if one of them
# is missing. The one exception is DW.ref.__gxx_personality_v0, the weak
# data pointer to the C++ personality routine that every TU with exception
# tables emits; it holds no code.
#
# Usage: check_kernel_symbols.sh <nm> <libdnnfi_dnn.a> <object>...
#   e.g. check_kernel_symbols.sh nm libdnnfi_dnn.a kernel_avx2.cpp.o
set -eu
nm_bin=$1
archive=$2
shift 2
[ "$#" -gt 0 ] || { echo "no kernel objects named" >&2; exit 2; }
"$nm_bin" -C --defined-only "$archive" | awk -v objects="$*" '
  BEGIN { want = split(objects, list, " "); for (i in list) named[list[i]] = 1 }
  /^[^ ]+\.o:$/ {
    member = substr($0, 1, length($0) - 1)
    checked = (member in named)
    if (checked) seen++
    next
  }
  checked && ($2 == "W" || $2 == "V") && $3 != "DW.ref.__gxx_personality_v0" {
    print member ": " $0
    bad++
  }
  END {
    if (seen != want) {
      print "expected " objects " in the archive, found " seen + 0 " of them"
      exit 1
    }
    if (bad > 0) {
      print bad " weak or vague-linkage symbol(s) in the kernel TUs"
      exit 1
    }
    print "kernel TUs (" objects ") define no weak or vague-linkage symbols"
  }'
