#!/bin/sh
# Codegen-safety check for the SIMD kernel TUs.
#
# kernel_avx2.cpp and kernel_avx512.cpp are compiled with ISA flags that
# baseline code must never execute unguarded. If either TU emitted a weak
# (W) or vague-linkage (V) copy of a shared inline function — a Fixed or
# Half operator, a std:: template — the linker could keep that AVX-encoded
# copy for every caller in the program. This fails if either object in the
# archive defines such a symbol. The one exception is
# DW.ref.__gxx_personality_v0, the weak data pointer to the C++ personality
# routine that every TU with exception tables emits; it holds no code.
#
# Usage: check_kernel_symbols.sh <nm> <libdnnfi_dnn.a>
set -eu
nm_bin=$1
archive=$2
"$nm_bin" -C --defined-only "$archive" | awk '
  /^[^ ]+\.o:$/ {
    member = substr($0, 1, length($0) - 1)
    checked = (member == "kernel_avx2.cpp.o" || member == "kernel_avx512.cpp.o")
    if (checked) seen++
    next
  }
  checked && ($2 == "W" || $2 == "V") && $3 != "DW.ref.__gxx_personality_v0" {
    print member ": " $0
    bad++
  }
  END {
    if (seen != 2) {
      print "expected kernel_avx2.cpp.o and kernel_avx512.cpp.o in the archive, found " seen + 0
      exit 1
    }
    if (bad > 0) {
      print bad " weak or vague-linkage symbol(s) in the kernel TUs"
      exit 1
    }
    print "kernel TUs define no weak or vague-linkage symbols"
  }'
