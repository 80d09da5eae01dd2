#!/usr/bin/env python3
"""Checks that the AVX2 copies of the plain-loop kernels are vectorized.

Usage: check_vectorized.py [<cpu.cc.o>]
       check_vectorized.py --self-test

common/cpu.cc compiles the loops of common/cpu_loops.inc twice, once into
namespace `avx2` under `#pragma GCC target("avx2")` (DESIGN.md §13). Nothing
fails if the compiler quietly leaves those loops scalar — the results stay
bit-identical, only slower — so this script disassembles the object file
(`objdump -d -C`) and requires at least one ymm instruction in every function
of the `avx2` namespace. Clones the compiler splits off a function
(`[clone .cold]`, `.part.0`, ...) count toward the function they came from.

The default object path is the default (RelWithDebInfo) build's:
    build/CMakeFiles/conclave.dir/src/conclave/common/cpu.cc.o

Exit status: 0 when at least one avx2 function exists and all of them use ymm
registers; 1 otherwise.
"""

import re
import subprocess
import sys

DEFAULT_OBJECT = "build/CMakeFiles/conclave.dir/src/conclave/common/cpu.cc.o"

# "0000000000002080 <conclave::cpu::(anonymous namespace)::avx2::AddU64(...)>:"
SYMBOL = re.compile(r"^[0-9a-f]+ <(?P<name>.*)>:$")
NAMESPACE = "::avx2::"


def base_function(symbol):
    """The function a symbol belongs to: the demangled name up to its
    parameter list, with compiler clone suffixes dropped."""
    name = symbol.split(" [clone", 1)[0].replace("(anonymous namespace)::", "")
    return name.split("(", 1)[0]


def vectorized_functions(disassembly):
    """Maps each avx2-namespace function to whether any of its instructions
    (clones included) names a ymm register."""
    result = {}
    current = None
    for line in disassembly.splitlines():
        match = SYMBOL.match(line)
        if match:
            name = base_function(match.group("name"))
            current = name if NAMESPACE in name else None
            if current is not None:
                result.setdefault(current, False)
        elif current is not None and "%ymm" in line:
            result[current] = True
    return result


def check(disassembly):
    functions = vectorized_functions(disassembly)
    vectorized = sorted(name for name, ok in functions.items() if ok)
    scalar = sorted(name for name, ok in functions.items() if not ok)
    print(f"{len(vectorized)} of {len(functions)} avx2 functions vectorized")
    for name in scalar:
        print(f"  no ymm instruction: {name}")
    return 0 if functions and not scalar else 1


SELF_TEST_INPUT = """
0000000000000010 <conclave::cpu::(anonymous namespace)::avx2::AddU64(unsigned long const*, unsigned long const*, unsigned long, unsigned long*)>:
  10:	vmovdqu (%rdi,%rax,1),%ymm0
0000000000000040 <conclave::cpu::avx2::MinOf(long const*, unsigned long)>:
  40:	mov    (%rdi),%rax
0000000000000080 <conclave::cpu::avx2::MinOf(long const*, unsigned long) [clone .cold]>:
  80:	vpcmpgtq %ymm1,%ymm0,%ymm2
00000000000000c0 <conclave::cpu::baseline::SumU64(unsigned long const*, unsigned long)>:
  c0:	paddq  %xmm1,%xmm0
0000000000000100 <conclave::cpu::avx2::SumU64(unsigned long const*, unsigned long)>:
 100:	add    (%rdi),%rax
"""


def self_test():
    functions = vectorized_functions(SELF_TEST_INPUT)
    expected = {
        "conclave::cpu::avx2::AddU64": True,
        "conclave::cpu::avx2::MinOf": True,  # via its .cold clone
        "conclave::cpu::avx2::SumU64": False,
    }
    if functions != expected:
        print(f"self-test FAILED: got {functions}")
        return 1
    if check(SELF_TEST_INPUT) != 1 or check("") != 1:
        print("self-test FAILED: a scalar or missing avx2 function passed")
        return 1
    print("self-test passed")
    return 0


def main():
    args = sys.argv[1:]
    if args == ["--self-test"]:
        sys.exit(self_test())
    if len(args) > 1:
        print(__doc__)
        sys.exit(2)
    path = args[0] if args else DEFAULT_OBJECT
    disassembly = subprocess.run(
        ["objdump", "-d", "-C", "--no-show-raw-insn", path],
        check=True, capture_output=True, text=True).stdout
    sys.exit(check(disassembly))


if __name__ == "__main__":
    main()
