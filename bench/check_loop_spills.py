#!/usr/bin/env python3
"""Check that the hot loops of the SIMD kernels touch no stack memory.

Usage, from the root of a checkout after a Release build:

    python3 bench/check_loop_spills.py [build/libsaufno.a]

Disassembles the library with `objdump -d` and finds every loop of the
functions below: the address range from a conditional backward branch's
target to the branch. For each loop it prints the instruction count and
the number of instructions with an %rsp- or %rbp-based memory operand. A
register-tiled loop with such operands is reloading or spilling values that
should live in registers.

The loops in CLEAN must have none; the script exits 1 otherwise. That is
micro_kernel_avx2, the gemm's 6x16 tile, whose 12 accumulators and 2 B
vectors must stay in registers across the k loop. The rest are reported
only:
  - softmax_panel_avx2: the max pass (the loop of 8 running maxima) is
    clean; the exp+sum pass adds into a [key mod 8][query] array of double
    sums on the stack by design (32 YMM of partial sums);
  - pack_bt_panel_avx2: the second 8x8 block of each k step reloads
    source-row pointers and spills 4 vectors (16 row pointers and 16
    vectors do not fit the register files).
"""

import re
import subprocess
import sys

CLEAN = ["micro_kernel_avx2"]
REPORT = ["softmax_panel_avx2", "pack_bt_panel_avx2"]

HEADER = re.compile(r"^[0-9a-f]+ <(.*)>:$")
INSTR = re.compile(r"^\s*([0-9a-f]+):\s+(\S+)\s*(.*)$")
STACK = re.compile(r"\(%r[sb]p[,)]")


def functions(library):
    """Yields (demangled name, [(address, mnemonic, operands)])."""
    out = subprocess.run(["objdump", "-d", "-C", "--no-show-raw-insn", library],
                         check=True, capture_output=True, text=True).stdout
    name, body = None, []
    for line in out.splitlines():
        header = HEADER.match(line)
        if header:
            if name is not None:
                yield name, body
            name, body = header.group(1), []
            continue
        instr = INSTR.match(line)
        if name is not None and instr:
            body.append((int(instr.group(1), 16), instr.group(2), instr.group(3)))
    if name is not None:
        yield name, body


def loops(body):
    """Yields (first, last) instruction indices of each conditional backward
    branch. An unconditional backward jmp is not counted: GCC closes its
    loops with a conditional branch and uses jmp to re-enter shared code."""
    index = {addr: i for i, (addr, _, _) in enumerate(body)}
    for i, (addr, mnemonic, operands) in enumerate(body):
        if not mnemonic.startswith("j") or mnemonic == "jmp":
            continue
        target = operands.split()[0] if operands else ""
        try:
            dest = int(target, 16)
        except ValueError:
            continue  # indirect jump
        if dest <= addr and dest in index:
            yield index[dest], i


def main():
    library = sys.argv[1] if len(sys.argv) > 1 else "build/libsaufno.a"
    wanted = CLEAN + REPORT
    seen, dirty = set(), []
    for name, body in functions(library):
        short = next((w for w in wanted if f"::{w}(" in name), None)
        if short is None:
            continue
        seen.add(short)
        for n, (first, last) in enumerate(sorted(loops(body))):
            span = body[first:last + 1]
            stack = sum(1 for _, _, ops in span if STACK.search(ops))
            print(f"{short} loop {n} [{span[0][0]:#x}, {span[-1][0]:#x}]: "
                  f"{len(span)} instructions, {stack} stack operands")
            if stack and short in CLEAN:
                dirty.append(f"{short} loop {n}")
    missing = [w for w in wanted if w not in seen]
    if missing:
        print(f"FAIL: not found in {library}: {', '.join(missing)}")
        return 1
    if dirty:
        print(f"FAIL: stack operands in {', '.join(dirty)}")
        return 1
    print("OK: every loop of " + ", ".join(CLEAN) + " stays in registers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
