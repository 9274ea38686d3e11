"""Fixed calibration kernel: measures how fast this host runs Python right now.

The benchmark host is a shared 2-CPU machine whose speed drifts by tens
of percent over minutes.  Timing this kernel next to every guest run and
dividing by it cancels most of that drift.  The kernel is a tiny
interpreter of a made-up register machine, so it does the same kind of
work as the simulator (attribute access, dict dispatch, method calls,
list and bytearray indexing, int arithmetic) without sharing its code,
and it must not change: a change would rescale every reported timing.
"""

import random
import time

M32 = 0xFFFFFFFF
STEPS = 75000          # kernel length, in interpreted instructions
REFERENCE_S = 0.05     # the kernel's CPU time on the reference host, by definition
# The simulator's CPU time moves with the host less than the kernel's does:
# over 20 processes per workload on a shared 2-CPU machine, log simulator time
# fell by 0.70-0.85 times the rise of log kernel speed.  Full rescaling
# (exponent 1) overcorrects and spreads medians more than exponent 0.8.
EXPONENT = 0.8


class _Machine:
    __slots__ = ("regs", "mem", "pc", "acc", "ops")

    def __init__(self):
        self.regs = [0] * 16
        self.mem = bytearray(4096)
        self.pc = 0
        self.acc = 0
        self.ops = {0: self.add, 1: self.xor_shift, 2: self.load, 3: self.store,
                    4: self.branch, 5: self.mul}

    def add(self, a, b, imm):
        self.regs[a] = (self.regs[b] + imm) & M32

    def xor_shift(self, a, b, imm):
        self.regs[a] = (self.regs[a] ^ (self.regs[b] << (imm & 7))) & M32

    def load(self, a, b, imm):
        off = (self.regs[b] + imm) & 0xFFC
        self.regs[a] = int.from_bytes(self.mem[off:off + 4], "little")

    def store(self, a, b, imm):
        off = (self.regs[b] + imm) & 0xFFC
        self.mem[off:off + 4] = self.regs[a].to_bytes(4, "little")

    def branch(self, a, b, imm):
        if self.regs[a] & 1:
            self.pc = (self.pc + imm) & 255

    def mul(self, a, b, imm):
        self.regs[a] = (self.regs[a] * self.regs[b] + 1) & M32

    def run(self, program, steps):
        ops = self.ops
        for _ in range(steps):
            word = program[self.pc]
            self.pc = (self.pc + 1) & 255
            ops[word >> 12](word & 15, (word >> 4) & 15, (word >> 8) & 15)
            self.acc += 1


def _program():
    rng = random.Random(7)
    return [rng.randrange(6) << 12 | rng.randrange(4096) for _ in range(256)]


_PROGRAM = _program()


def host_factor():
    """(REFERENCE_S / the kernel's CPU time now) ** EXPONENT: multiply a CPU
    time measured at about the same moment by this to express it at
    reference speed."""
    machine = _Machine()
    t0 = time.process_time()
    machine.run(_PROGRAM, STEPS)
    return (REFERENCE_S / (time.process_time() - t0)) ** EXPONENT
