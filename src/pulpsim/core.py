"""Event-based RV32IM core with a three-stage timing model.

Each instruction executes as one step: fetch through the instruction port
(cache latency added), table decode, semantics, then the next step is due
after

    charge = base + fetch latency + load-use stall + data latency
             (+ branch penalty when the semantics returned a pc)

cycles, where base is 1 plus the table's execute latency.  The step ends
each instruction with one engine call, `ClockDomain.run_ahead`: if the
core is alone in its domain and the next step lies strictly before the
engine's bound, the core runs it inline in the same callback (engine
module docstring), which gives the same timing with one engine dispatch
for many instructions; otherwise `run_ahead` stores the step event there
and the step returns.  Loads publish their result one write-back cycle
after completion; a consumer arriving earlier stalls on the register
scoreboard.

Semantics are closures, bound once per instruction word and core.
`SEMANTICS` maps each table name to a factory `make(core, ins)` (a core
refuses at build an ISA table entry whose name it lacks) that returns
`run(pc)`: the word's register indices and immediate, the core's
`regs` list and, for a data access, the core's reused data request and the
data port's handler are bound in.  `run(pc)` updates registers and memory
and returns the next pc if it transfers control (jal, jalr, mret, a taken
branch), else None.  A word whose only effect is its write to rd gets the
shared `_nop` when rd is x0.  `run` raises `Trap(cause, tval)` for ecall,
ebreak, an illegal CSR access or a jump or taken branch to a target off
the 4-byte grid (there is no C extension), before writing rd: the step
charges 1 + fetch latency + stall and enters the trap vector.  A jal's or
branch's target is pc + imm, so `imm & 2` decides when the word is bound
whether it traps; a jalr tests its target.  Loads and stores make their
one data access (isa module docstring) by setting the data request's
fields but `at` and calling the handler: the step sets `at` and charges
its advance and the contention the handler leaves.  A load reads from
rs1 + imm, or, in its post-increment mode (p.lwpost), from rs1 and then
adds imm to rs1 unless rs1 is x0 or rd.  An access the handler refuses
(`BusError`) traps as a `Trap` would, with the load or store access fault
at its address.  A blocking read from a synchronization register
(`Sleep`) is charged its attempt, and the core sleeps without retiring,
to re-execute the read on wake-up, when its value is determined; stores
never sleep.  A refused or blocked fetch is an instruction access fault,
charged 1 cycle.

A CSR instruction reads and writes the core attribute that `CSRS` names
for its CSR number, and a write keeps the bits `CSR_KEEP` gives.  Its
source is regs[rs1] | imm, since a CSR word decodes imm and a CSRI word
rs1 as 0.  An unknown CSR, or a write to one without `CSR_KEEP` bits,
raises an illegal-instruction trap; csrrs and csrrc (and their immediate
forms) write only with a non-zero source.

Decoding is cached per instruction word, not per pc, so self-modifying
code and fence.i need no invalidation.  Each cache entry is a flat tuple

    (ins, run, rs1, rs2, rd, 1 + latency, write-back latency if rd
     else 0, is_branch, is_load_or_store)

which the step unpacks instead of reading the table entry; `ins` is kept
for instruction traces.  The fetch and data requests are built once with
their fixed fields, and the step sets their `at` to its start cycle
before each access.  The step clears each response flag it reads where
it reads it (a fetch's `cache_miss`, a data access's `contended`), so
they are clear before every access.  Nothing reads a fetch's `contended`.
`reset` makes the step function, `_step`, a method of the core, and the
step event that calls it.  What only build and reset set is bound in as
the function's default arguments, so each use is a local load: the
domain, the scoreboard, the data request, the decode cache, the `/insn`
trace flag (read at reset), and the L1 with its `lines`, `sets`,
`hit_latency`, line shift and mask (each None without an L1).

Fetch fast path.  When the fetch port is bound to an instruction cache,
the step reads that cache's `lines`, live since the cache clears them in
place (icache module docstring): if the MRU way of pc's set holds pc's
line, the step serves the fetch as the cache's MRU hit would, done
`hit_latency` cycles after its issue, `hits` plus one and the word by
shift and mask.  That is exact whoever else is bound to the cache, since
such a hit changes no other state.  Every other fetch goes through the
cache's handler.  pc stays on the 4-byte grid (`boot_addr`,
`trap_vector` and `Platform.set_entry` refuse a pc off it, and jumps
trap), so a fetch never straddles a line.
"""

import operator
from types import MethodType

from .component import BusError, Component, register, Request, Sleep
from .engine import Event
from .errors import ConfigError
from .isa import IsaTable, sext

M32 = 0xFFFFFFFF

CAUSE_IMISALIGNED = 0
CAUSE_IACCESS = 1
CAUSE_ILLEGAL = 2
CAUSE_BREAK = 3
CAUSE_LOAD_FAULT = 5
CAUSE_STORE_FAULT = 7
CAUSE_ECALL = 11

COUNTER_NAMES = (
    "total_cycles", "active_cycles", "instr_retired", "load_stalls",
    "icache_misses", "tcdm_contentions", "branches_taken", "loads",
    "stores", "barrier_wait_cycles",
)

# CSR number -> the core attribute it reads: cycle, instret, mhartid, the
# trap CSRs and, from 0x7C0 on, the counters; the writable ones -> the bits
# a write keeps
CSRS = {0xC00: "total_cycles", 0xC02: "instr_retired", 0xF14: "hart_id",
        0x305: "csr_mtvec", 0x341: "csr_mepc", 0x342: "csr_mcause", 0x343: "csr_mtval",
        **{0x7C0 + n: name for n, name in enumerate(COUNTER_NAMES)}}
CSR_KEEP = {0x305: M32 & ~3, 0x341: M32 & ~3, 0x342: M32, 0x343: M32}


def _s32(v):
    return v - 0x100000000 if v & 0x80000000 else v


class Trap(Exception):
    """Raised by semantics, with args (cause, tval)."""


# -- instruction semantics -------------------------------------------------
# Factories make(core, ins) -> run(pc) (module docstring).  The step loop
# owns timing.

def _nop(pc):
    """The semantics of every word without effect."""

def _rd_only(make):
    """A factory whose semantics only write rd: with rd = x0, `_nop`."""
    def factory(c, i):
        return make(c, i) if i.rd else _nop
    return factory

@_rd_only
def _lui(c, i):
    regs, rd, value = c.regs, i.rd, i.imm & M32
    def run(pc):
        regs[rd] = value
    return run

@_rd_only
def _auipc(c, i):
    regs, rd, imm = c.regs, i.rd, i.imm
    def run(pc):
        regs[rd] = (pc + imm) & M32
    return run

def _jal(c, i):
    regs, rd, imm = c.regs, i.rd, i.imm
    if imm & 2:
        def run(pc):
            raise Trap(CAUSE_IMISALIGNED, (pc + imm) & M32)
        return run
    def run(pc):
        if rd:
            regs[rd] = (pc + 4) & M32
        return (pc + imm) & M32
    return run

def _jalr(c, i):
    regs, rd, rs1, imm = c.regs, i.rd, i.rs1, i.imm
    def run(pc):
        target = (regs[rs1] + imm) & M32 & ~1
        if target & 2:
            raise Trap(CAUSE_IMISALIGNED, target)
        if rd:
            regs[rd] = (pc + 4) & M32
        return target
    return run

def _branch(cond):
    def make(c, i):
        regs, rs1, rs2, imm = c.regs, i.rs1, i.rs2, i.imm
        if imm & 2:
            def run(pc):
                if cond(regs[rs1], regs[rs2]):
                    raise Trap(CAUSE_IMISALIGNED, (pc + imm) & M32)
            return run
        def run(pc):
            if cond(regs[rs1], regs[rs2]):
                return (pc + imm) & M32
        return run
    return make

def _load(size, signed=False, post=False):
    bits = size * 8
    def make(c, i):
        regs, rd, rs1 = c.regs, i.rd, i.rs1
        offset, bump = i.imm, 0
        if post:        # the loaded value wins when rs1 is rd
            offset, bump = 0, i.imm if rs1 != 0 and rs1 != rd else 0
        req, handler = c._data_req, c._data_handler
        def run(pc):
            addr = (regs[rs1] + offset) & M32
            req.addr = addr
            req.size = size
            req.is_write = False
            handler(req)
            if bump:
                regs[rs1] = (addr + bump) & M32
            if rd:
                regs[rd] = sext(req.value, bits) & M32 if signed else req.value
        return run
    return make

def _store(size):
    mask = (1 << (size * 8)) - 1
    def make(c, i):
        regs, rs1, rs2, imm = c.regs, i.rs1, i.rs2, i.imm
        req, handler = c._data_req, c._data_handler
        def run(pc):
            addr = (regs[rs1] + imm) & M32
            req.addr = addr
            req.size = size
            req.is_write = True
            req.value = regs[rs2] & mask
            handler(req)
        return run
    return make

def _op_imm(fn):
    @_rd_only
    def make(c, i):
        regs, rd, rs1, imm = c.regs, i.rd, i.rs1, i.imm
        def run(pc):
            regs[rd] = fn(regs[rs1], imm) & M32
        return run
    return make

def _op_reg(fn):
    @_rd_only
    def make(c, i):
        regs, rd, rs1, rs2 = c.regs, i.rd, i.rs1, i.rs2
        def run(pc):
            regs[rd] = fn(regs[rs1], regs[rs2]) & M32
        return run
    return make

def _div(a, b):
    if b == 0:
        return -1
    sa, sb = _s32(a), _s32(b)
    if sa == -0x80000000 and sb == -1:
        return sa
    q = abs(sa) // abs(sb)
    return -q if (sa < 0) != (sb < 0) else q

def _rem(a, b):
    if b == 0:
        return a
    sa, sb = _s32(a), _s32(b)
    if sa == -0x80000000 and sb == -1:
        return 0
    r = abs(sa) % abs(sb)
    return -r if sa < 0 else r

def _ecall(c, i):
    def run(pc):
        raise Trap(CAUSE_ECALL, 0)
    return run

def _ebreak(c, i):
    def run(pc):
        raise Trap(CAUSE_BREAK, pc)
    return run

def _mret(c, i):
    def run(pc):
        return c.csr_mepc
    return run

def _fence(c, i):
    return _nop

def _fence_i(c, i):
    flush = getattr(c.ports["fetch"].binding.owner, "flush", None)
    if flush is None:
        return _nop
    def run(pc):
        flush()
    return run

def _csr(write_always, op):
    def make(c, i):
        regs, rd, rs1, imm, word = c.regs, i.rd, i.rs1, i.imm, i.word
        name, keep = CSRS.get(i.csr), CSR_KEEP.get(i.csr)
        writes = write_always or rs1 or imm
        def run(pc):
            if name is None:
                raise Trap(CAUSE_ILLEGAL, word)
            old = getattr(c, name) & M32
            if writes:
                if keep is None:
                    raise Trap(CAUSE_ILLEGAL, word)
                setattr(c, name, op(old, regs[rs1] | imm) & keep)
            if rd:
                regs[rd] = old
        return run
    return make

@_rd_only
def _mac(c, i):
    regs, rd, rs1, rs2 = c.regs, i.rd, i.rs1, i.rs2
    def run(pc):
        regs[rd] = (regs[rd] + regs[rs1] * regs[rs2]) & M32
    return run


SEMANTICS = {
    "lui": _lui, "auipc": _auipc, "jal": _jal, "jalr": _jalr,
    "beq": _branch(operator.eq),
    "bne": _branch(operator.ne),
    "blt": _branch(lambda a, b: _s32(a) < _s32(b)),
    "bge": _branch(lambda a, b: _s32(a) >= _s32(b)),
    "bltu": _branch(operator.lt),
    "bgeu": _branch(operator.ge),
    "lb": _load(1, True), "lh": _load(2, True), "lw": _load(4),
    "lbu": _load(1), "lhu": _load(2),
    "sb": _store(1), "sh": _store(2), "sw": _store(4),
    "addi": _op_imm(operator.add),
    "slti": _op_imm(lambda a, b: _s32(a) < b),
    "sltiu": _op_imm(lambda a, b: a < (b & M32)),
    "xori": _op_imm(lambda a, b: a ^ (b & M32)),
    "ori": _op_imm(lambda a, b: a | (b & M32)),
    "andi": _op_imm(lambda a, b: a & (b & M32)),
    "slli": _op_imm(operator.lshift),
    "srli": _op_imm(operator.rshift),
    "srai": _op_imm(lambda a, b: _s32(a) >> b),
    "add": _op_reg(operator.add),
    "sub": _op_reg(operator.sub),
    "sll": _op_reg(lambda a, b: a << (b & 31)),
    "slt": _op_reg(lambda a, b: _s32(a) < _s32(b)),
    "sltu": _op_reg(operator.lt),
    "xor": _op_reg(operator.xor),
    "srl": _op_reg(lambda a, b: a >> (b & 31)),
    "sra": _op_reg(lambda a, b: _s32(a) >> (b & 31)),
    "or": _op_reg(operator.or_),
    "and": _op_reg(operator.and_),
    "mul": _op_reg(operator.mul),
    "mulh": _op_reg(lambda a, b: (_s32(a) * _s32(b)) >> 32),
    "mulhsu": _op_reg(lambda a, b: (_s32(a) * b) >> 32),
    "mulhu": _op_reg(lambda a, b: (a * b) >> 32),
    "div": _op_reg(_div), "divu": _op_reg(lambda a, b: a // b if b else M32),
    "rem": _op_reg(_rem), "remu": _op_reg(lambda a, b: a % b if b else a),
    "fence": _fence, "fence_i": _fence_i,
    "ecall": _ecall, "ebreak": _ebreak, "mret": _mret,
    "csrrw": _csr(True, lambda old, src: src),
    "csrrs": _csr(False, lambda old, src: old | src),
    "csrrc": _csr(False, lambda old, src: old & ~src),
    "csrrwi": _csr(True, lambda old, src: src),
    "csrrsi": _csr(False, lambda old, src: old | src),
    "csrrci": _csr(False, lambda old, src: old & ~src),
    "p.mac": _mac, "p.lwpost": _load(4, post=True),
}


@register
class RiscvCore(Component):
    kind = "riscv-core"
    PARAMS = {
        "hart_id": (int, 0),
        "boot_addr": (int, 0),
        "isa": (list, ["rv32im"]),
        "branch_penalty": (int, 2),
        "trap_vector": (int, 0),    # 0: halt on unhandled trap
    }
    COUNTERS = COUNTER_NAMES
    SECTION = "cores"
    SIGNALS = (("pc", 32), ("active", 1))

    def build(self):
        self.add_master("fetch")
        self.add_master("data")
        self.hart_id = self.params["hart_id"]
        for name in ("boot_addr", "trap_vector"):
            if self.params[name] % 4:
                raise ConfigError("components.%s: %s must be a multiple of 4, got %#x" % (
                    self.path, name, self.params[name]))
        self.boot_pc = self.params["boot_addr"]
        self.branch_penalty = self.params["branch_penalty"]
        try:
            self.isa = IsaTable.load(self.params["isa"])
            for e in self.isa.entries:
                if e.semantics not in SEMANTICS:
                    raise ConfigError("ISA table %s: %s has no semantics %r" % (
                        e.table, e.mnemonic, e.semantics))
        except ConfigError as e:
            raise ConfigError("components.%s.params.isa: %s" % (self.path, e)) from None
        self._dcache = {}
        self._fetch_req = Request(size=4, initiator=self)
        self._data_req = Request(initiator=self)
        self.regs = [0] * 32        # semantics closures hold this list

    def finalize(self):
        cache = self.ports["fetch"].binding
        self._fetch_handler = cache.handler
        self._data_handler = self.ports["data"].binding.handler
        self._l1 = cache.owner if cache.owner.kind == "icache" else None

    def reset(self):
        super().reset()             # the counters
        self.regs[:] = [0] * 32
        self.pc = self.boot_pc & M32
        self.mode = "running"
        self.scoreboard = [0] * 32
        self.sleep_from = 0
        self.csr_mtvec = self.params["trap_vector"]
        self.csr_mepc = 0
        self.csr_mcause = 0
        self.csr_mtval = 0
        self.signal("active", 1)
        self.signal("pc", self.pc)
        # the per-instruction event: the step, a method of this core, with
        # its fixed state bound in as default arguments (module docstring)
        l1 = self._l1

        def _step(self, ev, dom=self.domain, sb=self.scoreboard, dreq=self._data_req,
                  dcache=self._dcache, tr=self.platform.trace_enabled(self.path + "/insn"),
                  l1=l1, lines=l1 and l1.lines, sets=l1 and l1.sets,
                  hit_latency=l1 and l1.hit_latency, shift=l1 and l1.shift,
                  mask=l1 and l1.mask):
            C = dom.cycle
            pc = self.pc
            vcd = self.platform.vcd
            while True:
                if l1 is not None and (way := lines[(n := pc >> shift) % sets][0])[0] == n:
                    # pc's line n is its set's MRU way: what the cache's MRU hit does
                    fetch_lat = hit_latency
                    l1.hits += 1
                    word = way[1] >> ((pc & mask) << 3) & M32
                else:
                    freq = self._fetch_req
                    freq.addr = pc
                    freq.at = C
                    try:
                        self._fetch_handler(freq)
                    except (BusError, Sleep):
                        self._take_trap(CAUSE_IACCESS, pc, 1)
                        return
                    fetch_lat = freq.at - C
                    if freq.cache_miss:
                        freq.cache_miss = False
                        self.icache_misses += 1
                    word = freq.value

                dec = dcache.get(word)
                if dec is None:
                    dec = self._decode_slow(word)
                    if dec is None:
                        self._take_trap(CAUSE_ILLEGAL, word, 1 + fetch_lat)
                        return
                ins, run, rs1, rs2, rd, base, wb, is_branch, is_mem = dec

                stall = 0
                if rs1:
                    d = sb[rs1] - C
                    if d > stall:
                        stall = d
                if rs2:
                    d = sb[rs2] - C
                    if d > stall:
                        stall = d
                if stall:
                    self.load_stalls += stall

                if is_mem:
                    dreq.at = C
                try:
                    npc = run(pc)
                except Trap as trap:
                    self._take_trap(*trap.args, 1 + fetch_lat + stall)
                    return
                except BusError:
                    self._take_trap(CAUSE_STORE_FAULT if dreq.is_write else CAUSE_LOAD_FAULT,
                                    dreq.addr, 1 + fetch_lat + stall)
                    return
                except Sleep:
                    # keep pc, do not retire: re-executed on wake
                    attempt = 1 + fetch_lat + stall + dreq.at - C
                    self.total_cycles += attempt
                    self.active_cycles += attempt
                    self.mode = "sleeping"
                    self.sleep_from = C + attempt
                    self.signal("active", 0)
                    return
                finally:
                    # every executed instruction is traced, also one that stops
                    if tr:
                        self.platform.trace(self.path + "/insn", dom, ins.text())

                charge = base + fetch_lat + stall
                if is_mem:
                    charge += dreq.at - C
                    if dreq.contended:
                        dreq.contended = False
                        self.tcdm_contentions += 1
                    if dreq.is_write:
                        self.stores += 1
                    else:
                        self.loads += 1
                if npc is None:
                    npc = (pc + 4) & M32
                else:
                    charge += self.branch_penalty
                    if is_branch:
                        self.branches_taken += 1
                C += charge
                if wb:
                    sb[rd] = C + wb

                self.pc = pc = npc
                self.instr_retired += 1
                self.total_cycles += charge
                self.active_cycles += charge
                if vcd is not None:
                    self.signal("pc", npc)
                # the next step runs here if it is the engine's next event,
                # else run_ahead stores ev at its cycle
                if not dom.run_ahead(ev, C):
                    return

        self.step_event = Event(self.path, MethodType(_step, self))
        self.domain.enqueue(self.step_event, 0)

    def _decode_slow(self, word):
        """Decode `word`, bind its semantics and cache its step tuple
        (module docstring); None for an illegal word, which is not cached."""
        ins = self.isa.decode(word)
        if ins is None:
            return None
        e = ins.entry
        dec = self._dcache[word] = (
            ins, SEMANTICS[e.semantics](self, ins), ins.rs1, ins.rs2, ins.rd,
            1 + e.latency, e.writeback_latency if ins.rd else 0, e.klass == "branch",
            e.klass in ("load", "store"))
        return dec

    def _take_trap(self, cause, tval, charge):
        self.total_cycles += charge
        self.active_cycles += charge
        if self.csr_mtvec:
            self.csr_mepc = self.pc
            self.csr_mcause = cause
            self.csr_mtval = tval & M32
            self.pc = self.csr_mtvec
            self.domain.enqueue(self.step_event, charge)
        else:
            self.mode = "halted"
            self.platform.diagnostic(
                "%s: unhandled trap cause=%d tval=0x%08x at pc=0x%08x; core halted"
                % (self.path, cause, tval & M32, self.pc))
            self.signal("active", 0)

    # -- wake-up (event unit) -------------------------------------------------

    def wake(self):
        if self.mode != "sleeping":
            return
        self.mode = "running"
        self.domain.enqueue(self.step_event, 1)
        slept = self.step_event.cycle - self.sleep_from
        if slept > 0:
            self.total_cycles += slept
            self.barrier_wait_cycles += slept
        self.signal("active", 1)
