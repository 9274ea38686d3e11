"""Event-based RV32IM core with a three-stage timing model.

Each instruction executes as one step: fetch through the instruction port
(cache latency added), table decode, semantics callback, then the next
step is due after

    charge = base + fetch latency + load-use stall + data latency
             (+ branch penalty when the callback returned a pc)

cycles, where base is 1 plus the table's execute latency.  The step event
is enqueued there, unless the next step falls strictly before the
engine's horizon: then the core runs it inline in the same callback
(`ClockDomain.run_ahead`, engine module docstring), which gives the same
timing with one engine dispatch for many instructions.  Loads publish
their result one write-back cycle after completion; a consumer arriving
earlier stalls on the register scoreboard.

A semantics callback `(core, ins)` updates registers and memory and
returns the next pc if it transfers control (jal, jalr, mret, a taken
branch), else None.  It raises `Trap(cause, tval)` for ecall, ebreak, an
illegal CSR access or a data access fault: the step charges 1 + fetch
latency + stall and enters the trap vector.  Loads and stores make their
one data access (isa module docstring) through `RiscvCore.access`, which
leaves latency and contention on the reused data request for the step to
charge, and raises `Sleep` for a blocking read from a synchronization
register: the attempt is charged and the core sleeps without retiring,
to re-execute the read on wake-up, when its value is determined.

Decoding is cached per instruction word, not per pc, so self-modifying
code and fence.i need no invalidation.  Each cache entry is a flat tuple

    (ins, handler, rs1, rs2, rd, 1 + latency, write-back latency if rd
     else 0, is_branch, is_load_or_store)

which the step unpacks instead of reading the table entry.  The fetch and
data requests are built once with their fixed fields; each access sets
the address (and size, direction and value for data) and clears the
response fields with `Request.reset`.
"""

from .component import Component, register, STATUS_OK, Request
from .engine import Event
from .errors import ConfigError
from .isa import IsaTable, sext

M32 = 0xFFFFFFFF

CSR_CYCLE = 0xC00
CSR_INSTRET = 0xC02
CSR_MHARTID = 0xF14
CSR_MTVEC = 0x305
CSR_MEPC = 0x341
CSR_MCAUSE = 0x342
CSR_MTVAL = 0x343
CSR_EVENT_BASE = 0x7C0

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

_ILLEGAL = object()


def _s32(v):
    return v - 0x100000000 if v & 0x80000000 else v


class Trap(Exception):
    """Raised during a semantics callback, with args (cause, tval)."""


class Sleep(Exception):
    """Raised by `RiscvCore.access` for a blocking read."""


# -- instruction semantics -------------------------------------------------
# Each callback mutates registers and memory and returns the next pc or
# None (module docstring).  The step loop owns timing.

def _sem_lui(c, i):
    if i.rd:
        c.regs[i.rd] = i.imm & M32

def _sem_auipc(c, i):
    if i.rd:
        c.regs[i.rd] = (c.pc + i.imm) & M32

def _sem_jal(c, i):
    if i.rd:
        c.regs[i.rd] = (c.pc + 4) & M32
    return (c.pc + i.imm) & M32

def _sem_jalr(c, i):
    target = (c.regs[i.rs1] + i.imm) & M32 & ~1
    if i.rd:
        c.regs[i.rd] = (c.pc + 4) & M32
    return target

def _branch(cond):
    def sem(c, i):
        if cond(c.regs[i.rs1], c.regs[i.rs2]):
            return (c.pc + i.imm) & M32
    return sem

def _sem_load(size, signed):
    def sem(c, i):
        v = c.access((c.regs[i.rs1] + i.imm) & M32, size, False, 0)
        if i.rd:
            c.regs[i.rd] = sext(v, size * 8) & M32 if signed else v
    return sem

def _sem_store(size):
    def sem(c, i):
        c.access((c.regs[i.rs1] + i.imm) & M32, size, True,
                 c.regs[i.rs2] & ((1 << (size * 8)) - 1))
    return sem

def _op_imm(fn):
    def sem(c, i):
        if i.rd:
            c.regs[i.rd] = fn(c.regs[i.rs1], i.imm) & M32
    return sem

def _op_reg(fn):
    def sem(c, i):
        if i.rd:
            regs = c.regs
            regs[i.rd] = fn(regs[i.rs1], regs[i.rs2]) & M32
    return sem

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

def _sem_ecall(c, i):
    raise Trap(CAUSE_ECALL, 0)

def _sem_ebreak(c, i):
    raise Trap(CAUSE_BREAK, c.pc)

def _sem_mret(c, i):
    return c.csr_mepc

def _sem_fence(c, i):
    pass

def _sem_fence_i(c, i):
    cache = c.ports["fetch"].binding
    owner = cache.owner if cache is not None else None
    if owner is not None and hasattr(owner, "flush"):
        owner.flush()

def _sem_csr(write_always, op):
    def sem(c, i):
        old = c.csr_read(i.csr)
        if old is None:
            raise Trap(CAUSE_ILLEGAL, i.word)
        src = c.regs[i.rs1] if i.entry.fmt == "CSR" else i.imm
        if write_always or (i.entry.fmt == "CSR" and i.rs1 != 0) or (
                i.entry.fmt == "CSRI" and i.imm != 0):
            if not c.csr_write(i.csr, op(old, src) & M32):
                raise Trap(CAUSE_ILLEGAL, i.word)
        if i.rd:
            c.regs[i.rd] = old
    return sem

def _sem_mac(c, i):
    rd = i.rd
    if rd:
        regs = c.regs
        regs[rd] = (regs[rd] + regs[i.rs1] * regs[i.rs2]) & M32

def _sem_lwpost(c, i):
    addr = c.regs[i.rs1]
    v = c.access(addr, 4, False, 0)
    if i.rs1 != 0 and i.rs1 != i.rd:
        c.regs[i.rs1] = (addr + i.imm) & M32
    if i.rd:
        c.regs[i.rd] = v


SEMANTICS = {
    "lui": _sem_lui, "auipc": _sem_auipc, "jal": _sem_jal, "jalr": _sem_jalr,
    "beq": _branch(lambda a, b: a == b),
    "bne": _branch(lambda a, b: a != b),
    "blt": _branch(lambda a, b: _s32(a) < _s32(b)),
    "bge": _branch(lambda a, b: _s32(a) >= _s32(b)),
    "bltu": _branch(lambda a, b: a < b),
    "bgeu": _branch(lambda a, b: a >= b),
    "lb": _sem_load(1, True), "lh": _sem_load(2, True), "lw": _sem_load(4, False),
    "lbu": _sem_load(1, False), "lhu": _sem_load(2, False),
    "sb": _sem_store(1), "sh": _sem_store(2), "sw": _sem_store(4),
    "addi": _op_imm(lambda a, b: a + b),
    "slti": _op_imm(lambda a, b: int(_s32(a) < b)),
    "sltiu": _op_imm(lambda a, b: int(a < (b & M32))),
    "xori": _op_imm(lambda a, b: a ^ (b & M32)),
    "ori": _op_imm(lambda a, b: a | (b & M32)),
    "andi": _op_imm(lambda a, b: a & (b & M32)),
    "slli": _op_imm(lambda a, b: a << b),
    "srli": _op_imm(lambda a, b: a >> b),
    "srai": _op_imm(lambda a, b: _s32(a) >> b),
    "add": _op_reg(lambda a, b: a + b),
    "sub": _op_reg(lambda a, b: a - b),
    "sll": _op_reg(lambda a, b: a << (b & 31)),
    "slt": _op_reg(lambda a, b: int(_s32(a) < _s32(b))),
    "sltu": _op_reg(lambda a, b: int(a < b)),
    "xor": _op_reg(lambda a, b: a ^ b),
    "srl": _op_reg(lambda a, b: a >> (b & 31)),
    "sra": _op_reg(lambda a, b: _s32(a) >> (b & 31)),
    "or": _op_reg(lambda a, b: a | b),
    "and": _op_reg(lambda a, b: a & b),
    "mul": _op_reg(lambda a, b: a * b),
    "mulh": _op_reg(lambda a, b: (_s32(a) * _s32(b)) >> 32),
    "mulhsu": _op_reg(lambda a, b: (_s32(a) * b) >> 32),
    "mulhu": _op_reg(lambda a, b: (a * b) >> 32),
    "div": _op_reg(_div), "divu": _op_reg(lambda a, b: a // b if b else M32),
    "rem": _op_reg(_rem), "remu": _op_reg(lambda a, b: a % b if b else a),
    "fence": _sem_fence, "fence_i": _sem_fence_i,
    "ecall": _sem_ecall, "ebreak": _sem_ebreak, "mret": _sem_mret,
    "csrrw": _sem_csr(True, lambda old, src: src),
    "csrrs": _sem_csr(False, lambda old, src: old | src),
    "csrrc": _sem_csr(False, lambda old, src: old & ~src),
    "csrrwi": _sem_csr(True, lambda old, src: src),
    "csrrsi": _sem_csr(False, lambda old, src: old | src),
    "csrrci": _sem_csr(False, lambda old, src: old & ~src),
    "p.mac": _sem_mac, "p.lwpost": _sem_lwpost,
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

    def build(self):
        self.add_master("fetch")
        self.add_master("data")
        self.hart_id = self.params["hart_id"]
        self.boot_pc = self.params["boot_addr"]
        self.branch_penalty = self.params["branch_penalty"]
        self.isa = IsaTable.load(self.params["isa"])
        self._dcache = {}
        self.step_event = Event(self.path, self._step)
        self._fetch_req = Request().setup(0, 4, False, initiator=self)
        self._data_req = Request().setup(0, 0, False, initiator=self)
        self.regs = [0] * 32
        self.pc = 0
        self.mode = "halted"
        self._zero_state()

    def _zero_state(self):
        self.scoreboard = [0] * 32
        self.sleep_from = 0
        self.csr_mtvec = self.params["trap_vector"]
        self.csr_mepc = 0
        self.csr_mcause = 0
        self.csr_mtval = 0
        for name in COUNTER_NAMES:
            setattr(self, name, 0)
        self._tr_insn = self.platform.trace_enabled(self.path + "/insn")

    def finalize(self):
        self._fetch_handler = self.ports["fetch"].binding.handler
        self._data_handler = self.ports["data"].binding.handler

    def reset(self):
        self.regs = [0] * 32
        self.pc = self.boot_pc & M32
        self.mode = "running"
        self._zero_state()
        self.domain.enqueue(self.step_event, 0)
        if self.platform.vcd is not None:
            self.platform.vcd.core_activity(self, True)
            self.platform.vcd.core_pc(self, self.pc)

    # -- architectural helpers ------------------------------------------

    def counters(self):
        return {name: getattr(self, name) for name in COUNTER_NAMES}

    def csr_read(self, csr):
        if csr == CSR_CYCLE:
            return self.total_cycles & M32
        if csr == CSR_INSTRET:
            return self.instr_retired & M32
        if csr == CSR_MHARTID:
            return self.hart_id
        if csr == CSR_MTVEC:
            return self.csr_mtvec
        if csr == CSR_MEPC:
            return self.csr_mepc
        if csr == CSR_MCAUSE:
            return self.csr_mcause
        if csr == CSR_MTVAL:
            return self.csr_mtval
        if CSR_EVENT_BASE <= csr < CSR_EVENT_BASE + len(COUNTER_NAMES):
            return getattr(self, COUNTER_NAMES[csr - CSR_EVENT_BASE]) & M32
        return None

    def csr_write(self, csr, value):
        if csr == CSR_MTVEC:
            self.csr_mtvec = value & ~3
        elif csr == CSR_MEPC:
            self.csr_mepc = value & ~3
        elif csr == CSR_MCAUSE:
            self.csr_mcause = value
        elif csr == CSR_MTVAL:
            self.csr_mtval = value
        else:
            return False    # counters and hart id are read-only
        return True

    # -- memory access (within the current step) -------------------------

    def access(self, addr, size, is_write, value):
        """The current instruction's data access; returns the value read.

        Raises Trap on a bus error and Sleep on a blocking read.  The
        step reads latency and contention from the data request."""
        req = self._data_req
        req.addr = addr
        req.size = size
        req.is_write = is_write
        req.value = value
        req.reset()
        self._data_handler(req)
        if req.status != STATUS_OK:
            raise Trap(CAUSE_STORE_FAULT if is_write else CAUSE_LOAD_FAULT, addr)
        if req.sleep:
            raise Sleep
        if is_write:
            self.stores += 1
        else:
            self.loads += 1
        return req.value

    # -- the per-instruction event ----------------------------------------

    def _step(self, ev):
        dom = self.domain
        C = dom.cycle
        while True:
            pc = self.pc

            freq = self._fetch_req
            freq.addr = pc
            freq.reset()
            self._fetch_handler(freq)
            if freq.status != STATUS_OK:
                self._take_trap(CAUSE_IACCESS, pc, 1)
                return
            fetch_lat = freq.latency
            if freq.cache_miss:
                self.icache_misses += 1
            word = freq.value

            dec = self._dcache.get(word)
            if dec is None:
                dec = self._decode_slow(word)
            if dec is _ILLEGAL:
                self._take_trap(CAUSE_ILLEGAL, word, 1 + fetch_lat)
                return
            ins, handler, rs1, rs2, rd, base, wb, is_branch, is_mem = dec

            stall = 0
            sb = self.scoreboard
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

            try:
                npc = handler(self, ins)
            except Trap as trap:
                self._take_trap(*trap.args, 1 + fetch_lat + stall)
                return
            except Sleep:
                # keep pc, do not retire: re-executed on wake
                attempt = 1 + fetch_lat + stall + self._data_req.latency
                self.total_cycles += attempt
                self.active_cycles += attempt
                self.mode = "sleeping"
                self.sleep_from = C + attempt
                if self.platform.vcd is not None:
                    self.platform.vcd.core_activity(self, False)
                return
            finally:
                # every executed instruction is traced, also one that stops
                if self._tr_insn:
                    self.platform.trace(self.path + "/insn", dom, ins.text())

            charge = base + fetch_lat + stall
            if is_mem:
                req = self._data_req
                charge += req.latency
                if req.contended:
                    self.tcdm_contentions += 1
            if npc is None:
                npc = (pc + 4) & M32
            else:
                charge += self.branch_penalty
                if is_branch:
                    self.branches_taken += 1
            C += charge
            if wb:
                sb[rd] = C + wb

            self.pc = npc
            self.instr_retired += 1
            self.total_cycles += charge
            self.active_cycles += charge
            if self.platform.vcd is not None:
                self.platform.vcd.core_pc(self, npc)
            # the next step runs here if it is the engine's next event
            if C >= dom.horizon_cycle or not dom.run_ahead(C, charge):
                dom.enqueue(ev, charge)
                return

    def _decode_slow(self, word):
        """Decode `word` and cache its step tuple (module docstring) or _ILLEGAL."""
        ins = self.isa.decode(word)
        if ins is None:
            dec = _ILLEGAL
        else:
            e = ins.entry
            handler = SEMANTICS.get(e.semantics)
            if handler is None:
                raise ConfigError("%s: no semantics for '%s'" % (self.path, ins.mnemonic))
            dec = (ins, handler, ins.rs1, ins.rs2, ins.rd, 1 + e.latency,
                   e.writeback_latency if ins.rd else 0, e.klass == "branch",
                   e.klass in ("load", "store"))
        self._dcache[word] = dec
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
            if self.platform.vcd is not None:
                self.platform.vcd.core_activity(self, False)

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
        if self.platform.vcd is not None:
            self.platform.vcd.core_activity(self, True)
