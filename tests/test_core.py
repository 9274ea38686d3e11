"""Core tests: decode anchors, semantics edge cases, timing model, traps,
and randomized equivalence against the independent reference interpreter."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import pulpsim
from pulpsim.isa import IsaTable
from pulpsim.asm import assemble
from pulpsim.errors import ConfigError

from conftest import MINIMAL_PLATFORM, build_minimal, build_pulp, run_program
from reference_rv32im import RefCore, Halt


@pytest.fixture(scope="module")
def table():
    return IsaTable.load(["rv32im", "xdemo"])


def test_decode_known_encodings(table):
    ins = table.decode(0x00500093)
    assert ins.mnemonic == "addi" and ins.rd == 1 and ins.rs1 == 0 and ins.imm == 5
    ins = table.decode(0x02A28333)
    assert ins.mnemonic == "mul" and ins.rd == 6 and ins.rs1 == 5 and ins.rs2 == 10
    assert table.decode(0x00000000) is None


def test_decode_matches_assembler(table):
    cases = [
        ("addi x1, x0, 5", "addi"),
        ("lw x7, 12(x3)", "lw"),
        ("sw x7, -4(x3)", "sw"),
        ("beq x1, x2, 8", "beq"),
        ("jal x1, 2048", "jal"),
        ("srai x4, x5, 7", "srai"),
        ("divu x3, x4, x5", "divu"),
        ("csrrs x2, 0xC00, x0", "csrrs"),
        ("p.mac x5, x6, x7", "p.mac"),
        ("p.lwpost x5, 4(x6)", "p.lwpost"),
    ]
    for text, mnem in cases:
        word = assemble(text, origin=0).words[0]
        ins = table.decode(word)
        assert ins is not None and ins.mnemonic == mnem, text


def test_extension_conflict_detected(table):
    with pytest.raises(ConfigError):
        table.extend({"name": "bad", "entries": [
            {"mnemonic": "clash", "mask": "0xFE00707F", "match": "0x00000033",
             "fmt": "R"}]}, "bad")


def test_div_edge_cases():
    src = """
    _start:
        li x2, 0x80000000
        li x3, -1
        div x1, x2, x3
        li x4, 7
        li x5, 0
        divu x6, x4, x5
        rem x7, x2, x3
        remu x8, x4, x5
        ecall
    """
    _, cpu, _ = run_program(src)
    assert cpu.regs[1] == 0x80000000    # overflow keeps dividend
    assert cpu.regs[6] == 0xFFFFFFFF    # divu by zero -> all ones
    assert cpu.regs[7] == 0             # rem overflow -> 0
    assert cpu.regs[8] == 7             # remu by zero -> dividend


def test_mac_extension_and_illegal_without_it():
    src = """
    _start:
        li x5, 7
        li x6, 6
        li x7, 100
        p.mac x7, x5, x6
        ecall
    """
    _, cpu, _ = run_program(src)
    assert cpu.regs[7] == 142

    plat = build_minimal(cpu={"isa": ["rv32im"]})
    _, cpu, _ = run_program(src, platform=plat)
    assert cpu.mode == "halted"         # p.mac undecodable -> trap -> halt


def test_x0_immutable():
    src = """
    _start:
        addi x0, x0, 5
        li x1, 123
        add x0, x1, x1
        ecall
    """
    _, cpu, _ = run_program(src)
    assert cpu.regs[0] == 0


def test_straight_line_cycle_accounting():
    # 100 ALU instructions, all 1 cycle; fetch misses add latency on top
    body = "\n".join("addi x1, x1, 1" for _ in range(100))
    _, cpu, _ = run_program("_start:\n%s\necall\n" % body)
    assert cpu.instr_retired == 100     # the ecall traps, does not retire
    assert cpu.regs[1] == 100
    # no cache in the minimal platform: every access is CPI 1 plus memory
    assert cpu.total_cycles >= 100
    assert cpu.active_cycles == cpu.total_cycles


def test_load_use_hazard_stalls_one_cycle():
    # measured pair-wise: with an independent instruction between, no stall
    src_stall = """
    _start:
        li x2, 0x800
        sw x2, 0(x2)
        lw x1, 0(x2)
        add x3, x1, x1
        ecall
    """
    src_nostall = """
    _start:
        li x2, 0x800
        sw x2, 0(x2)
        lw x1, 0(x2)
        addi x4, x0, 0
        add x3, x1, x1
        ecall
    """
    _, cpu_a, _ = run_program(src_stall)
    _, cpu_b, _ = run_program(src_nostall)
    assert cpu_a.load_stalls == 1
    assert cpu_b.load_stalls == 0


def test_taken_branch_penalty():
    taken = """
    _start:
        li x1, 1
        beq x1, x1, target
        addi x2, x2, 1
    target:
        ecall
    """
    not_taken = """
    _start:
        li x1, 1
        beq x1, x0, target
        addi x2, x2, 1
    target:
        ecall
    """
    _, cpu_t, _ = run_program(taken)
    _, cpu_n, _ = run_program(not_taken)
    assert cpu_t.branches_taken == 1
    assert cpu_n.branches_taken == 0
    # same instruction count modulo the skipped addi; penalty shows in cycles
    assert cpu_t.total_cycles == cpu_n.total_cycles - 1 + 2


def test_counters_csr_access():
    src = """
    _start:
        addi x1, x0, 1
        addi x1, x0, 2
        csrr x5, 0xC02      # instret
        csrr x6, 0xC00      # cycle
        csrr x7, 0xF14      # mhartid
        ecall
    """
    _, cpu, _ = run_program(src)
    assert cpu.regs[5] == 2             # before the csrr itself retires
    assert cpu.regs[6] >= 2
    assert cpu.regs[7] == 0


def test_trap_vector_taken_on_illegal():
    src = """
    _start:
        li x1, 0x100
        csrw 0x305, x1      # mtvec
        .word 0x00000000    # illegal
        nop
    .org 0x100
    handler:
        csrr x10, 0x342     # mcause
        csrw 0x305, x0      # unhook so the next trap halts
        ecall
    """
    _, cpu, _ = run_program(src, origin=0x0)
    assert cpu.mode == "halted"         # halted at the handler's ecall
    assert cpu.regs[10] == 2            # illegal instruction cause
    assert cpu.csr_mepc == 12           # the .word address (after two li pairs + csrw)


def test_bus_error_on_unmapped_address():
    src = """
    _start:
        li x1, 0xDEAD0000
        lw x2, 0(x1)
        ecall
    """
    _, cpu, _ = run_program(src)
    assert cpu.mode == "halted"
    assert cpu.csr_mtvec == 0


def test_event_counter_csrs_and_trap_csr_writes():
    src = """
    _start:
        addi x1, x0, 1
        sw x1, 0x100(x0)
        csrr x5, 0x7C2      # instr_retired
        csrr x6, 0x7C8      # stores
        csrr x7, 0x7C0      # total_cycles
        li x8, 0x55
        csrw 0x342, x8      # mcause
        csrw 0x343, x8      # mtval
        csrr x9, 0x342
        csrr x12, 0x343
    t_bad:
        csrr x13, 0x7CA     # one past the event counters: illegal
        ecall
    """
    prog = assemble(src, origin=0x1000)
    plat, cpu, _ = run_program(src)
    bad = prog.symbols["t_bad"]
    assert cpu.regs[5:8] == [2, 1, 4]   # one cycle per instruction before the read
    assert cpu.regs[9] == cpu.regs[12] == 0x55
    assert cpu.regs[13] == 0 and cpu.mode == "halted" and cpu.pc == bad
    assert plat.diagnostics == [
        "cpu: unhandled trap cause=2 tval=0x%08x at pc=0x%08x; core halted"
        % (prog.words[bad], bad)]


# Each CSR instruction with a zero and a non-zero source (x0 or x1 =
# 0x0F0F0F0F; uimm 0 or 0x1C) on mepc (writable, holds 0x1230, keeps
# bits 31..2), mhartid (read-only, hart 5) and 0x7FF (unknown): the
# expected rd (x5 starts at 0xAAAA), mepc afterwards and whether the
# instruction traps as illegal.  csrrw and csrrwi always write; csrrs,
# csrrc, csrrsi and csrrci write only a non-zero source.  A trap keeps rd.
CSR_CASES = {
    ("csrrw", 0): ((0x1230, 0), (None, 0x1230), (None, 0x1230)),
    ("csrrw", 1): ((0x1230, 0x0F0F0F0C), (None, 0x1230), (None, 0x1230)),
    ("csrrs", 0): ((0x1230, 0x1230), (5, 0x1230), (None, 0x1230)),
    ("csrrs", 1): ((0x1230, 0x0F0F1F3C), (None, 0x1230), (None, 0x1230)),
    ("csrrc", 0): ((0x1230, 0x1230), (5, 0x1230), (None, 0x1230)),
    ("csrrc", 1): ((0x1230, 0x1030), (None, 0x1230), (None, 0x1230)),
    ("csrrwi", 0): ((0x1230, 0), (None, 0x1230), (None, 0x1230)),
    ("csrrwi", 1): ((0x1230, 0x1C), (None, 0x1230), (None, 0x1230)),
    ("csrrsi", 0): ((0x1230, 0x1230), (5, 0x1230), (None, 0x1230)),
    ("csrrsi", 1): ((0x1230, 0x123C), (None, 0x1230), (None, 0x1230)),
    ("csrrci", 0): ((0x1230, 0x1230), (5, 0x1230), (None, 0x1230)),
    ("csrrci", 1): ((0x1230, 0x1220), (None, 0x1230), (None, 0x1230)),
}


@pytest.mark.parametrize("csr_index, csr", [(0, 0x341), (1, 0xF14), (2, 0x7FF)])
@pytest.mark.parametrize("mnemonic, nonzero", sorted(CSR_CASES))
def test_csr_instruction_reads_writes_and_refuses(mnemonic, nonzero, csr_index, csr):
    rd, mepc = CSR_CASES[mnemonic, nonzero][csr_index]
    src = ("0x1c" if nonzero else "0") if mnemonic.endswith("i") else (
        "x1" if nonzero else "x0")
    source = """
    _start:
        li x1, 0x0F0F0F0F
        li x5, 0xAAAA
        li x2, 0x1230
        csrw 0x341, x2      # mepc
    t_csr:
        %s x5, 0x%x, %s
        ecall
    """ % (mnemonic, csr, src)
    prog = assemble(source, origin=0x1000)
    at = prog.symbols["t_csr"]
    plat, cpu, _ = run_program(source, platform=build_minimal(cpu={"hart_id": 5}))
    assert cpu.regs[5] == (0xAAAA if rd is None else rd)
    assert cpu.csr_mepc == mepc
    cause, pc = (2, at) if rd is None else (11, at + 4)
    tval = prog.words[at] if rd is None else 0
    assert plat.diagnostics == [
        "cpu: unhandled trap cause=%d tval=0x%08x at pc=0x%08x; core halted" % (cause, tval, pc)]


def test_fetch_from_an_unmapped_pc_is_an_access_fault():
    plat, cpu, _ = run_program("_start:\n    li x1, 0xDEAD0000\n    jr x1\n")
    assert cpu.mode == "halted" and cpu.pc == 0xDEAD0000
    assert plat.diagnostics == [
        "cpu: unhandled trap cause=1 tval=0xdead0000 at pc=0xdead0000; core halted"]


EU = 0x100000      # an event unit just past the minimal platform's RAM


def test_fetch_that_blocks_is_an_access_fault():
    # the core fetches from EVT_WAIT of an event unit that serves it, with
    # line 0 in its mask and no line pending: a read there sleeps
    desc = json.loads(json.dumps(MINIMAL_PLATFORM))
    desc["components"].update(
        eu={"kind": "event-unit", "domain": "main", "params": {"base": EU, "cores": ["cpu"]}},
        bus={"kind": "router", "domain": "main",
             "params": {"mappings": [{"target": "ram"}, {"target": "eu"}]}})
    desc["bindings"] = [["cpu.fetch", "bus.in"], ["cpu.data", "bus.in"]]
    plat = pulpsim.build(pulpsim.parse(json.dumps(desc)))
    src = "_start:\n    li t0, %d\n    li t1, 1\n    sw t1, 0(t0)\n    jalr zero, 4(t0)\n" % EU
    plat, cpu, _ = run_program(src, max_cycles=2000, platform=plat)
    assert cpu.mode == "halted" and cpu.pc == EU + 4
    assert plat.diagnostics == [
        "cpu: unhandled trap cause=1 tval=0x%08x at pc=0x%08x; core halted" % (EU + 4, EU + 4)]


def test_lwpost_fault_leaves_its_base_register():
    src = "_start:\n    li x1, 0xDEAD0000\nt_lw:\n    p.lwpost x2, 4(x1)\n"
    plat, cpu, _ = run_program(src)
    at = assemble(src, origin=0x1000).symbols["t_lw"]
    assert cpu.regs[1] == 0xDEAD0000 and cpu.regs[2] == 0
    assert plat.diagnostics == [
        "cpu: unhandled trap cause=5 tval=0xdead0000 at pc=0x%08x; core halted" % at]


TRAP_GUEST = """
_start:
    li x10, 0x8000          # trap log: mcause, mepc, mtval per trap
    li x1, 0xDEAD0000       # unmapped
t_ecall:
    ecall
    addi x11, x11, 1        # each trap resumes at the next instruction
t_ebreak:
    ebreak
    addi x11, x11, 1
t_csr:
    csrw 0xF14, x1          # mhartid is read-only
    addi x11, x11, 1
t_load:
    lw x2, 0(x1)
    addi x11, x11, 1
t_store:
    sw x2, 4(x1)
    addi x11, x11, 1
    csrw 0x305, x0          # unhook the vector: the next trap halts
done:
    ebreak
.org 0x1100
handler:
    csrr x20, 0x342         # mcause
    csrr x21, 0x341         # mepc
    csrr x22, 0x343         # mtval
    sw x20, 0(x10)
    sw x21, 4(x10)
    sw x22, 8(x10)
    addi x10, x10, 12
    addi x21, x21, 4
    csrw 0x341, x21
    mret
"""


def test_traps_through_trap_vector_resume_after_mret():
    prog = assemble(TRAP_GUEST, origin=0x1000)
    sym = prog.symbols
    plat = build_minimal(cpu={"trap_vector": sym["handler"]})
    _, cpu, _ = run_program(TRAP_GUEST, platform=plat)
    log = plat.peek(0x8000, 5 * 12)
    got = [tuple(int.from_bytes(log[i:i + 4], "little") for i in range(at, at + 12, 4))
           for at in range(0, len(log), 12)]
    assert got == [
        (11, sym["t_ecall"], 0),
        (3, sym["t_ebreak"], sym["t_ebreak"]),
        (2, sym["t_csr"], prog.words[sym["t_csr"]]),
        (5, sym["t_load"], 0xDEAD0000),
        (7, sym["t_store"], 0xDEAD0004),
    ]
    assert cpu.regs[11] == 5
    assert cpu.mode == "halted" and cpu.pc == sym["done"]
    assert plat.diagnostics == [
        "cpu: unhandled trap cause=3 tval=0x%08x at pc=0x%08x; core halted"
        % (sym["done"], sym["done"])]
    # 2 li pairs, 5 resumed addi and the unhooking csrw, plus 10 handler
    # instructions per trap; the trapping instructions do not retire
    assert cpu.instr_retired == 4 + 6 + 5 * 10
    # one cycle each for the 60 retired instructions and the 6 traps, the
    # branch penalty of 2 for each of the 5 mret, and one bank wait for
    # each of 3 handler stores that meets the fetch in its bank
    assert cpu.tcdm_contentions == 3
    assert cpu.total_cycles == 60 + 6 + 5 * 2 + 3


MISALIGNED_JUMP_GUEST = """
_start:
    csrr t0, 0xF14
    li t1, %(hart)d
    bne t0, t1, park        # only the core under test jumps
    la t0, handler
    csrw 0x305, t0          # mtvec
    li a0, 7
    la t2, target
jump:
    %(jump)s
    nop
target:
    nop
    nop
handler:
    csrw 0x305, x0          # unhook so the next trap halts
done:
    ebreak
park:
    ebreak
"""


@pytest.mark.parametrize("jump", ["jal a0, target + 2", "jalr a0, 2(t2)",
                                  "beq t1, t1, target + 2"])
@pytest.mark.parametrize("platform", ["minimal", "pulp-open"])
def test_jump_to_a_misaligned_target_traps_on_the_jump(platform, jump):
    # RV32 without C: instruction-address-misaligned (cause 0) on the jump
    # itself, with the target in mtval and rd not written
    if platform == "minimal":
        plat, path, hart, origin = build_minimal(), "cpu", 0, 0x1000
    else:
        plat, path, hart, origin = build_pulp(["cluster.nb_cores=1"]), "fc", 32, 0x1C000000
    prog = assemble(MISALIGNED_JUMP_GUEST % {"hart": hart, "jump": jump}, origin=origin)
    for addr, word in prog.words.items():
        plat.poke(addr, word.to_bytes(4, "little"))
    plat.set_entry(prog.entry)
    plat.run(max_cycles=100_000)
    cpu, sym = plat.lookup(path), prog.symbols
    assert (cpu.csr_mcause, cpu.csr_mepc, cpu.csr_mtval) == (0, sym["jump"], sym["target"] + 2)
    assert cpu.regs[10] == 7
    assert cpu.branches_taken == 0
    assert cpu.mode == "halted" and cpu.pc == sym["done"]


def test_reset_forgets_the_previous_runs_diagnostics():
    plat, cpu, _ = run_program("_start:\n    ebreak\n")
    assert len(plat.diagnostics) == 1
    plat.reset()
    plat.run(max_cycles=1000)
    assert len(plat.diagnostics) == 1 and cpu.mode == "halted"


# -- randomized ISS equivalence ----------------------------------------------

SCRATCH = 0x8000
SCRATCH_WORDS = 0x1000 // 4
SAFE_RD = [r for r in range(32) if r != 3]


def gen_program(rng, n_instr):
    lines = ["_start:"]
    lines.append("li x3, 0x%x" % SCRATCH)
    for r in range(1, 32):
        if r == 3:
            continue
        lines.append("li x%d, 0x%x" % (r, rng.getrandbits(32)))
    label = 0
    i = 0
    while i < n_instr:
        kind = rng.random()
        rd = rng.choice(SAFE_RD)
        rs1 = rng.randrange(32)
        rs2 = rng.randrange(32)
        if kind < 0.55:
            op = rng.choice(["add", "sub", "sll", "slt", "sltu", "xor", "srl",
                             "sra", "or", "and", "mul", "mulh", "mulhsu",
                             "mulhu", "div", "divu", "rem", "remu"])
            lines.append("%s x%d, x%d, x%d" % (op, rd, rs1, rs2))
        elif kind < 0.72:
            op = rng.choice(["addi", "slti", "sltiu", "xori", "ori", "andi"])
            lines.append("%s x%d, x%d, %d" % (op, rd, rs1,
                                              rng.randrange(-2048, 2048)))
        elif kind < 0.78:
            op = rng.choice(["slli", "srli", "srai"])
            lines.append("%s x%d, x%d, %d" % (op, rd, rs1, rng.randrange(32)))
        elif kind < 0.81:
            lines.append("lui x%d, 0x%x" % (rd, rng.getrandbits(20)))
        elif kind < 0.83:
            lines.append("auipc x%d, 0x%x" % (rd, rng.getrandbits(20)))
        elif kind < 0.84:
            lines.append("fence")
        elif kind < 0.93:
            sizes = [("lb", "sb", 1), ("lh", "sh", 2), ("lw", "sw", 4),
                     ("lbu", "sb", 1), ("lhu", "sh", 2)]
            ld, st, size = rng.choice(sizes)
            off = rng.randrange(0, 2048 - 4)
            off -= off % size
            if rng.random() < 0.5:
                lines.append("%s x%d, %d(x3)" % (ld, rd, off))
            else:
                lines.append("%s x%d, %d(x3)" % (st, rs2, off))
        elif kind < 0.96:
            off4 = rng.randrange(0, 2048 - 4) & ~3
            lines.append("p.mac x%d, x%d, x%d" % (rd, rs1, rs2)
                         if rng.random() < 0.5 else
                         "p.lwpost x%d, %d(x3)" % (rd, off4))
        else:
            # short forward branch or jump over 1..2 instructions; the jumps
            # link into rd, and jalr jumps relative to an auipc of its own
            # pc, sometimes to an odd address that it must round down
            skip = rng.randrange(1, 3)
            jump = rng.random()
            if jump < 0.25:
                lines.append("jal x%d, fwd_%d" % (rd, label))
            elif jump < 0.5:
                base = rng.choice(SAFE_RD[1:])
                lines.append("auipc x%d, 0" % base)
                lines.append("jalr x%d, %d(x%d)" % (rd, 4 * (skip + 2) + rng.randrange(2),
                                                    base))
                i += 1
            else:
                op = rng.choice(["beq", "bne", "blt", "bge", "bltu", "bgeu"])
                lines.append("%s x%d, x%d, fwd_%d" % (op, rs1, rs2, label))
            for _ in range(skip):
                rdi = rng.choice(SAFE_RD)
                lines.append("addi x%d, x%d, %d" % (rdi, rng.randrange(32),
                                                    rng.randrange(-100, 100)))
                i += 1
            lines.append("fwd_%d:" % label)
            label += 1
        i += 1
    lines.append("ecall")
    # random data under the loads, so that sign and zero extension differ
    lines.append(".org 0x%x" % SCRATCH)
    lines += [".word 0x%08x" % rng.getrandbits(32) for _ in range(SCRATCH_WORDS)]
    return "\n".join(lines)


def run_reference(words, entry, mem_size=0x100000):
    ref = RefCore(0, mem_size)
    for addr, word in words.items():
        ref.store(addr, 4, word)
    ref.pc = entry
    try:
        ref.run(10_000_000)
    except Halt:
        pass
    return ref


@pytest.mark.parametrize("seed", range(12))
def test_iss_matches_reference_randomized(seed):
    rng = random.Random(1000 + seed)
    src = gen_program(rng, 700)
    prog = assemble(src, origin=0x1000)
    ref = run_reference(prog.words, prog.entry)

    plat = build_minimal()
    for addr, word in prog.words.items():
        plat.poke(addr, word.to_bytes(4, "little"))
    plat.set_entry(prog.entry)
    plat.run(max_cycles=10_000_000)
    cpu = plat.lookup("cpu")

    assert cpu.regs == ref.regs
    assert cpu.pc == ref.pc
    got = plat.peek(SCRATCH, 0x1000)
    assert got == bytes(ref.mem[SCRATCH:SCRATCH + 0x1000])
    assert cpu.instr_retired == ref.retired


# -- word-level differential -----------------------------------------------
# Random legal words straight from the ISA tables' mask/match, with operand
# fields drawn so that the cases the bound semantics specialise come up
# often: rd = x0, x0 sources, rs1 == rd for p.lwpost and negative
# immediates.  x3 holds SCRATCH + 0x800 throughout, so that every load and
# store stays in the scratch window; control transfers skip 1 or 2 words
# forward.  Each word that writes a register is followed by a store of that
# register to a log slot, so that a wrong result shows even when a later
# word overwrites the register.

M32 = 0xFFFFFFFF
BASE = 3
BASE_VALUE = SCRATCH + 0x800
DRAWN = [e for e in IsaTable.load(["rv32im", "xdemo"]).entries
         if e.klass not in ("system", "csr")]
ENTRY = {e.mnemonic: e for e in DRAWN}
MEMORY = [e for e in DRAWN if e.klass in ("load", "store")]    # drawn more often
WRITABLE = [r for r in range(1, 32) if r != BASE]
RD = st.one_of(st.just(0), st.sampled_from(WRITABLE), st.sampled_from(WRITABLE))
SRC = st.one_of(st.just(0), st.integers(1, 31), st.integers(1, 31))
IMM12 = st.one_of(st.integers(-2048, -1), st.integers(0, 2047))


def put(word, lo, width, value):
    """`word` with bits lo..lo+width-1 replaced by the low bits of `value`."""
    mask = ((1 << width) - 1) << lo
    return (word & ~mask) | ((value << lo) & mask)


def with_imm(word, fmt, imm):
    if fmt == "I":
        return put(word, 20, 12, imm)
    if fmt == "IS":
        return put(word, 20, 5, imm)
    if fmt == "S":
        return put(put(word, 7, 5, imm), 25, 7, imm >> 5)
    if fmt == "B":
        word = put(put(word, 8, 4, imm >> 1), 25, 6, imm >> 5)
        return put(put(word, 7, 1, imm >> 11), 31, 1, imm >> 12)
    if fmt == "J":
        word = put(put(word, 21, 10, imm >> 1), 20, 1, imm >> 11)
        return put(put(word, 12, 8, imm >> 12), 31, 1, imm >> 20)
    raise ValueError(fmt)


def i_word(mnemonic, rd, rs1, imm):
    return with_imm(put(put(ENTRY[mnemonic].match, 7, 5, rd), 15, 5, rs1), "I", imm)


@st.composite
def word_chunk(draw):
    """One drawn word with the words it needs: a pointer set-up before a
    p.lwpost, an auipc before a jalr, the words a forward jump skips, and
    the store that logs its result."""
    e = draw(st.one_of(st.sampled_from(DRAWN), st.sampled_from(MEMORY)))
    fmt = e.fmt
    word = e.match | (draw(st.integers(0, M32)) & ~e.mask)
    if fmt in ("R", "I", "IS", "U", "J"):
        word = put(word, 7, 5, draw(RD))
    if fmt in ("R", "I", "IS", "S", "B"):
        word = put(word, 15, 5, draw(SRC))
    if fmt in ("R", "S", "B"):
        word = put(word, 20, 5, draw(SRC))
    if fmt in ("I", "IS"):
        word = with_imm(word, fmt, draw(IMM12 if fmt == "I" else st.integers(0, 31)))
    before, after = [], []
    if e.semantics == "p.lwpost":
        ptr = (word >> 15) & 31
        if ptr == BASE:
            word = put(word, 15, 5, ptr := draw(st.sampled_from(WRITABLE)))
        if ptr:         # x0 as the pointer reads address 0
            before.append(i_word("addi", ptr, BASE, draw(st.integers(-512, 511)) * 4))
        if draw(st.booleans()):
            word = put(word, 7, 5, ptr)     # rs1 == rd: the loaded value wins
    elif e.klass in ("load", "store"):
        size = 1 << ((word >> 12) & 3)
        off = draw(st.integers(-2048, 2048 - size)) // size * size
        word = with_imm(put(word, 15, 5, BASE), fmt, off)
    elif e.klass in ("branch", "jump"):
        skip = draw(st.integers(1, 2))
        after = [i_word("addi", draw(RD), draw(SRC), draw(IMM12)) for _ in range(skip)]
        if fmt == "I":      # jalr, relative to an auipc of its own pc
            link = draw(st.sampled_from(WRITABLE))
            before.append(put(ENTRY["auipc"].match, 7, 5, link))
            word = with_imm(put(word, 15, 5, link), fmt, 4 * (skip + 2) + draw(st.integers(0, 1)))
        else:
            word = with_imm(word, fmt, 4 * (skip + 1))
    rd = (word >> 7) & 31 if fmt in ("R", "I", "IS", "U", "J") else 0
    if rd:
        log = put(put(ENTRY["sw"].match, 15, 5, BASE), 20, 5, rd)
        after.append(with_imm(log, "S", 1024 + 4 * draw(st.integers(0, 255))))
    return before + [word] + after


def run_both(source, scratch):
    """Assemble at 0x1000 and run on RiscvCore and on the reference, with
    `scratch` (0x1000 bytes) at SCRATCH."""
    prog = assemble(source, origin=0x1000)
    ref = RefCore(0, 0x100000)
    for addr, word in prog.words.items():
        ref.store(addr, 4, word)
    ref.mem[SCRATCH:SCRATCH + 0x1000] = scratch
    ref.pc = prog.entry
    try:
        ref.run(100_000)
    except Halt:
        pass
    plat = build_minimal()
    for addr, word in prog.words.items():
        plat.poke(addr, word.to_bytes(4, "little"))
    plat.poke(SCRATCH, scratch)
    plat.set_entry(prog.entry)
    plat.run(max_cycles=1_000_000)
    return plat, plat.lookup("cpu"), ref


def assert_same_state(plat, cpu, ref):
    assert cpu.regs == ref.regs
    assert cpu.pc == ref.pc
    assert plat.peek(SCRATCH, 0x1000) == bytes(ref.mem[SCRATCH:SCRATCH + 0x1000])
    assert cpu.instr_retired == ref.retired


def prologue(values):
    values = list(values)
    values[BASE] = BASE_VALUE
    return ["_start:"] + ["li x%d, 0x%x" % (r, values[r]) for r in range(1, 32)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(word_chunk(), min_size=8, max_size=40),
       st.lists(st.integers(0, M32), min_size=32, max_size=32),
       st.binary(min_size=16, max_size=16))
def test_random_words_match_reference(chunks, values, seed):
    lines = prologue(values)
    lines += [".word 0x%08x" % w for chunk in chunks for w in chunk]
    lines.append("ecall")
    plat, cpu, ref = run_both("\n".join(lines), random.Random(seed).randbytes(0x1000))
    assert_same_state(plat, cpu, ref)


def test_every_shift_amount_matches_reference():
    rng = random.Random(7)
    lines = prologue(rng.getrandbits(32) for _ in range(32))
    off = -2048
    for amount in range(32):
        lines.append("li x2, 0x%x" % (amount | rng.getrandbits(27) << 5))
        for op, src in (("slli", amount), ("srli", amount), ("srai", amount),
                        ("sll", "x2"), ("srl", "x2"), ("sra", "x2")):
            lines.append("%s x5, x1, %s" % (op, src))
            lines.append("sw x5, %d(x3)" % off)
            off += 4
    lines.append("ecall")
    plat, cpu, ref = run_both("\n".join(lines), bytes(0x1000))
    assert cpu.instr_retired > 32 * 12
    assert_same_state(plat, cpu, ref)
