"""Whole-platform runs on pulp-open: golden timing stats and counter checks.

The guest runs both sides of the SoC at once.  The eight PEs each compute
one int32 dot product in TCDM with p.lwpost/p.mac and meet at one
event-unit barrier; PE0 then raises line 1 of the FC's interrupt
controller.  The FC meanwhile loops over a straight-line body larger than
its 512 B L1 icache, so every pass refills from L2, then waits for that
line and ends the run.  `tests/regen_golden.py` regenerates the golden
stats.
"""

import json
import pathlib

import pytest

from pulpsim.asm import assemble
from pulpsim.tracing import stats_report, stable_stats

from conftest import build_pulp

GOLDEN = pathlib.Path(__file__).parent / "data" / "pulp_open_golden_stats.json"

L2 = 0x1C000000
TCDM = 0x10000000
CL_EU = 0x10200000
FC_ITC = 0x1A101000
SIMCTL = 0x1A104000
FC_DATA = L2 + 0x40000
N = 16                  # dot-product length
A = TCDM                # 8 rows of N words, one per PE
B = TCDM + 0x400        # N words
C = TCDM + 0x800        # 8 result words
FC_BODY = 192           # instructions: 768 B, 1.5x the FC L1 icache
FC_PASSES = 3

# EVT_MASK, EVT_WAIT, EVT_SET and BARRIER_TRIG offsets (event_unit.py)
EVT_MASK, EVT_WAIT, EVT_SET, BARRIER_TRIG = 0x00, 0x04, 0x08, 0x18


def _fc_body():
    """Straight-line ALU, mul and L2 load/store mix over s0..s7."""
    out = []
    for i in range(FC_BODY):
        rd, rs = "s%d" % (i % 8), "s%d" % ((i * 3 + 1) % 8)
        kind = i % 6
        if kind == 0:
            out.append("lw %s, %d(s10)" % (rd, 4 * (i % 32)))
        elif kind == 1:
            out.append("add %s, %s, %s" % (rd, rd, rs))
        elif kind == 2:
            out.append("mul %s, %s, %s" % (rd, rs, rd))
        elif kind == 3:
            out.append("sw %s, %d(s10)" % (rs, 4 * ((i * 5) % 32)))
        elif kind == 4:
            out.append("xori %s, %s, %d" % (rd, rs, i))
        else:
            out.append("srli %s, %s, %d" % (rd, rs, i % 7))
    return out


def guest_source():
    lines = [
        "_start:",
        "    csrr t0, 0xF14",
        "    li t1, 32",
        "    beq t0, t1, fc_main",
        # PE t0: C[t0] = sum_k A[t0][k] * B[k]
        "    li a0, 0x%X" % A,
        "    slli a1, t0, 6",
        "    add a0, a0, a1",
        "    li a1, 0x%X" % B,
        "    mv a2, zero",
        "    li a3, %d" % N,
        "pe_k:",
        "    p.lwpost a4, 4(a0)",
        "    p.lwpost a5, 4(a1)",
        "    p.mac a2, a4, a5",
        "    addi a3, a3, -1",
        "    bnez a3, pe_k",
        "    li a6, 0x%X" % C,
        "    slli a1, t0, 2",
        "    add a6, a6, a1",
        "    sw a2, 0(a6)",
        "    li a7, 0x%X" % CL_EU,
        "    lw a4, %d(a7)" % BARRIER_TRIG,
        "    bnez t0, pe_park",
        "    li a6, 0x%X" % FC_ITC,
        "    li a5, 1",
        "    sw a5, %d(a6)" % EVT_SET,
        "pe_park:",
        "    li a6, 1",
        "    sw a6, %d(a7)" % EVT_MASK,
        "    lw a6, %d(a7)" % EVT_WAIT,
        "    j pe_park",
        "fc_main:",
        "    li s9, 0x%X" % FC_ITC,
        "    li s8, 2",
        "    sw s8, %d(s9)" % EVT_MASK,
        "    li s10, 0x%X" % FC_DATA,
        "    li s11, %d" % FC_PASSES,
        "fc_loop:",
    ]
    lines += ["    " + text for text in _fc_body()]
    lines += [
        "    addi s11, s11, -1",
        "    bnez s11, fc_loop",
        "    lw s8, %d(s9)" % EVT_WAIT,
        "    li s9, 0x%X" % SIMCTL,
        "    sw zero, 0(s9)",
    ]
    return "\n".join(lines) + "\n"


def _words(seed, count):
    x = seed
    out = []
    for _ in range(count):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        out.append(x)
    return out


def load_guest(plat):
    program = assemble(guest_source(), origin=L2)
    for addr, word in program.words.items():
        plat.poke(addr, word.to_bytes(4, "little"))
    a, b = _words(1, 8 * N), _words(2, N)
    plat.poke(A, b"".join(w.to_bytes(4, "little") for w in a))
    plat.poke(B, b"".join(w.to_bytes(4, "little") for w in b))
    plat.poke(FC_DATA, bytes(range(128)))
    plat.set_entry(program.entry)
    return a, b


def run_guest():
    plat = build_pulp()
    a, b = load_guest(plat)
    status = plat.run(max_cycles=200_000)
    return plat, status, a, b


@pytest.fixture(scope="module")
def guest_run():
    return run_guest()


def test_guest_results(guest_run):
    plat, status, a, b = guest_run
    assert status == 0 and not plat.diagnostics
    got = plat.peek(C, 32)
    for pe in range(8):
        want = sum(a[pe * N + k] * b[k] for k in range(N)) & 0xFFFFFFFF
        assert int.from_bytes(got[4 * pe:4 * pe + 4], "little") == want, pe


def test_stable_stats_match_golden(guest_run):
    plat, status, _, _ = guest_run
    stats = json.loads(json.dumps(stable_stats(stats_report(plat, status))))
    assert stats == json.loads(GOLDEN.read_text())


def test_core_icache_misses_equal_l1_misses(guest_run):
    plat, _, _, _ = guest_run
    for core in plat.cores():
        l1 = plat.lookup(core.ports["fetch"].binding.owner.path)
        assert l1.misses > 0, core.path
        assert core.icache_misses == l1.misses, core.path


def test_reset_and_rerun_repeats_the_first_run(guest_run):
    """Reset rewinds time, counters and pending events; memory is reloaded."""
    first_plat, first_status, _, _ = guest_run
    first = stable_stats(stats_report(first_plat, first_status))
    plat, status, _, _ = run_guest()
    plat.reset()
    load_guest(plat)
    status = plat.run(max_cycles=200_000)
    assert status == 0 and not plat.diagnostics
    assert stable_stats(stats_report(plat, status)) == first
