"""The fabric controller programs cluster peripherals across clock domains.

The FC runs in the soc domain; the cluster DMA and the conv accelerator
run in the cluster domain, whose counter is stale while the PEs sleep.
Each guest parks the PEs, lets the FC drive the peripheral over the
SoC-to-cluster crossing and checks the data against an independent
reference.  A reset with DMA, micro-DMA and accelerator work in flight
must rewind the platform so that a rerun equals a fresh run.
"""

import io
import random

import numpy as np
import pytest

from pulpsim.asm import assemble
from pulpsim.engine import EXIT_TIMEOUT
from pulpsim.tracing import TraceSink, stats_report, stable_stats

from conftest import build_pulp

L2 = 0x1C000000
TCDM = 0x10000000
CL_EU = 0x10200000
CL_DMA = 0x10201000
CL_ACCEL = 0x10202000
FC_ITC = 0x1A101000
UDMA = 0x1A102000
SIMCTL = 0x1A104000
HYPER = 0x20000000
UNMAPPED = 0x30000000
RESULTS = L2 + 0x10000      # words the FC stores for the test to read

# event unit, cluster DMA, accelerator and micro-DMA registers
EVT_MASK, EVT_WAIT = 0x00, 0x04
DMA_SRC, DMA_DST, DMA_LEN, DMA_STRIDE, DMA_COUNT, DMA_CFG, DMA_STATUS, DMA_ID, DMA_TID, \
    DMA_TID_STATUS = 0x00, 0x04, 0x08, 0x0C, 0x10, 0x14, 0x18, 0x1C, 0x20, 0x24
DMA_L1_TO_L2, DMA_2D, DMA_REJECT = 1, 2, 1 << 30
ACC_TRIGGER, ACC_STATUS = 0x20, 0x24
ST_BUSY, ST_SHADOW, ST_ERROR = 1, 2, 4
UDMA_L2, UDMA_EXT, UDMA_LEN, UDMA_CFG = 0x00, 0x04, 0x08, 0x0C
SIMCTL_PUTC = 0x04


def guest(fc_body):
    """PEs park on a never-raised event line; the FC runs `fc_body`, then exits."""
    lines = [
        "_start:",
        "    csrr t0, 0xF14",
        "    li t1, 32",
        "    beq t0, t1, fc_main",
        "pe_park:",
        "    li t0, 0x%X" % CL_EU,
        "    addi t1, zero, 1",
        "    sw t1, %d(t0)" % EVT_MASK,
        "    lw t1, %d(t0)" % EVT_WAIT,
        "    j pe_park",
        "fc_main:",
    ]
    lines += ["    " + text if not text.endswith(":") else text for text in fc_body]
    lines += ["li a0, 0x%X" % SIMCTL, "sw zero, 0(a0)"]
    return assemble("\n".join(lines) + "\n", origin=L2)


def load(plat, program, pokes=()):
    for addr, word in program.words.items():
        plat.poke(addr, word.to_bytes(4, "little"))
    for addr, data in pokes:
        plat.poke(addr, data)
    plat.set_entry(program.entry)


def run(program, pokes=(), max_cycles=200_000):
    plat = build_pulp()
    load(plat, program, pokes)
    status = plat.run(max_cycles=max_cycles)
    assert status == 0 and not plat.diagnostics, (status, plat.diagnostics)
    return plat


def store(reg, index):
    """Store `reg` into result word `index` (clobbers a7)."""
    return ["li a7, 0x%X" % (RESULTS + 4 * index), "sw %s, 0(a7)" % reg]


def dma_copy(src, dst, length):
    """Start one 1D cluster DMA transfer (a0 holds the DMA base)."""
    return ["li a1, 0x%X" % src, "sw a1, %d(a0)" % DMA_SRC,
            "li a1, 0x%X" % dst, "sw a1, %d(a0)" % DMA_DST,
            "li a1, %d" % length, "sw a1, %d(a0)" % DMA_LEN,
            "sw zero, %d(a0)" % DMA_CFG]


def dma_wait(label):
    """Poll STATUS until no transfer is active (a0 holds the DMA base)."""
    return ["%s:" % label, "lw a1, %d(a0)" % DMA_STATUS, "andi a1, a1, 255",
            "bnez a1, %s" % label]


def tid_status(tid, index):
    return ["li a1, %d" % tid, "sw a1, %d(a0)" % DMA_TID,
            "lw a1, %d(a0)" % DMA_TID_STATUS] + store("a1", index)


def results(plat, count):
    raw = plat.peek(RESULTS, 4 * count)
    return [int.from_bytes(raw[4 * i:4 * i + 4], "little") for i in range(count)]


# -- console -------------------------------------------------------------


def test_console_holds_what_the_fc_prints_until_reset():
    """Each word the FC stores to SIMCTL_PUTC prints its low byte; a reset
    empties the console, so a rerun prints the text once."""
    text = "Hi, PULP!\n"
    body = ["li a0, 0x%X" % SIMCTL]
    for ch in text:
        body += ["li a1, 0x%X" % (0x100 | ord(ch)), "sw a1, %d(a0)" % SIMCTL_PUTC]
    program = guest(body)
    plat = run(program)
    assert stats_report(plat, 0)["console"] == text
    plat.reset()
    assert stats_report(plat)["console"] == ""
    assert plat.run(max_cycles=200_000) == 0
    assert stats_report(plat, 0)["console"] == text


# -- cluster DMA ---------------------------------------------------------


def test_fc_driven_dma_copies_l2_to_tcdm():
    src, dst = L2 + 0x20000, TCDM + 0x100
    data = random.Random(1).randbytes(256)
    body = ["li a0, 0x%X" % CL_DMA] + dma_copy(src, dst, 256) + dma_wait("wait")
    plat = run(guest(body), [(src, data)])
    assert plat.peek(dst, 256) == data
    dma = plat.lookup("cluster/dma")
    assert dma.transfers == 1 and dma.bytes == 256


def test_dma_tid_status_and_bounded_state():
    """Good transfers read 1 (0 while in flight), a bus error 2, unknown ids
    0xFFFFFFFF; only the failed transfer leaves state behind."""
    src, dst = L2 + 0x20000, TCDM + 0x1000
    data = random.Random(2).randbytes(1024)
    body = ["li a0, 0x%X" % CL_DMA]
    body += dma_copy(src, dst, 256) + dma_wait("w1")
    body += dma_copy(src + 256, dst + 256, 256) + dma_wait("w2")
    body += dma_copy(src + 512, dst + 512, 512)     # two bursts
    body += ["lw a2, %d(a0)" % DMA_ID] + store("a2", 0) + tid_status(3, 1)
    body += dma_wait("w3")
    body += dma_copy(src, UNMAPPED, 64) + dma_wait("w4")
    for i, tid in enumerate((1, 2, 3, 4, 5, 0)):
        body += tid_status(tid, 2 + i)
    plat = run(guest(body), [(src, data)])
    assert plat.peek(dst, 1024) == data
    assert results(plat, 8) == [3, 0, 1, 1, 1, 2, 0xFFFFFFFF, 0xFFFFFFFF]
    dma = plat.lookup("cluster/dma")
    assert dma.active == {} and dma.failed == {4}


def test_dma_keeps_failed_ids_only_for_its_tid_window():
    """300 failing transfers: TID_STATUS knows the last TID_WINDOW ids, and
    the DMA keeps no more failed ids than that."""
    from pulpsim.dma import TID_WINDOW
    body = ["li a0, 0x%X" % CL_DMA, "li s0, 300", "again:"]
    body += dma_copy(L2 + 0x20000, UNMAPPED, 4) + dma_wait("wait")
    body += ["addi s0, s0, -1", "bnez s0, again"]
    oldest = 300 - TID_WINDOW + 1
    for i, tid in enumerate((1, oldest - 1, oldest, 300, 301)):
        body += tid_status(tid, i)
    plat = run(guest(body), max_cycles=2_000_000)
    assert results(plat, 5) == [0xFFFFFFFF, 0xFFFFFFFF, 2, 2, 0xFFFFFFFF]
    dma = plat.lookup("cluster/dma")
    assert dma.transfers == 300 and dma.failed == set(range(oldest, 301))
    assert len(dma.failed) <= TID_WINDOW


def test_dma_from_an_unmapped_source_fails_and_writes_nothing():
    dst = TCDM + 0x100
    data = random.Random(5).randbytes(600)
    body = ["li a0, 0x%X" % CL_DMA] + dma_copy(UNMAPPED, dst, 600) + dma_wait("wait")
    body += tid_status(1, 0)
    plat = run(guest(body), [(dst, data)])
    assert plat.peek(dst, 600) == data
    assert results(plat, 1) == [2]
    dma = plat.lookup("cluster/dma")
    assert dma.transfers == 1 and dma.bytes == 0 and dma.failed == {1}


# (id, LEN, STRIDE, COUNT, 2D flag); the first is the shape with the bare
# direction as its id
DMA_SHAPES = [
    ("", 300, 512, 3, True),                    # a row of a full and a partial burst
    ("row-of-max-burst", 256, 512, 2, True),
    ("row-of-two-bursts", 512, 640, 2, True),
    ("row-under-a-word", 3, 8, 5, True),
    ("one-row", 300, 512, 1, True),
    ("stride-is-row", 300, 300, 3, True),
    ("1d", 600, 512, 3, False),                 # STRIDE and COUNT set, but not used
]


@pytest.mark.parametrize("l1_to_l2,row_len,stride,count,two_d", [
    pytest.param(l1_to_l2, row_len, stride, count, two_d,
                 id="-".join(filter(None, (direction, shape))))
    for l1_to_l2, direction in ((False, "l2-to-tcdm"), (True, "tcdm-to-l2"))
    for shape, row_len, stride, count, two_d in DMA_SHAPES])
def test_fc_driven_2d_dma_matches_numpy_slicing(l1_to_l2, row_len, stride, count, two_d):
    """COUNT rows of LEN bytes, STRIDE apart on the L2 side and contiguous
    in the TCDM; a row longer than max_burst takes several bursts.  Without
    the 2D flag the transfer is one row."""
    l2, tcdm = L2 + 0x20000, TCDM + 0x800
    src, dst = (tcdm, l2) if l1_to_l2 else (l2, tcdm)
    body = ["li a0, 0x%X" % CL_DMA]
    for reg, value in ((DMA_SRC, src), (DMA_DST, dst), (DMA_LEN, row_len),
                       (DMA_STRIDE, stride), (DMA_COUNT, count)):
        body += ["li a1, 0x%X" % value, "sw a1, %d(a0)" % reg]
    body += ["li a1, %d" % ((DMA_2D if two_d else 0) | (DMA_L1_TO_L2 if l1_to_l2 else 0)),
             "sw a1, %d(a0)" % DMA_CFG] + dma_wait("wait")
    if not two_d:
        stride, count = row_len, 1
    rng = random.Random(4)
    l2_data, tcdm_data = rng.randbytes(stride * count), rng.randbytes(row_len * count)
    plat = run(guest(body), [(l2, l2_data), (tcdm, tcdm_data)])
    rows = np.frombuffer(l2_data, np.uint8).reshape(count, stride).copy()
    if l1_to_l2:
        rows[:, :row_len] = np.frombuffer(tcdm_data, np.uint8).reshape(count, row_len)
        assert plat.peek(l2, stride * count) == rows.tobytes()    # gaps untouched
        assert plat.peek(tcdm, row_len * count) == tcdm_data
    else:
        assert plat.peek(tcdm, row_len * count) == rows[:, :row_len].tobytes()
    dma = plat.lookup("cluster/dma")
    assert dma.transfers == 1 and dma.bytes == row_len * count


def test_dma_rejects_a_transfer_past_its_channels():
    """Five starts in a row on four channels: the fifth sets the reject flag
    and gets no id, and the four accepted transfers complete."""
    src, dst, length = L2 + 0x20000, TCDM + 0x4000, 4096
    data = random.Random(5).randbytes(length)
    body = ["li a0, 0x%X" % CL_DMA]
    body += dma_copy(src, dst, length)[:-1] + ["sw zero, %d(a0)" % DMA_CFG] * 5
    body += ["lw a2, %d(a0)" % DMA_STATUS] + store("a2", 0)
    body += ["lw a2, %d(a0)" % DMA_ID] + store("a2", 1) + dma_wait("wait")
    for tid in range(1, 6):
        body += tid_status(tid, 1 + tid)
    plat = run(guest(body), [(src, data)])
    dma = plat.lookup("cluster/dma")
    assert dma.params["channels"] == 4
    assert results(plat, 7) == [4 | DMA_REJECT, 4, 1, 1, 1, 1, 0xFFFFFFFF]
    assert plat.peek(dst, length) == data
    assert dma.transfers == 4 and dma.bytes == 4 * length


# -- conv accelerator ----------------------------------------------------


def conv_nested_loops(x, w):
    """int8 x[cin][h][w] * w[cout][cin][k][k], same padding, stride 1 -> int32."""
    cin, h, wd = len(x), len(x[0]), len(x[0][0])
    cout, k = len(w), len(w[0][0])
    pad = k // 2
    out = []
    for co in range(cout):
        for oy in range(h):
            for ox in range(wd):
                acc = 0
                for ci in range(cin):
                    for ky in range(k):
                        for kx in range(k):
                            iy, ix = oy + ky - pad, ox + kx - pad
                            if 0 <= iy < h and 0 <= ix < wd:
                                acc += x[ci][iy][ix] * w[co][ci][ky][kx]
                out.append(acc)
    return out


def int8s(rng, n):
    return [rng.randrange(-128, 128) for _ in range(n)]


def conv_job(rng, cin, cout, h, wd, k, in_ptr, w_ptr, out_ptr):
    """Returns (accelerator register values, pokes, expected int32 outputs)."""
    xs, ws = int8s(rng, cin * h * wd), int8s(rng, cout * cin * k * k)
    x = [[xs[(c * h + y) * wd:(c * h + y + 1) * wd] for y in range(h)] for c in range(cin)]
    w = [[[ws[((o * cin + c) * k + ky) * k:((o * cin + c) * k + ky + 1) * k]
           for ky in range(k)] for c in range(cin)] for o in range(cout)]
    regs = (in_ptr, w_ptr, out_ptr, cin, cout, h, wd, k)
    pokes = [(in_ptr, bytes(v & 0xFF for v in xs)), (w_ptr, bytes(v & 0xFF for v in ws))]
    return regs, pokes, conv_nested_loops(x, w)


def acc_program(regs):
    """Write the job registers (IN, W, OUT, CH_IN, CH_OUT, H, W, KSIZE at
    0x00..0x1C) and trigger; a0 holds the accelerator base."""
    out = []
    for i, value in enumerate(regs):
        out += ["li a1, 0x%X" % value, "sw a1, %d(a0)" % (4 * i)]
    return out + ["sw zero, %d(a0)" % ACC_TRIGGER]


def acc_wait(label):
    return ["%s:" % label, "lw a1, %d(a0)" % ACC_STATUS, "andi a1, a1, 1",
            "bnez a1, %s" % label]


def out_words(plat, out_ptr, n):
    raw = plat.peek(out_ptr, 4 * n)
    return [int.from_bytes(raw[4 * i:4 * i + 4], "little", signed=True) for i in range(n)]


@pytest.mark.parametrize("k", [1, 3])
def test_fc_driven_accelerator_matches_nested_loop_conv(k):
    rng = random.Random(k)
    regs, pokes, want = conv_job(rng, 3, 4, 6, 5, k, TCDM, TCDM + 0x400, TCDM + 0x800)
    body = ["li a0, 0x%X" % CL_ACCEL] + acc_program(regs) + acc_wait("wait")
    body += ["lw a1, %d(a0)" % ACC_STATUS] + store("a1", 0)
    plat = run(guest(body), pokes)
    assert results(plat, 1) == [0]
    assert out_words(plat, TCDM + 0x800, len(want)) == want
    assert plat.lookup("cluster/accel").jobs == 1


@pytest.mark.parametrize("shape", [(1, 1, 1, 1, 1), (1, 1, 1, 3, 1), (1, 2, 1, 1, 1),
                                   (2, 1, 1, 3, 3), (5, 3, 1, 1, 1)])
def test_accelerator_writes_every_output_word(shape):
    # (cin, cout, h, w, k) whose input and weight byte counts both end in a
    # partial word, the two remainders summing to at most 4: each tensor
    # streams its own words, so the output's last word is still written
    cin, cout, h, wd, k = shape
    out = TCDM + 0x800
    regs, pokes, want = conv_job(random.Random(sum(shape)), cin, cout, h, wd, k,
                                 TCDM, TCDM + 0x400, out)
    body = ["li a0, 0x%X" % CL_ACCEL] + acc_program(regs) + acc_wait("wait")
    body += ["lw a1, %d(a0)" % ACC_STATUS] + store("a1", 0)
    plat = run(guest(body), pokes + [(out, b"\xA5" * 4 * len(want))])
    assert results(plat, 1) == [0]
    assert out_words(plat, out, len(want)) == want


def test_unaligned_accelerator_output_is_rejected():
    # a 1x1 kernel on one 2x2 channel: four int32 results.  Stored at
    # `out & ~3`, they would clobber the two bytes before the buffer
    out = TCDM + 0x202
    regs, pokes, _ = conv_job(random.Random(5), 1, 1, 2, 2, 1, TCDM, TCDM + 0x100, out)
    body = ["li a0, 0x%X" % CL_ACCEL] + acc_program(regs) + acc_wait("wait")
    body += ["lw a1, %d(a0)" % ACC_STATUS] + store("a1", 0)
    guard = bytes(range(0xE0, 0xF8))
    plat = run(guest(body), pokes + [(out - 2, guard)])
    assert results(plat, 1) == [ST_ERROR]
    assert plat.lookup("cluster/accel").jobs == 0
    assert plat.peek(out - 2, len(guard)) == guard


def test_next_trigger_clears_the_accelerator_error():
    # a refused k=2 job sets ST_ERROR; the valid job triggered next (two
    # chunks long) reads ST_BUSY alone while it runs and 0 once done
    regs, pokes, want = conv_job(random.Random(7), 3, 4, 6, 5, 3,
                                 TCDM, TCDM + 0x400, TCDM + 0x800)
    bad = regs[:7] + (2,)
    body = ["li a0, 0x%X" % CL_ACCEL] + acc_program(bad)
    body += ["lw a1, %d(a0)" % ACC_STATUS] + store("a1", 0)
    body += acc_program(regs) + ["lw a1, %d(a0)" % ACC_STATUS] + store("a1", 1)
    body += acc_wait("wait") + ["lw a1, %d(a0)" % ACC_STATUS] + store("a1", 2)
    plat = run(guest(body), pokes)
    assert results(plat, 3) == [ST_ERROR, ST_BUSY, 0]
    assert out_words(plat, TCDM + 0x800, len(want)) == want


def test_a_shadowed_job_starts_as_the_running_one_completes():
    # the second trigger fills the shadow slot while the first, 1612-cycle
    # job runs; the first job's completion starts it in the same step, and
    # it writes its own outputs
    rng = random.Random(11)
    first, pokes, want = conv_job(rng, 8, 8, 8, 8, 3, TCDM, TCDM + 0x400, TCDM + 0x800)
    second, more, want2 = conv_job(rng, 2, 3, 4, 4, 1,
                                   TCDM + 0x1000, TCDM + 0x1400, TCDM + 0x1800)
    body = ["li a0, 0x%X" % CL_ACCEL] + acc_program(first) + acc_program(second)
    body += ["lw a1, %d(a0)" % ACC_STATUS] + store("a1", 0)
    body += acc_wait("wait") + ["lw a1, %d(a0)" % ACC_STATUS] + store("a1", 1)
    plat = build_pulp()
    trace = io.StringIO()
    plat.trace_sink = TraceSink(["cluster/accel"], trace)
    load(plat, guest(body), pokes + more)
    assert plat.run(max_cycles=200_000) == 0
    assert results(plat, 2) == [ST_BUSY | ST_SHADOW, 0]
    assert out_words(plat, TCDM + 0x800, len(want)) == want
    assert out_words(plat, TCDM + 0x1800, len(want2)) == want2
    assert plat.lookup("cluster/accel").jobs == 2
    lines = [(int(line.split("ps", 1)[0]), line.split("] ", 1)[1])
             for line in trace.getvalue().splitlines()]
    assert [text.split()[0:2] for _, text in lines] == [
        ["job", "ch_in=8"], ["job", "done"], ["job", "ch_in=2"], ["job", "done"]]
    assert lines[1][0] == lines[2][0] < lines[3][0]


def test_unaligned_input_streams_every_word_it_touches():
    # a 2-byte input at TCDM + 3 lies in two words and the 1-byte weights
    # in one: the job reads 3 TCDM words (and writes its 2 output words)
    regs, pokes, want = conv_job(random.Random(9), 1, 1, 1, 2, 1,
                                 TCDM + 3, TCDM + 0x100, TCDM + 0x200)
    body = ["li a0, 0x%X" % CL_ACCEL] + acc_program(regs) + acc_wait("wait")
    plat = run(guest(body), pokes)
    assert out_words(plat, TCDM + 0x200, len(want)) == want
    tcdm = plat.lookup("cluster/tcdm")
    assert (tcdm.reads, tcdm.writes) == (3, 2)


# -- reset with work in flight -------------------------------------------

IO_BYTES = 2048


def busy_guest():
    """The FC starts a micro-DMA read, a cluster DMA copy and a conv job at
    once, then waits for all three."""
    rng = random.Random(3)
    regs, pokes, want = conv_job(rng, 4, 4, 8, 8, 3, TCDM, TCDM + 0x400, TCDM + 0x800)
    io = rng.randbytes(IO_BYTES)
    copy = rng.randbytes(2048)
    io_dst, copy_src, copy_dst = L2 + 0x30000, L2 + 0x20000, TCDM + 0x4000
    body = ["li s0, 0x%X" % FC_ITC, "addi a1, zero, 2", "sw a1, %d(s0)" % EVT_MASK,
            "li a0, 0x%X" % UDMA,
            "li a1, 0x%X" % io_dst, "sw a1, %d(a0)" % UDMA_L2,
            "sw zero, %d(a0)" % UDMA_EXT,
            "li a1, %d" % IO_BYTES, "sw a1, %d(a0)" % UDMA_LEN,
            "sw zero, %d(a0)" % UDMA_CFG,
            "li a0, 0x%X" % CL_DMA] + dma_copy(copy_src, copy_dst, len(copy))
    body += ["li a0, 0x%X" % CL_ACCEL] + acc_program(regs)
    body += ["lw a1, %d(s0)" % EVT_WAIT]            # micro-DMA done (ITC line 1)
    body += acc_wait("acc_wait") + ["li a0, 0x%X" % CL_DMA] + dma_wait("dma_wait")
    pokes = pokes + [(HYPER, io), (copy_src, copy)]
    checks = [(io_dst, io), (copy_dst, copy)]
    return guest(body), pokes, checks, want


def stats_of(plat, status):
    return stable_stats(stats_report(plat, status))


def test_reset_with_dma_udma_and_accel_in_flight_reruns_like_fresh():
    program, pokes, checks, want = busy_guest()
    fresh = run(program, pokes)
    fresh_stats = stats_of(fresh, 0)
    end = fresh.engine.now_ps // fresh.domains["cluster"].period_ps

    all_busy = False
    for cap in (end // 20, end // 5, end // 2, end * 9 // 10):
        plat = build_pulp()
        load(plat, program, pokes)
        assert plat.run(max_cycles=cap) == EXIT_TIMEOUT
        busy = {"dma": bool(plat.lookup("cluster/dma").active),
                "udma": bool(plat.lookup("udma").status & 1),
                "accel": plat.lookup("cluster/accel").running is not None}
        all_busy = all_busy or all(busy.values())
        plat.reset()
        assert plat.engine.now_ps == 0
        assert all(d.cycle == 0 for d in plat.domains.values())
        load(plat, program, pokes)
        status = plat.run(max_cycles=200_000)
        assert status == 0 and not plat.diagnostics, (cap, busy, plat.diagnostics)
        assert stats_of(plat, status) == fresh_stats, (cap, busy)
        for addr, data in checks:
            assert plat.peek(addr, len(data)) == data
        assert out_words(plat, TCDM + 0x800, len(want)) == want
    assert all_busy
