"""HyperRAM on pulp-open: zero pages mapped on demand.

Never-written bytes read as 0 through the micro-DMA, the direct window and
`Platform.peek`; the last byte of the device is reachable and the one past
it is not; contents survive a reset; and building the platform does not
commit the device's 8 MiB of host memory.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from pulpsim.asm import assemble
from pulpsim.component import Request
from pulpsim.errors import ConfigError

from conftest import build_pulp, outcome

L2 = 0x1C000000
CL_EU = 0x10200000
UDMA = 0x1A102000
SIMCTL = 0x1A104000
HYPER = 0x20000000
SIZE = 0x800000
IO_DST = L2 + 0x30000
RESULT = L2 + 0x10000
IO_EXT = 0x400000
IO_LEN = 256

# PEs park; the FC reads IO_LEN never-written bytes into L2 with the
# micro-DMA, loads the last HyperRAM word through the direct window,
# stores it at RESULT and exits
GUEST = """
_start:
    csrr t0, 0xF14
    li t1, 32
    beq t0, t1, fc_main
pe_park:
    li t0, 0x%(eu)X
    addi t1, zero, 1
    sw t1, 0x00(t0)
    lw t1, 0x04(t0)
    j pe_park
fc_main:
    li a0, 0x%(udma)X
    li a1, 0x%(io_dst)X
    sw a1, 0x00(a0)
    li a1, 0x%(io_ext)X
    sw a1, 0x04(a0)
    li a1, %(io_len)d
    sw a1, 0x08(a0)
    sw zero, 0x0C(a0)
udma_poll:
    lw a1, 0x10(a0)
    andi a1, a1, 1
    bnez a1, udma_poll
    li a0, 0x%(last)X
    lw a1, 0(a0)
    li a0, 0x%(result)X
    sw a1, 0(a0)
    li a0, 0x%(simctl)X
    sw zero, 0(a0)
""" % {"eu": CL_EU, "udma": UDMA, "io_dst": IO_DST, "io_ext": IO_EXT,
       "io_len": IO_LEN, "last": HYPER + SIZE - 4, "result": RESULT, "simctl": SIMCTL}


def test_never_written_bytes_read_as_zero():
    plat = build_pulp()
    program = assemble(GUEST, origin=L2)
    for addr, word in program.words.items():
        plat.poke(addr, word.to_bytes(4, "little"))
    plat.poke(IO_DST, b"\xA5" * IO_LEN)
    plat.poke(RESULT, b"\xFF" * 4)
    plat.set_entry(program.entry)
    assert plat.run(max_cycles=200_000) == 0 and not plat.diagnostics
    assert plat.peek(IO_DST, IO_LEN) == bytes(IO_LEN)
    assert plat.peek(RESULT, 4) == bytes(4)
    assert plat.lookup("udma").bytes == IO_LEN
    assert plat.lookup("hyper").reads == 1
    assert plat.peek(HYPER + IO_EXT, IO_LEN) == bytes(IO_LEN)


def test_last_byte_is_reachable_and_past_it_is_not():
    plat = build_pulp()
    plat.poke(HYPER + SIZE - 1, b"\x5A")
    assert plat.peek(HYPER + SIZE - 2, 2) == b"\x00\x5A"
    assert plat.lookup("hyper").contents[SIZE - 1] == 0x5A
    with pytest.raises(ConfigError):
        plat.poke(HYPER + SIZE - 1, b"\x01\x02")
    with pytest.raises(ConfigError):
        plat.peek(HYPER + SIZE, 1)
    assert plat.peek(HYPER + SIZE - 1, 1) == b"\x5A"


def test_timed_access_past_the_end_fails():
    hyper = build_pulp().lookup("hyper")
    handle = hyper.ports["in"].handler
    last = Request(HYPER + SIZE - 4, 4)
    assert outcome(handle, last) == "ok" and last.at > 0
    for addr in (HYPER + SIZE - 2, HYPER + SIZE):
        for req in (Request(addr, 4), Request(addr, 4, True, 0x01020304)):
            assert outcome(handle, req) == "error" and req.at == 0, hex(addr)
    assert (hyper.reads, hyper.writes) == (1, 0)
    assert hyper.contents[SIZE - 2:] == bytes(2)


def test_contents_survive_reset():
    plat = build_pulp()
    data = bytes(range(256))
    plat.poke(HYPER + 0x1234, data)
    plat.reset()
    assert plat.peek(HYPER + 0x1234, len(data)) == data


def test_size_must_be_positive():
    with pytest.raises(ConfigError, match="size must be positive"):
        build_pulp(["hyper.size=0"])


# VmHWM is the peak resident set of the probe's own address space; its
# ru_maxrss would also carry the test runner's peak across fork and exec
RSS_PROBE = """
import importlib.resources, sys
sys.path.insert(0, sys.argv[1])
import pulpsim

def peak_kib():
    with open("/proc/self/status") as fh:
        return int(next(l for l in fh if l.startswith("VmHWM:")).split()[1])

text = importlib.resources.files("pulpsim").joinpath("platforms/pulp-open.json").read_text()
desc = pulpsim.parse(text)
before = peak_kib()
pulpsim.build(desc).reset()
print(peak_kib() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs Linux /proc")
def test_build_does_not_commit_hyperram_memory():
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", RSS_PROBE, str(src)],
                         capture_output=True, text=True, check=True)
    grown_kib = int(out.stdout)
    assert grown_kib < 4 * 1024, grown_kib
