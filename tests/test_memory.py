"""Banked memory: interleaving, contention serialization, payloads of every
size, untimed access through the platform, streams."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pulpsim.component import Request
from pulpsim.engine import TimeEngine, ClockDomain
from pulpsim.errors import ConfigError
from pulpsim.memory import BankedMemory
from pulpsim.periph import HyperRam

from conftest import build_minimal, outcome


class FakePlatform:
    def __init__(self):
        self.backing = []

    def register_backing(self, base, contents):
        self.backing.append((base, contents))


def make_mem(banks=16, size=0x20000, latency=0):
    eng = TimeEngine()
    dom = ClockDomain("clk", 400_000_000)
    eng.add_domain(dom)
    mem = BankedMemory(FakePlatform(), "mem", {
        "base": 0x10000000, "size": size, "banks": banks,
        "access_latency": latency}, dom)
    mem.reset()
    return mem, dom


def rd(mem, addr, size=4):
    """A read issued at cycle 0, so that its `at` is the cycles it took."""
    req = Request(addr, size, False)
    mem.handle(req)
    return req


def test_bank_of():
    mem, _ = make_mem(banks=16)
    assert mem.bank_of(0x10000010) == 4
    assert mem.bank_of(0x10000000) == 0
    mem8, _ = make_mem(banks=8)
    assert mem8.bank_of(0x1000001C) == 7


def test_free_bank_zero_latency():
    mem, _ = make_mem()
    req = rd(mem, 0x10000000)
    assert req.at == 0 and not req.contended


def test_same_cycle_same_bank_serializes():
    mem, _ = make_mem()
    first = rd(mem, 0x10000040)
    second = rd(mem, 0x10000040)
    third = rd(mem, 0x10000040)
    assert first.at == 0
    assert second.at == 1 and second.contended
    assert third.at == 2 and third.contended
    assert mem.contentions == 2


def test_same_cycle_different_banks_parallel():
    mem, _ = make_mem()
    assert rd(mem, 0x10000000).at == 0
    assert rd(mem, 0x10000004).at == 0


def test_serial_service_matches_bruteforce_oracle():
    # randomized same-cycle access patterns vs a per-bank serial counter
    rng = random.Random(42)
    for _ in range(200):
        banks = rng.choice([8, 16, 32])
        mem, _ = make_mem(banks=banks)
        served = {}
        for _ in range(rng.randrange(2, 20)):
            addr = 0x10000000 + (rng.randrange(0, 256) << 2)
            bank = (addr >> 2) % banks
            expect = served.get(bank, 0)
            req = rd(mem, addr)
            assert req.at == expect
            served[bank] = expect + 1


def test_wide_request_charges_one_cycle_per_extra_word():
    mem, _ = make_mem()
    req = Request(0x10000000, 64, False)
    req.at = 9
    mem.handle(req)
    assert req.at - 9 == 15


def held_per_word(banks, off, nbytes, end):
    """`bank_busy` after one access from idle banks: every word its bytes
    touch holds its bank through `end`, one word at a time."""
    busy = [-1] * banks
    for word in range(off >> 2, ((off + nbytes - 1) >> 2) + 1):
        busy[word % banks] = max(busy[word % banks], end)
    return busy


@pytest.mark.parametrize("off, nbytes, size, extra, held", [
    (3, 3, 3, 1, [1, 1, -1, -1]),       # bytes 3..5: words 0 and 1
    (2, 8, 8, 2, [2, 2, 2, -1]),        # bytes 2..9: words 0, 1 and 2
    (2, 3, 4, 1, [1, 1, -1, -1]),       # a 4-byte stream's one 3-byte access
    (4, 64, 64, 15, [15, 15, 15, 15]),  # words 1..16: four times round the banks
])
def test_access_holds_the_bank_of_every_word_its_bytes_touch(off, nbytes, size, extra, held):
    assert held == held_per_word(4, off, nbytes, extra)
    mem, _ = make_mem(banks=4)
    req = Request(mem.base + off, nbytes, False)
    assert outcome(mem.handle, req) == "ok" and req.at == extra
    assert mem.bank_busy == held
    streamed, _ = make_mem(banks=4)
    assert streamed.stream(streamed.base + off, nbytes, size, [0]) == (1, extra)
    assert streamed.bank_busy == held


def test_constant_access_latency_added():
    mem, _ = make_mem(latency=1)
    assert rd(mem, 0x10000000).at == 1


def test_misaligned_narrow_access_is_bus_error():
    mem, _ = make_mem()
    assert outcome(mem.handle, Request(0x10000002, 4, False)) == "error"
    assert outcome(mem.handle, Request(0x10000001, 2, False)) == "error"


def test_out_of_range_is_error():
    mem, _ = make_mem(size=0x1000)
    assert outcome(mem.handle, Request(0x10001000, 4, False)) == "error"


def test_poke_peek_roundtrip_no_counters():
    plat = build_minimal()
    mem = plat.lookup("ram")
    plat.poke(0x100, b"\x01\x02\x03\x04\x05\x06\x07\x08")
    assert plat.peek(0x100, 8) == b"\x01\x02\x03\x04\x05\x06\x07\x08"
    assert mem.contents[0x100:0x108] == b"\x01\x02\x03\x04\x05\x06\x07\x08"
    assert mem.reads == 0 and mem.writes == 0 and mem.contentions == 0


def test_peek_bounds():
    plat = build_minimal(ram={"size": 0x1000})
    plat.poke(0xFFF, b"\x5A")
    assert plat.peek(0xFFF, 1) == b"\x5A"
    with pytest.raises(ConfigError):
        plat.peek(0xFFF, 2)
    with pytest.raises(ConfigError):
        plat.poke(0xFFF, b"\x01\x02")
    with pytest.raises(ConfigError):
        plat.peek(0x1000, 1)
    assert plat.peek(0xFFF, 1) == b"\x5A"


def test_contention_monotone_in_bank_count_and_data_identical():
    rng = random.Random(9)
    trace = [(rng.randrange(0, 1024) << 2, rng.randrange(0, 2), rng.getrandbits(32))
             for _ in range(400)]
    finals = []
    contentions = []
    for banks in (8, 16, 32, 64):
        mem, dom = make_mem(banks=banks)
        cycle = 0
        for i, (off, is_write, value) in enumerate(trace):
            if i % 4 == 0:
                cycle += 1
                dom.cycle = cycle
            req = Request(0x10000000 + off, 4, bool(is_write), value=value)
            mem.handle(req)
        finals.append(bytes(mem.contents))
        contentions.append(mem.contentions)
    assert all(f == finals[0] for f in finals)
    assert contentions == sorted(contentions, reverse=True)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_stream_matches_word_requests_through_handle(data):
    """`stream` equals a `handle` loop over the same accesses, each issued at
    its explicit cycle, up to the first access `handle` refuses."""
    banks = data.draw(st.sampled_from([1, 2, 4, 16]), "banks")
    latency = data.draw(st.integers(0, 3), "access_latency")
    size = banks * 4 * data.draw(st.integers(1, 6))
    access = data.draw(st.integers(1, 12), "access size")
    nbytes = data.draw(st.integers(1, 60), "bytes")
    count = -(-nbytes // access)
    # first byte, from before the memory to past its end, at any alignment
    start = data.draw(st.integers(-16, size + 8), "start")
    # issue cycles in any order; the streaming devices' never go down
    cycles = data.draw(st.lists(st.integers(0, 50), max_size=count), "issue cycles")
    write = data.draw(st.booleans(), "write")
    busy = data.draw(st.lists(st.integers(-1, 60), min_size=banks, max_size=banks),
                     "bank_busy")
    contents = data.draw(st.binary(min_size=size, max_size=size))
    payload = data.draw(st.binary(min_size=nbytes, max_size=nbytes))

    now = data.draw(st.integers(0, 30), "domain cycle")
    streamed, handled, probe = (make_mem(banks, size, latency) for _ in range(3))
    for mem, dom in (streamed, handled, probe):
        dom.cycle = now
        mem.bank_busy = list(busy)
        mem.contents[:] = contents
    streamed, handled, probe = streamed[0], handled[0], probe[0]
    addr = streamed.base + start
    buf = bytearray(payload)

    def request(j, at):
        n = min(access, nbytes - access * j)
        req = Request(addr + access * j, n, write,
                      int.from_bytes(payload[access * j:access * j + n], "little"))
        req.at = at
        return req

    accepted = 0
    while accepted < count:
        if outcome(probe.handle, request(accepted, now)) != "ok":
            break
        accepted += 1
    assert streamed.accepted(addr, nbytes, access) == accepted

    got = streamed.stream(addr, nbytes, access, cycles, buf, write)
    want_served = want_waits = 0
    read = b""
    for j, at in enumerate(cycles):
        req = request(j, at)
        if outcome(handled.handle, req) != "ok":
            break
        want_served += 1
        want_waits += req.at - at
        read += req.value.to_bytes(req.size, "little")
    assert got == (want_served, want_waits)
    assert streamed.bank_busy == handled.bank_busy
    assert streamed.counters() == handled.counters()
    assert streamed.contents == handled.contents
    if not write:
        assert bytes(buf[:len(read)]) == read


def _model_access(mem, model, addr, size, write, value):
    """One request through `mem.handle`, mirrored on the bytearray `model`."""
    req = Request(addr, size, write, value)
    assert outcome(mem.handle, req) == "ok"
    off = addr - mem.base
    if write:
        model[off:off + size] = value.to_bytes(size, "little")
    else:
        assert req.value == int.from_bytes(model[off:off + size], "little")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_narrow_and_wide_payloads_match_a_byte_model(data):
    """Aligned narrow and wide (5..256 byte) requests move the bytes a flat
    model does, each read returning them as one little-endian `value`."""
    mem, dom = make_mem(banks=4, size=0x400)
    hyper = HyperRam(FakePlatform(), "hyper", {"base": 0x20000000, "size": 0x400}, dom)
    hyper.reset()
    ops = []
    for _ in range(data.draw(st.integers(1, 24), "ops")):
        if data.draw(st.booleans(), "wide"):
            size = data.draw(st.integers(5, 256), "size")
            off = data.draw(st.integers(0, 0x400 - size), "off")
        else:
            size = data.draw(st.sampled_from([1, 2, 4]), "size")
            off = size * data.draw(st.integers(0, 0x400 // size - 1), "slot")
        write = data.draw(st.booleans(), "write")
        value = data.draw(st.integers(0, (1 << (8 * size)) - 1), "value") if write else 0
        ops.append((off, size, write, value))
    model = bytearray(0x400)
    for off, size, write, value in ops:
        _model_access(mem, model, mem.base + off, size, write, value)
    assert mem.contents == model
    model = bytearray(0x400)
    for off, size, write, value in ops[:4]:
        _model_access(hyper, model, hyper.base + off, size, write, value)
    assert hyper.contents[:] == model
