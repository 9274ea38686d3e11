"""Routers: decode, latency, bandwidth occupancy; clock crossing math."""

import pytest
from hypothesis import example, given, settings, strategies as st

import pulpsim
from pulpsim.component import Request, bind, Component
from pulpsim.engine import TimeEngine, ClockDomain
from pulpsim.errors import ConfigError
from pulpsim.interconnect import Router, ClockCrossing, decode

from conftest import outcome, pulp_descriptor


class Sink(Component):
    kind = "test-sink"

    def build(self):
        self.add_slave("in", self.handle)
        self.seen = []

    def handle(self, req):
        self.seen.append(req.addr)


class Master(Component):
    kind = "test-master"

    def build(self):
        self.add_master("out")


class FakePlatform:
    def bind(self, master, slave):
        bind(master, slave)


def make_router(latency=1, bandwidth=0):
    eng = TimeEngine()
    dom = ClockDomain("clk", 400_000_000)
    eng.add_domain(dom)
    plat = FakePlatform()
    router = Router(plat, "rt", {
        "latency": latency, "bandwidth_bytes_per_cycle": bandwidth,
        "mappings": [
            {"base": 0x1000, "size": 0x1000, "port": "a"},
            {"base": 0x2000, "size": 0x1000, "port": "b"},
        ]}, dom)
    sink_a = Sink(plat, "a", {}, dom)
    sink_b = Sink(plat, "b", {}, dom)
    bind(router.ports["a"], sink_a.ports["in"])
    bind(router.ports["b"], sink_b.ports["in"])
    router.reset()
    return router, sink_a, sink_b, dom


def test_decode_pure():
    maps = [(0x1000, 0x1000, "a"), (0x2000, 0x1000, "b")]
    assert decode(maps, 0x1000) == "a"
    assert decode(maps, 0x1FFF) == "a"
    assert decode(maps, 0x2000) == "b"
    assert decode(maps, 0x3000) is None


def test_route_adds_latency_and_forwards():
    router, sink_a, sink_b, _ = make_router(latency=1)
    req = Request(0x1004, 4, False)
    req.at = 6
    router.handle(req)
    assert req.at - 6 == 1
    assert sink_a.seen == [0x1004] and not sink_b.seen


def test_route_miss_is_bus_error_without_occupancy():
    router, *_ = make_router(latency=1, bandwidth=8)
    req = Request(0x9000, 4, False)
    assert outcome(router.handle, req) == "error"
    assert router.busy_until == -1


def test_bandwidth_queuing_back_to_back():
    router, *_ = make_router(latency=0, bandwidth=8)
    first = Request(0x1000, 32, False)
    second = Request(0x1000, 32, False)
    router.handle(first)
    router.handle(second)
    assert first.at == 0            # both issued at cycle 0
    assert second.at == 4           # queued behind 32B/8Bpc occupancy


def test_occupancy_conservation_over_interval():
    router, sink_a, _, dom = make_router(latency=0, bandwidth=8)
    total = 0
    for i in range(50):
        req = Request(0x1000, 64, False)
        router.handle(req)
        total += 64
    # all 50 requests are issued at cycle 0; the last one completes no
    # earlier than bytes/bandwidth cycles later
    assert router.busy_until >= total // 8 - 1


def test_mapping_overlap_rejected():
    eng = TimeEngine()
    dom = ClockDomain("clk", 400_000_000)
    eng.add_domain(dom)
    with pytest.raises(ConfigError):
        Router(FakePlatform(), "rt", {
            "latency": 1,
            "mappings": [
                {"base": 0x1000, "size": 0x1000, "port": "a"},
                {"base": 0x1800, "size": 0x1000, "port": "b"},
            ]}, dom)


def make_crossing(src_freq, dst_freq, crossing_latency=0, sink_in_src=False):
    eng = TimeEngine()
    src = ClockDomain("src", src_freq)
    dst = ClockDomain("dst", dst_freq)
    eng.add_domain(src)
    eng.add_domain(dst)
    plat = FakePlatform()
    xing = ClockCrossing(plat, "xing", {"crossing_latency": crossing_latency}, dst)
    sink = Sink(plat, "sink", {}, src if sink_in_src else dst)
    plat.bind(Master(plat, "m", {}, src).ports["out"], xing.ports["in"])
    plat.bind(xing.ports["out"], sink.ports["in"])
    xing.finalize()
    xing.reset()
    return xing, src, dst, sink


def test_crossing_aligns_to_next_destination_edge():
    # 200 MHz -> 400 MHz: a request leaving at 50001 ps starts at dst cycle 21
    xing, src, dst, _ = make_crossing(200_000_000, 400_000_000)
    # place source at cycle 10 (50000 ps) and give the request 1 ps... the
    # source clock only has integral edges, so model it via accumulated
    # latency instead: at source cycle 9, latency 1 -> leaves at 50000 ps
    src.cycle = 10
    req = Request(0x0, 4, False)
    xing.handle(req)
    # left at exactly 50000 ps; that is dst cycle 20 (exact edge)
    assert dst.cycle_at_or_after(50000) == 20

    # oracle for the 50001 ps case from the conversion helpers themselves
    assert dst.cycle_at_or_after(50001) == 21
    assert dst.time_of_cycle(21) == 52500


# clock frequencies with an integral period in ps: 2**a * 5**b Hz
FREQUENCIES = st.builds(lambda a, b: 2 ** a * 5 ** b, st.integers(0, 12), st.integers(0, 12))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(src_freq=FREQUENCIES, dst_freq=FREQUENCIES, crossing_latency=st.integers(0, 3),
       issue=st.integers(0, 10 ** 6), delay=st.integers(0, 50),
       src_cycle=st.integers(0, 10 ** 6), dst_cycle=st.integers(0, 10 ** 6))
@example(src_freq=100_000_000, dst_freq=400_000_000, crossing_latency=0,
         issue=0, delay=7, src_cycle=0, dst_cycle=0)
def test_crossing_roundtrip_latency_in_source_cycles(src_freq, dst_freq, crossing_latency,
                                                      issue, delay, src_cycle, dst_cycle):
    """A request issued at source cycle `issue` meets `delay` destination
    cycles of service and returns at the first source edge at or after
    their end, never before `issue`; the domains' counters, here stale
    values, play no part."""
    class Delay(Component):
        kind = "test-delay"

        def build(self):
            self.add_slave("in", self.handle)

        def handle(self, req):
            self.seen = req.at
            req.at += delay     # destination-side cycles

    eng = TimeEngine()
    src = ClockDomain("src", src_freq)
    dst = ClockDomain("dst", dst_freq)
    eng.add_domain(src)
    eng.add_domain(dst)
    plat = FakePlatform()
    xing = ClockCrossing(plat, "xing", {"crossing_latency": crossing_latency}, dst)
    sink = Delay(plat, "d", {}, dst)
    plat.bind(Master(plat, "m", {}, src).ports["out"], xing.ports["in"])
    plat.bind(xing.ports["out"], sink.ports["in"])
    xing.finalize()
    xing.reset()
    src.cycle, dst.cycle = src_cycle, dst_cycle

    req = Request(0x0, 4, False)
    req.at = issue
    xing.handle(req)
    # served at the first destination edge at or after the request leaves
    arrived = dst.cycle_at_or_after(src.time_of_cycle(issue)) + crossing_latency
    assert sink.seen == xing.arrival(issue) == arrived
    done_ps = dst.time_of_cycle(arrived + delay)
    assert req.at == max(issue, src.cycle_at_or_after(done_ps))
    # the source-side completion covers the destination-side one
    assert src.time_of_cycle(req.at) >= done_ps
    if (src_freq, dst_freq, crossing_latency, issue, delay) == (
            100_000_000, 400_000_000, 0, 0, 7):
        assert req.at == 2      # 7 fast cycles = 17500 ps: 2 source cycles of 10000 ps


def test_crossing_takes_its_source_domain_from_its_masters():
    xing, src, dst, _ = make_crossing(100_000_000, 400_000_000)
    assert xing.src is src and xing.domain is dst


def test_crossing_refuses_masters_from_two_domains():
    xing, src, dst, _ = make_crossing(100_000_000, 400_000_000)
    xing.platform.bind(Master(xing.platform, "m2", {}, dst).ports["out"], xing.ports["in"])
    with pytest.raises(ConfigError, match="components.xing: masters from domains "
                                          "'dst', 'src' bound to its in"):
        xing.finalize()


def test_crossing_refuses_to_deliver_outside_its_domain():
    with pytest.raises(ConfigError, match="components.xing: out bound to "
                                          "sink in domain 'src', not in its domain 'dst'"):
        make_crossing(100_000_000, 400_000_000, sink_in_src=True)


def test_a_loop_of_crossings_is_refused_at_build():
    # udma_xing's out bound to a second crossing, whose out is bound back to
    # udma_xing's in: the micro-DMA's walk to L2 would never end
    doc = pulp_descriptor()
    doc["components"]["xing2"] = {"kind": "clock-crossing", "domain": "soc", "params": {}}
    doc["bindings"].remove(["udma_xing.out", "l2.in"])
    doc["bindings"] += [["udma_xing.out", "xing2.in"], ["xing2.out", "udma_xing.in"]]
    with pytest.raises(ConfigError, match="loops: udma_xing -> xing2 -> udma_xing$"):
        pulpsim.build(doc)
