"""Routers: address windows, latency, bandwidth occupancy; clock crossing math."""

import pytest
from hypothesis import example, given, settings, strategies as st

import pulpsim
from pulpsim.component import Request, bind, Component
from pulpsim.engine import TimeEngine, ClockDomain
from pulpsim.errors import ConfigError
from pulpsim.interconnect import Router, ClockCrossing

from conftest import outcome, pulp_descriptor
from reference_router import RefRouter


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
    router.build_windows()
    router.reset()
    return router, sink_a, sink_b, dom


def send(router, addr, size=4, at=0):
    """A request sent to `router`'s `in` handler at cycle `at`, and its outcome."""
    req = Request(addr, size, False)
    req.at = at
    return req, outcome(router.ports["in"].handler, req)


def test_windows_decode_in_mapping_order_to_each_range_end():
    router, sink_a, sink_b, _ = make_router(latency=0)
    for addr in (0x1000, 0x1FFF, 0x2000, 0x2FFF):
        assert send(router, addr)[1] == "ok"
    assert sink_a.seen == [0x1000, 0x1FFF] and sink_b.seen == [0x2000, 0x2FFF]
    for addr in (0x0FFF, 0x3000):
        assert send(router, addr)[1] == "error"
    assert router.forwarded == 4


def test_route_adds_latency_and_forwards():
    router, sink_a, sink_b, _ = make_router(latency=1)
    req, result = send(router, 0x1004, at=6)
    assert result == "ok" and req.at - 6 == 1
    assert sink_a.seen == [0x1004] and not sink_b.seen


@pytest.mark.parametrize("bandwidth", [0, 8])
def test_route_miss_changes_nothing(bandwidth):
    router, *_ = make_router(latency=2, bandwidth=bandwidth)
    send(router, 0x1000, size=64, at=3)            # a hit first: state to keep
    before = (router.forwarded, router.queued_cycles, router.busy_until)
    for addr in (0x0, 0x3000, 0x9000):
        req, result = send(router, addr, size=64, at=1)
        assert result == "error" and req.at == 1
    assert (router.forwarded, router.queued_cycles, router.busy_until) == before
    assert before == (1, 0, 11 if bandwidth else -1)


def test_a_miss_behind_a_router_is_charged_by_the_routers_before_it():
    # A forwards [0x1000, 0x3000) to B, whose one mapping [0x2000, 0x3000)
    # leaves 0x1000 unmapped: A counts and delays the request, B charges nothing
    eng = TimeEngine()
    dom = ClockDomain("clk", 400_000_000)
    eng.add_domain(dom)
    plat = FakePlatform()
    a = Router(plat, "a", {"latency": 3, "mappings": [
        {"base": 0x1000, "size": 0x2000, "port": "b"}]}, dom)
    b = Router(plat, "b", {"latency": 2, "bandwidth_bytes_per_cycle": 4, "mappings": [
        {"base": 0x2000, "size": 0x1000, "port": "sink"}]}, dom)
    sink = Sink(plat, "sink", {}, dom)
    bind(a.ports["b"], b.ports["in"])
    bind(b.ports["sink"], sink.ports["in"])
    a.build_windows()               # builds b's windows first
    a.reset()
    b.reset()
    req, result = send(a, 0x1000, size=16, at=5)
    assert result == "error" and req.at == 5 + 3
    assert a.forwarded == 1
    assert (b.forwarded, b.queued_cycles, b.busy_until) == (0, 0, -1)
    req, result = send(a, 0x2000, size=16, at=5)
    assert result == "ok" and req.at == 5 + 3 + 2 and sink.seen == [0x2000]
    assert (a.forwarded, b.forwarded, b.busy_until) == (2, 1, 8 + 4)


def test_bandwidth_queuing_back_to_back():
    router, *_ = make_router(latency=0, bandwidth=8)
    first, _ = send(router, 0x1000, size=32)
    second, _ = send(router, 0x1000, size=32)
    assert first.at == 0            # both issued at cycle 0
    assert second.at == 4           # queued behind 32B/8Bpc occupancy


def test_occupancy_conservation_over_interval():
    router, sink_a, _, dom = make_router(latency=0, bandwidth=8)
    total = 0
    for i in range(50):
        send(router, 0x1000, size=64)
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


@st.composite
def router_chains(draw):
    """1 to 3 routers, each with 1 to 3 mappings separated by gaps; all but
    the last router send one drawn mapping on to the next router."""
    chain = []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 3))
        base, mappings = draw(st.integers(0, 8)), []
        for _ in range(n):
            size = draw(st.integers(1, 64))
            mappings.append((base, size))
            base += size + draw(st.integers(0, 16))
        chain.append({"latency": draw(st.integers(0, 3)),
                      "bandwidth": draw(st.one_of(st.just(0), st.integers(1, 16))),
                      "mappings": mappings, "next": draw(st.integers(0, n - 1))})
    requests = draw(st.lists(st.tuples(st.integers(0, 230), st.integers(1, 64),
                                       st.integers(0, 60)), min_size=1, max_size=20))
    return chain, requests


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(router_chains())
def test_router_chains_match_the_reference_router(drawn):
    """Each request reaches the sink, at the cycle, and every router counts
    and holds what `RefRouter` gives; a miss anywhere is a `BusError`, at
    the cycle the request reached the router that refused it."""
    chain, requests = drawn
    eng = TimeEngine()
    dom = ClockDomain("clk", 400_000_000)
    eng.add_domain(dom)
    plat = FakePlatform()
    routers, refs, sinks = [], [], {}
    for i, r in enumerate(chain):
        routers.append(Router(plat, "r%d" % i, {
            "latency": r["latency"], "bandwidth_bytes_per_cycle": r["bandwidth"],
            "mappings": [{"base": base, "size": size, "port": "p%d" % j}
                         for j, (base, size) in enumerate(r["mappings"])]}, dom))
    ref = None
    for i in reversed(range(len(chain))):
        r = chain[i]
        targets = []
        for j in range(len(r["mappings"])):
            if j == r["next"] and i + 1 < len(chain):
                bind(routers[i].ports["p%d" % j], routers[i + 1].ports["in"])
                targets.append(ref)
            else:
                name = "r%d.p%d" % (i, j)
                sinks[name] = Sink(plat, name, {}, dom)
                bind(routers[i].ports["p%d" % j], sinks[name].ports["in"])
                targets.append(name)
        ref = RefRouter(r["latency"], r["bandwidth"],
                        [(base, size, t) for (base, size), t in zip(r["mappings"], targets)])
        refs.insert(0, ref)
    routers[0].build_windows()
    for router in routers:
        router.reset()
    for addr, size, at in requests:
        want_at, want_sink = refs[0].handle(addr, size, at)
        req, result = send(routers[0], addr, size, at)
        reached = [name for name, sink in sinks.items() if sink.seen]
        assert result == ("error" if want_sink is None else "ok")
        assert (req.at, reached) == (want_at, [want_sink] if want_sink else [])
        for sink in sinks.values():
            sink.seen.clear()
        for router, r in zip(routers, refs):
            assert (router.forwarded, router.queued_cycles, router.busy_until) == (
                r.forwarded, r.queued_cycles, r.busy_until)


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
