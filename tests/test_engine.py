"""Clock engine tests: ring-buffer placement, overflow, cross-domain
scheduling, reset, time math."""

import random
from collections import Counter

import pytest

from pulpsim.engine import (TimeEngine, ClockDomain, Event, EXIT_IDLE, EXIT_TIMEOUT,
                            PS_PER_SEC)
from pulpsim.errors import StructuralError

from conftest import add_ticker
from reference_engine import GlobalTimeQueueEngine, OrderedQueueEngine


def make_domain(window=8, freq=400_000_000):
    eng = TimeEngine()
    dom = ClockDomain("clk", freq, event_window=window)
    eng.add_domain(dom)
    return eng, dom


def at_cycle(eng, dom, cycle):
    """Put the engine at an edge of `dom`, as if it had just executed it."""
    dom.cycle = cycle
    eng.now_ps = dom.time_of_cycle(cycle)


def test_slot_placement_modular():
    eng, dom = make_domain(window=8)
    at_cycle(eng, dom, 5)
    ev = Event("t", lambda e: None)
    dom.enqueue(ev, 3)
    assert ev.cycle == 8
    assert ev in dom._slots[(5 + 3) % 8]
    assert not dom._overflow


def test_enqueue_beyond_window_goes_to_overflow():
    eng, dom = make_domain(window=8)
    at_cycle(eng, dom, 5)
    ev = Event("t", lambda e: None)
    dom.enqueue(ev, 10)
    assert not any(ev in lst for lst in dom._slots)
    assert dom._overflow[0][0] == 15 and dom._overflow[0][2] is ev


def test_delta_zero_executes_same_cycle():
    eng, dom = make_domain()
    log = []
    inner = Event("t", lambda e: log.append(("inner", dom.cycle)))

    def outer_cb(e):
        log.append(("outer", dom.cycle))
        dom.enqueue(inner, 0)

    dom.enqueue(Event("t", outer_cb), 4)
    eng.run()
    assert log == [("outer", 4), ("inner", 4)]


def test_double_enqueue_is_structural_error():
    _, dom = make_domain()
    ev = Event("t", lambda e: None)
    dom.enqueue(ev, 1)
    with pytest.raises(StructuralError):
        dom.enqueue(ev, 2)


def test_same_cycle_events_run_before_next_cycle():
    eng, dom = make_domain()
    log = []
    dom.enqueue(Event("a", lambda e: log.append("a")), 9)
    dom.enqueue(Event("b", lambda e: log.append("b")), 9)
    dom.enqueue(Event("c", lambda e: log.append("c")), 10)
    eng.run()
    assert log == ["a", "b", "c"]


def test_overflow_promoted_on_lap_boundary():
    # event at cycle 15 with Tw=8 waits in overflow until the 8..16 lap opens
    eng, dom = make_domain(window=8)
    seen = []
    dom.enqueue(Event("far", lambda e: seen.append(dom.cycle)), 15)
    dom.enqueue(Event("near", lambda e: None), 1)
    assert dom._overflow
    eng.run()
    assert seen == [15]
    assert dom.overflow_promotions == 1


def test_run_returns_idle_on_empty_platform():
    eng, _ = make_domain()
    assert eng.run() == EXIT_IDLE


def test_exit_status_stops_run():
    eng, dom = make_domain()

    def cb(e):
        eng.post_exit(3)

    dom.enqueue(Event("t", cb), 2)
    assert eng.run() == 3


def test_timeout_on_cap():
    eng, dom = make_domain()
    ev = Event("loop", None)
    ev.callback = lambda e: dom.enqueue(ev, 1)
    dom.enqueue(ev, 0)
    assert eng.run(max_cycles=1000) == EXIT_TIMEOUT
    # the 1000th executed cycle is index 999; time stopped exactly there
    assert dom.cycle == 999
    assert eng.now_ps == 999 * dom.period_ps


def test_global_time_of_cycle():
    _, dom = make_domain(freq=400_000_000)
    assert dom.period_ps == 2500
    assert dom.time_of_cycle(20) == 50_000
    dom2 = ClockDomain("slow", 200_000_000)
    assert dom2.time_of_cycle(10) == 50_000
    assert dom2.time_of_cycle(0) == 0


def test_cycle_at_or_after_ceiling():
    dom = ClockDomain("slow", 200_000_000)
    assert dom.cycle_at_or_after(50_000) == 10
    assert dom.cycle_at_or_after(50_001) == 11
    assert dom.cycle_at_or_after(0) == 0


def test_time_conversion_random_roundtrip():
    rng = random.Random(7)
    freqs = [f for f in (1_000_000, 2_500_000, 10_000_000, 100_000_000,
                         200_000_000, 250_000_000, 400_000_000, 500_000_000,
                         1_000_000_000)]
    for _ in range(10_000):
        f = rng.choice(freqs)
        dom = ClockDomain("d", f)
        cyc = rng.randrange(0, 10**7)
        t = dom.time_of_cycle(cyc)
        assert t == dom.period_ps * cyc
        assert dom.cycle_at_or_after(t) == cyc
        t2 = t + rng.randrange(1, dom.period_ps)
        assert dom.cycle_at_or_after(t2) == cyc + 1
        assert dom.time_of_cycle(dom.cycle_at_or_after(t2)) >= t2


def test_non_integral_period_rejected():
    with pytest.raises(ValueError):
        ClockDomain("bad", 333_333_333)


def _run_schedule_pair(seed, window):
    """Drive the real engine and the ordered-queue oracle with one workload."""
    rng = random.Random(seed)
    n_initial = rng.randrange(5, 40)
    initial = [(rng.randrange(0, 10 * window), i) for i in range(n_initial)]

    def spawn(eid):
        # pure function of the event id, so both engines see the same tree
        r = random.Random((seed << 24) ^ eid)
        kids = []
        if eid < (1 << 22) and r.random() < 0.45:
            for k in range(r.randrange(1, 3)):
                kids.append((r.randrange(0, 10 * window), (eid << 3) | (k + 1)))
        return kids

    ref = OrderedQueueEngine()
    for delta, eid in initial:
        ref.schedule(eid, delta)
    ref_log = ref.run(spawn)

    eng = TimeEngine()
    dom = ClockDomain("clk", 400_000_000, event_window=window)
    eng.add_domain(dom)
    log = []

    def cb(e):
        log.append((dom.cycle, e.payload))
        for delta, child in spawn(e.payload):
            dom.enqueue(Event("t", cb, child), delta)

    for delta, eid in initial:
        dom.enqueue(Event("t", cb, eid), delta)
    eng.run()
    return ref_log, log


@pytest.mark.parametrize("window", [1, 8, 64])
def test_schedule_equivalence_with_ordered_queue(window):
    for seed in range(60):
        ref_log, log = _run_schedule_pair(seed * 31 + window, window)
        ref_cycles = Counter()
        for cycle, eid in ref_log:
            ref_cycles[cycle, eid] += 1
        got_cycles = Counter()
        for cycle, eid in log:
            got_cycles[cycle, eid] += 1
        assert got_cycles == ref_cycles


def test_determinism_same_schedule_same_order():
    a = _run_schedule_pair(123, 8)[1]
    b = _run_schedule_pair(123, 8)[1]
    assert a == b


def test_multi_domain_interleaving_by_global_time():
    eng = TimeEngine()
    fast = ClockDomain("fast", 400_000_000)   # 2500 ps
    slow = ClockDomain("slow", 100_000_000)   # 10000 ps
    eng.add_domain(fast)
    eng.add_domain(slow)
    order = []
    fast.enqueue(Event("f", lambda e: order.append(("f", eng.now_ps))), 1)   # 2500
    slow.enqueue(Event("s", lambda e: order.append(("s", eng.now_ps))), 1)   # 10000
    fast.enqueue(Event("f2", lambda e: order.append(("f2", eng.now_ps))), 5)  # 12500
    eng.run()
    assert order == [("f", 2500), ("s", 10000), ("f2", 12500)]
    assert eng.now_ps == 12500


def test_cross_domain_synced_enqueue_never_in_past():
    eng = TimeEngine()
    fast = ClockDomain("fast", 400_000_000)
    slow = ClockDomain("slow", 100_000_000)
    eng.add_domain(fast)
    eng.add_domain(slow)
    hits = []

    def wake_slow(e):
        # the slow counter is stale here; enqueue counts from the first slow
        # edge at or after the engine's time
        ev = Event("w", lambda ev: hits.append(eng.now_ps))
        slow.enqueue(ev, 1)
        assert slow.cycle == 0
        assert ev.cycle == slow.cycle_at_or_after(eng.now_ps) + 1
        assert slow.time_of_cycle(ev.cycle) >= eng.now_ps

    fast.enqueue(Event("k", wake_slow), 33)     # 82500 ps, not a slow edge
    eng.run()
    assert hits and hits[0] >= 82500


# 400 MHz and 160 MHz: edges coincide every 12500 ps (5 and 2 cycles)
TWO_DOMAINS = (("fast", 400_000_000), ("slow", 160_000_000))


def _run_two_domain_pair(seed, window):
    """Random schedules where every event may spawn into either domain.

    Returns the reference log, the engine log and the engine's
    (now_ps at enqueue, edge time of the enqueued cycle) pairs.
    """
    rng = random.Random(seed)
    initial = [(rng.randrange(2), rng.randrange(0, 4 * window), i)
               for i in range(rng.randrange(4, 24))]

    def spawn(eid):
        r = random.Random((seed << 24) ^ eid)
        kids = []
        if eid < (1 << 20) and r.random() < 0.45:
            for k in range(r.randrange(1, 3)):
                kids.append((r.randrange(2), r.randrange(0, 4 * window),
                             (eid << 3) | (k + 1)))
        return kids

    ref = GlobalTimeQueueEngine([PS_PER_SEC // f for _, f in TWO_DOMAINS])
    for d, delta, eid in initial:
        ref.schedule(d, eid, delta)
    ref_log = ref.run(spawn)

    eng = TimeEngine()
    doms = [eng.add_domain(ClockDomain(n, f, event_window=window)) for n, f in TWO_DOMAINS]
    log = []
    placed = []

    def cb(e):
        d, eid = e.payload
        log.append((d, doms[d].cycle, eid))
        for child_d, delta, child in spawn(eid):
            ev = Event("t", cb, (child_d, child))
            doms[child_d].enqueue(ev, delta)
            placed.append((eng.now_ps, doms[child_d].time_of_cycle(ev.cycle)))

    for d, delta, eid in initial:
        doms[d].enqueue(Event("t", cb, (d, eid)), delta)
    eng.run()
    return ref_log, log, placed


@pytest.mark.parametrize("window", [1, 8, 64])
def test_cross_domain_enqueue_matches_global_time_queue(window):
    for seed in range(40):
        ref_log, log, placed = _run_two_domain_pair(seed * 17 + window, window)
        assert Counter(log) == Counter(ref_log)
        assert all(at >= now for now, at in placed)


def _capped_run(eng, fast, slow, log):
    """A fast loop, a slow overflow event and a cross-domain ping, capped."""
    tick = Event("tick", None)

    def on_tick(e):
        log.append(("tick", eng.now_ps))
        fast.enqueue(tick, 3)
        if fast.cycle % 7 == 0:
            slow.enqueue(Event("ping", lambda ev: log.append(("ping", eng.now_ps))), 1)

    tick.callback = on_tick
    fast.enqueue(tick, 0)
    slow.enqueue(Event("far", lambda ev: log.append(("far", eng.now_ps))), 50)
    return eng.run(max_cycles=100)


def test_reset_rewinds_time_and_drops_pending_events():
    eng = TimeEngine()
    fast = eng.add_domain(ClockDomain("fast", 400_000_000, event_window=8))
    slow = eng.add_domain(ClockDomain("slow", 100_000_000, event_window=8))
    first = []
    assert _capped_run(eng, fast, slow, first) == EXIT_TIMEOUT
    pending = [ev for d in (fast, slow) for lst in d._slots for ev in lst]
    pending += [entry[2] for d in (fast, slow) for entry in d._overflow]
    assert any(ev.owner == "far" for ev in pending)     # still in overflow

    eng.reset()
    assert eng.now_ps == 0 and eng.exit_status is None
    assert all(not ev.enqueued for ev in pending)
    for d in (fast, slow):
        assert d.cycle == 0 and d.next_pending_cycle() is None
    assert eng.stats() == {"events_executed": 0, "laps_completed": 0,
                           "overflow_promotions": 0}
    assert eng.run() == EXIT_IDLE

    eng.reset()
    again = []
    assert _capped_run(eng, fast, slow, again) == EXIT_TIMEOUT
    assert again == first
    fresh_eng = TimeEngine()
    fresh = [fresh_eng.add_domain(ClockDomain(d.name, d.frequency_hz, event_window=8))
             for d in (fast, slow)]
    _capped_run(fresh_eng, *fresh, [])
    assert eng.stats() == fresh_eng.stats()


# -- run-ahead: a callback alone in its domain and due before the horizon
#    moves on inline (engine module docstring) --------------------------------

def _stepper(dom, log, deltas, on_step=None):
    """An event that steps through `deltas` and runs ahead like the cores do.

    Logs ("call",) per callback and ("step", cycle, now_ps) per step."""
    todo = list(deltas)

    def cb(ev):
        log.append(("call",))
        while True:
            log.append(("step", dom.cycle, dom.engine.now_ps))
            if on_step is not None:
                on_step(dom.cycle)
            if not todo:
                return
            d = todo.pop(0)
            nxt = dom.cycle + d
            if nxt >= dom.horizon_cycle or not dom.run_ahead(nxt, d):
                dom.enqueue(ev, d)
                return

    return Event("stepper", cb)


def _both_ways(build, max_cycles=None):
    """Run `build(eng, log)` with and without a ticker; returns both results."""
    out = []
    for ticked in (False, True):
        eng = TimeEngine()
        log = []
        doms = build(eng, log)
        if ticked:
            add_ticker(eng)
        status = eng.run(max_cycles=max_cycles)
        out.append((status, eng.now_ps, [d.cycle for d in doms],
                    [(d.events_executed, d.laps_completed, d.overflow_promotions)
                     for d in doms], log))
    return out


def _steps(log):
    """The simulated happenings of a log: what ran, at which cycle and time."""
    return [entry for entry in log if entry[0] not in ("call", "horizon")]


def test_horizon_is_minus_one_outside_a_run():
    eng, dom = make_domain()
    seen = []
    dom.enqueue(Event("t", lambda e: seen.append(eng.horizon_ps)), 0)
    assert eng.horizon_ps == -1
    eng.run(max_cycles=10)
    assert seen == [10 * dom.period_ps]     # alone: capped by the deadline
    assert dom.horizon_cycle == 10
    assert eng.horizon_ps == -1


def test_run_ahead_keeps_timing_and_counters():
    def build(eng, log):
        dom = eng.add_domain(ClockDomain("clk", 400_000_000, event_window=8))
        dom.enqueue(_stepper(dom, log, [3, 1, 9, 2, 8, 20, 1, 5]), 0)
        return [dom]

    (status, now, cycles, counters, log), ref = _both_ways(build)
    assert (status, now, cycles, counters) == ref[:4]
    assert _steps(log) == _steps(ref[4])
    assert log.count(("call",)) == 1            # every step after the first ran ahead
    assert ref[4].count(("call",)) == 9
    assert counters[0][2] == 3                  # the 9, 8 and 20 reach past the ring


def test_run_ahead_ring_wrap_event_runs_at_its_own_cycle():
    # from cycle 3 an event 5 cycles on lands at 8, the slot of cycle 0 whose
    # list execute_cycle is still iterating
    def build(eng, log):
        dom = eng.add_domain(ClockDomain("clk", 400_000_000, event_window=8))
        other = Event("other", lambda e: log.append(("other", dom.cycle, eng.now_ps)))

        def on_step(cycle):
            if cycle == 3:
                dom.enqueue(other, 5)

        dom.enqueue(_stepper(dom, log, [3, 3, 3, 3], on_step), 0)
        return [dom]

    plain, ref = _both_ways(build)
    assert ("other", 8, 8 * 2500) in plain[4]
    assert _steps(plain[4]) == _steps(ref[4])
    assert plain[:4] == ref[:4]


def test_exit_posted_during_run_ahead():
    def build(eng, log):
        dom = eng.add_domain(ClockDomain("clk", 400_000_000, event_window=8))

        def on_step(cycle):
            if cycle == 9:
                eng.post_exit(7)

        dom.enqueue(_stepper(dom, log, [3] * 10, on_step), 0)
        return [dom]

    plain, ref = _both_ways(build)
    assert plain[0] == 7 and plain[1] == 9 * 2500 and plain[2] == [9]
    assert plain[4].count(("call",)) == 1
    assert _steps(plain[4]) == _steps(ref[4])
    assert plain[:4] == ref[:4]


def test_deadline_inside_run_ahead_times_out_at_the_same_time():
    def build(eng, log):
        dom = eng.add_domain(ClockDomain("clk", 400_000_000, event_window=8))
        dom.enqueue(_stepper(dom, log, [3] * 10), 0)
        return [dom]

    plain, ref = _both_ways(build, max_cycles=10)
    assert plain[0] == EXIT_TIMEOUT and plain[1] == 9 * 2500
    assert plain[4].count(("call",)) == 1
    assert _steps(plain[4]) == _steps(ref[4])
    assert plain[:4] == ref[:4]


def test_cross_domain_enqueue_stops_run_ahead_before_the_event():
    # at fast cycle 3 (7500 ps) the stepper schedules a slow event at slow
    # cycle 2 (20000 ps, fast cycle 8): run-ahead stops before cycle 8
    def build(eng, log):
        fast = eng.add_domain(ClockDomain("fast", 400_000_000, event_window=8))
        slow = eng.add_domain(ClockDomain("slow", 100_000_000, event_window=8))
        ping = Event("ping", lambda e: log.append(("ping", slow.cycle, eng.now_ps)))

        def on_step(cycle):
            if cycle == 3:
                slow.enqueue(ping, 1)
                log.append(("horizon", eng.horizon_ps, fast.horizon_cycle))

        fast.enqueue(_stepper(fast, log, [1] * 10, on_step), 0)
        return [fast, slow]

    plain, ref = _both_ways(build)
    log = plain[4]
    assert ("horizon", 20000, 8) in log
    steps = _steps(log)
    assert steps.index(("ping", 2, 20000)) == steps.index(("step", 8, 20000)) + 1
    assert log.index(("step", 7, 17500)) < log.index(("call",), 1) < log.index(("step", 8, 20000))
    assert steps == _steps(ref[4])
    assert plain[:4] == ref[:4]
