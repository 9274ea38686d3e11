"""Clock engine tests: due cycles and order, far events, cross-domain
scheduling, run-ahead, the lap counters, reset, time math."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from pulpsim.engine import (TimeEngine, ClockDomain, Event, EXIT_IDLE, EXIT_TIMEOUT,
                            PS_PER_SEC, _FAR)
from pulpsim.errors import StructuralError

from conftest import add_ticker
from reference_engine import GlobalTimeQueueEngine, OrderedQueueEngine


def make_domain(freq=400_000_000):
    eng = TimeEngine()
    dom = ClockDomain("clk", freq)
    eng.add_domain(dom)
    return eng, dom


def at_cycle(eng, dom, cycle):
    """Put the engine at an edge of `dom`, as if it had just executed it."""
    dom.cycle = cycle
    eng.now_ps = dom.time_of_cycle(cycle)


def test_enqueue_due_cycle():
    eng, dom = make_domain()
    at_cycle(eng, dom, 5)
    seen = []
    near = Event("near", lambda e: seen.append(("near", dom.cycle)))
    far = Event("far", lambda e: seen.append(("far", dom.cycle)))
    dom.enqueue(far, 300)
    dom.enqueue(near, 3)
    assert (near.cycle, far.cycle) == (8, 305)
    assert dom.next_pending_cycle() == 8
    eng.run()
    assert seen == [("near", 8), ("far", 305)]
    assert not near.enqueued and not far.enqueued


def test_far_events_run_in_order():
    # deltas on both sides of 64 cycles, and several laps apart
    eng, dom = make_domain()
    seen = []
    deltas = [1000, 64, 63, 65, 128, 0, 127, 64, 700, 1]
    for i, delta in enumerate(deltas):
        dom.enqueue(Event(str(i), lambda e: seen.append((dom.cycle, e.payload)), i), delta)
    eng.run()
    assert seen == sorted((delta, i) for i, delta in enumerate(deltas))


def test_events_of_one_cycle_run_in_insertion_order():
    # "a" is put a lap ahead, "b" for the same cycle once it is near and
    # "c" from a callback of that cycle
    eng, dom = make_domain()
    seen = []

    def b_cb(e):
        seen.append("b")
        dom.enqueue(Event("c", lambda e: seen.append("c")), 0)

    def put_b(e):
        dom.enqueue(Event("b", b_cb), 100 - dom.cycle)

    dom.enqueue(Event("a", lambda e: seen.append("a")), 100)
    dom.enqueue(Event("put-b", put_b), 50)
    eng.run()
    assert seen == ["a", "b", "c"]
    assert dom.cycle == 100


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


def _delta(rng, span):
    """Mostly below `span`, sometimes one to five laps of 64 cycles."""
    return rng.randrange(0, span) if rng.random() < 0.85 else rng.randrange(64, 320)


def _run_schedule_pair(seed, span):
    """Drive the real engine and the ordered-queue oracle with one workload."""
    rng = random.Random(seed)
    n_initial = rng.randrange(5, 40)
    initial = [(_delta(rng, 10 * span), i) for i in range(n_initial)]

    def spawn(eid):
        # pure function of the event id, so both engines see the same tree
        r = random.Random((seed << 24) ^ eid)
        kids = []
        if eid < (1 << 22) and r.random() < 0.45:
            for k in range(r.randrange(1, 3)):
                kids.append((_delta(r, 10 * span), (eid << 3) | (k + 1)))
        return kids

    ref = OrderedQueueEngine()
    for delta, eid in initial:
        ref.schedule(eid, delta)
    ref_log = ref.run(spawn)

    eng = TimeEngine()
    dom = ClockDomain("clk", 400_000_000)
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


@pytest.mark.parametrize("span", [1, 8, 64])
def test_schedule_equivalence_with_ordered_queue(span):
    # one domain runs a cycle's events in insertion order, like the oracle
    for seed in range(60):
        ref_log, log = _run_schedule_pair(seed * 31 + span, span)
        assert log == ref_log


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


def _run_two_domain_pair(seed, span):
    """Random schedules where every event may spawn into either domain.

    Returns the reference log, the engine log and, per enqueue, the
    engine's now_ps, the edge time of the enqueued cycle and whether it
    went into a sleeping domain (no pending event, counter stale) at least
    64 cycles past that domain's counter.
    """
    rng = random.Random(seed)
    initial = [(rng.randrange(2), _delta(rng, 4 * span), i)
               for i in range(rng.randrange(4, 24))]

    def spawn(eid):
        r = random.Random((seed << 24) ^ eid)
        kids = []
        if eid < (1 << 20) and r.random() < 0.45:
            for k in range(r.randrange(1, 3)):
                kids.append((r.randrange(2), _delta(r, 4 * span),
                             (eid << 3) | (k + 1)))
        return kids

    ref = GlobalTimeQueueEngine([PS_PER_SEC // f for _, f in TWO_DOMAINS])
    for d, delta, eid in initial:
        ref.schedule(d, eid, delta)
    ref_log = ref.run(spawn)

    eng = TimeEngine()
    doms = [eng.add_domain(ClockDomain(n, f)) for n, f in TWO_DOMAINS]
    log = []
    placed = []

    def cb(e):
        d, eid = e.payload
        log.append((d, doms[d].cycle, eid))
        for child_d, delta, child in spawn(eid):
            ev = Event("t", cb, (child_d, child))
            target = doms[child_d]
            asleep = target is not eng.current and target.next_pending_cycle() is None
            target.enqueue(ev, delta)
            placed.append((eng.now_ps, target.time_of_cycle(ev.cycle),
                           asleep and ev.cycle - target.cycle >= 64))

    for d, delta, eid in initial:
        doms[d].enqueue(Event("t", cb, (d, eid)), delta)
    eng.run()
    return ref_log, log, placed


@pytest.mark.parametrize("span", [1, 8, 64])
def test_cross_domain_enqueue_matches_global_time_queue(span):
    far_wakeups = 0
    for seed in range(40):
        ref_log, log, placed = _run_two_domain_pair(seed * 17 + span, span)
        assert Counter(log) == Counter(ref_log)
        assert all(at >= now for now, at, _ in placed)
        far_wakeups += sum(far for _, _, far in placed)
    assert far_wakeups > 0


def _capped_run(eng, fast, slow, log, made):
    """A fast loop, a far slow event and cross-domain pings, capped.

    Every event it creates is appended to `made`."""
    tick = Event("tick", None)

    def on_tick(e):
        log.append(("tick", eng.now_ps))
        fast.enqueue(tick, 3)
        if fast.cycle % 7 == 0:
            ping = Event("ping", lambda ev: log.append(("ping", eng.now_ps)))
            made.append(ping)
            slow.enqueue(ping, 1)

    tick.callback = on_tick
    far = Event("far", lambda ev: log.append(("far", eng.now_ps)))
    made.extend([tick, far])
    fast.enqueue(tick, 0)
    slow.enqueue(far, 100)
    return eng.run(max_cycles=100)


def test_reset_rewinds_time_and_drops_pending_events():
    eng = TimeEngine()
    fast = eng.add_domain(ClockDomain("fast", 400_000_000))
    slow = eng.add_domain(ClockDomain("slow", 100_000_000))
    first, made = [], []
    assert _capped_run(eng, fast, slow, first, made) == EXIT_TIMEOUT
    pending = [ev for ev in made if ev.enqueued]
    assert any(ev.owner == "far" for ev in pending)     # due past the cap

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
    assert _capped_run(eng, fast, slow, again, []) == EXIT_TIMEOUT
    assert again == first
    fresh_eng = TimeEngine()
    fresh = [fresh_eng.add_domain(ClockDomain(d.name, d.frequency_hz)) for d in (fast, slow)]
    _capped_run(fresh_eng, *fresh, [], [])
    assert eng.stats() == fresh_eng.stats()


# -- run-ahead: a callback alone in its domain and due before the bound
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
            if not dom.run_ahead(ev, dom.cycle + d):
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
    return [entry for entry in log if entry[0] not in ("call", "bound")]


def test_bound_is_capped_by_the_deadline():
    eng, dom = make_domain()
    seen = []
    dom.enqueue(Event("t", lambda e: seen.append(eng.other_ps)), 0)
    eng.run(max_cycles=10)
    assert seen == [10 * dom.period_ps]     # alone: capped by the deadline


def test_run_ahead_keeps_timing_and_counters():
    def build(eng, log):
        dom = eng.add_domain(ClockDomain("clk", 400_000_000))
        dom.enqueue(_stepper(dom, log, [3, 1, 90, 2, 64, 200, 1, 63]), 0)
        return [dom]

    (status, now, cycles, counters, log), ref = _both_ways(build)
    assert (status, now, cycles, counters) == ref[:4]
    assert _steps(log) == _steps(ref[4])
    assert log.count(("call",)) == 1            # every step after the first ran ahead
    assert ref[4].count(("call",)) == 9
    assert counters[0][2] == 3                  # the 90, 64 and 200 are a lap or more


def test_run_ahead_ring_wrap_event_runs_at_its_own_cycle():
    # from cycle 3 an event 61 cycles on lands at 64, one lap after cycle 0,
    # whose list execute_cycle is still iterating
    def build(eng, log):
        dom = eng.add_domain(ClockDomain("clk", 400_000_000))
        other = Event("other", lambda e: log.append(("other", dom.cycle, eng.now_ps)))

        def on_step(cycle):
            if cycle == 3:
                dom.enqueue(other, 61)

        dom.enqueue(_stepper(dom, log, [3] * 25, on_step), 0)
        return [dom]

    plain, ref = _both_ways(build)
    steps = _steps(plain[4])
    at = steps.index(("other", 64, 64 * 2500))
    assert all(cycle < 64 for _, cycle, _ in steps[:at])
    assert steps == _steps(ref[4])
    assert plain[:4] == ref[:4]


def test_run_ahead_waits_for_an_event_of_the_same_cycle():
    def build(eng, log):
        dom = eng.add_domain(ClockDomain("clk", 400_000_000))
        now = Event("now", lambda e: log.append(("now", dom.cycle, eng.now_ps)))

        def on_step(cycle):
            if cycle == 0:
                dom.enqueue(now, 0)     # into the list execute_cycle is running

        dom.enqueue(_stepper(dom, log, [70] * 3, on_step), 0)
        return [dom]

    plain, ref = _both_ways(build)
    steps = _steps(plain[4])
    assert steps[:3] == [("step", 0, 0), ("now", 0, 0), ("step", 70, 70 * 2500)]
    assert plain[4].count(("call",)) == 2
    assert steps == _steps(ref[4])
    assert plain[:4] == ref[:4]


def test_exit_posted_during_run_ahead():
    def build(eng, log):
        dom = eng.add_domain(ClockDomain("clk", 400_000_000))

        def on_step(cycle):
            if cycle == 630:
                eng.post_exit(7)

        dom.enqueue(_stepper(dom, log, [70] * 10, on_step), 0)
        return [dom]

    plain, ref = _both_ways(build)
    assert plain[0] == 7 and plain[1] == 630 * 2500 and plain[2] == [630]
    assert plain[4].count(("call",)) == 1
    assert _steps(plain[4]) == _steps(ref[4])
    assert plain[:4] == ref[:4]


def test_deadline_inside_run_ahead_times_out_at_the_same_time():
    def build(eng, log):
        dom = eng.add_domain(ClockDomain("clk", 400_000_000))
        dom.enqueue(_stepper(dom, log, [70] * 9 + [69] + [70] * 3), 0)
        return [dom]

    plain, ref = _both_ways(build, max_cycles=700)
    assert plain[0] == EXIT_TIMEOUT and plain[1] == 699 * 2500
    assert plain[4].count(("call",)) == 1
    assert _steps(plain[4]) == _steps(ref[4])
    assert plain[:4] == ref[:4]


def test_exit_completes_the_cycle_a_callback_ran_ahead_to():
    # the stepper runs ahead to cycle 140, posts exit there and puts an
    # event at delta 0: that event belongs to cycle 140, which completes
    def build(eng, log):
        dom = eng.add_domain(ClockDomain("clk", 400_000_000))
        late = Event("late", lambda e: log.append(("late", dom.cycle, eng.now_ps)))

        def on_step(cycle):
            if cycle == 140:
                eng.post_exit(7)
                dom.enqueue(late, 0)

        dom.enqueue(_stepper(dom, log, [70] * 3, on_step), 0)
        return [dom]

    plain, ref = _both_ways(build)
    assert plain[4].count(("call",)) == 1
    assert _steps(plain[4])[-1] == ("late", 140, 140 * 2500)
    assert _steps(plain[4]) == _steps(ref[4])
    assert plain[:4] == ref[:4]


def test_run_ahead_stops_at_the_deadline_behind_a_domain_due_past_it():
    # the slow domain, scanned first, is next due at fast cycle 100, past
    # the deadline at fast cycle 50: the stepper stops before the deadline
    def build(eng, log):
        slow = eng.add_domain(ClockDomain("slow", 50_000))
        fast = eng.add_domain(ClockDomain("fast", 1_250_000))
        slow.enqueue(Event("late", lambda e: log.append(("late", slow.cycle))), 4)
        fast.enqueue(_stepper(fast, log, [10] * 10), 0)
        return [slow, fast]

    (status, now, cycles, counters, log), ref = _both_ways(build, max_cycles=50)
    assert status == EXIT_TIMEOUT and cycles == [0, 40] == ref[2]
    assert _steps(log) == _steps(ref[4])


def test_cross_domain_enqueue_stops_run_ahead_before_the_event():
    # at fast cycle 300 (750000 ps) the stepper schedules an event into the
    # sleeping slow domain, whose counter is still 0, at slow cycle 76
    # (760000 ps, fast cycle 304): run-ahead stops before cycle 304
    def build(eng, log):
        fast = eng.add_domain(ClockDomain("fast", 400_000_000))
        slow = eng.add_domain(ClockDomain("slow", 100_000_000))
        ping = Event("ping", lambda e: log.append(("ping", slow.cycle, eng.now_ps)))

        def on_step(cycle):
            if cycle == 300:
                slow.enqueue(ping, 1)
                log.append(("bound", eng.other_ps))

        fast.enqueue(_stepper(fast, log, [100] * 3 + [1] * 10, on_step), 0)
        return [fast, slow]

    plain, ref = _both_ways(build)
    log = plain[4]
    assert ("bound", 760000) in log
    steps = _steps(log)
    assert steps.index(("ping", 76, 760000)) == steps.index(("step", 304, 760000)) + 1
    assert log.index(("step", 303, 757500)) < log.index(("call",), 1) < log.index(("step", 304, 760000))
    assert steps == _steps(ref[4])
    assert plain[:4] == ref[:4]
    assert plain[3] == [(14, 4, 3), (1, 1, 1)]      # far steps, far wake-up


@pytest.mark.parametrize("alone", [True, False])
def test_run_ahead_refuses_a_cycle_before_the_domains_own(alone):
    # a callback at cycle 10 asks for cycle 3: neither path may move the
    # domain back or store the event in the past
    eng, dom = make_domain()
    seen = []

    def cb(ev):
        with pytest.raises(StructuralError):
            dom.run_ahead(ev, 3)
        seen.append((dom.cycle, eng.now_ps, ev.enqueued, dom.next_pending_cycle()))

    dom.enqueue(Event("cb", cb), 10)
    if not alone:
        dom.enqueue(Event("other", lambda e: None), 20)
    eng.run()
    assert seen == [(10, 10 * dom.period_ps, False, None if alone else 20)]


def _store(dom, ev):
    """What a store of `ev` into `dom` can have changed."""
    return (ev.cycle, ev.enqueued, sorted((c, [e.owner for e in lst])
                                          for c, lst in dom._buckets.items()),
            list(dom._cycles), dom._far, dom.laps_completed, dom.overflow_promotions,
            dom.cycle, dom.engine.now_ps)


def _store_twin(delta, refused):
    """A callback at cycle 10 stores itself `delta` cycles on, behind the
    events "a" and "b" already stored there, by a refused `run_ahead` or by
    `enqueue`.  Returns the store as that left it, and the whole run."""
    eng, dom = make_domain()
    target = 10 + delta
    seen, log = [], []

    def cb(ev):
        log.append(("cb", dom.cycle))
        if len(log) > 1:
            return
        if refused:
            assert dom.run_ahead(ev, target) is False
        else:
            dom.enqueue(ev, delta)
        seen.append(_store(dom, ev))
        for again in (lambda: dom.run_ahead(ev, target), lambda: dom.enqueue(ev, delta)):
            with pytest.raises(StructuralError):
                again()                 # a second store of the same event
        assert _store(dom, ev) == seen[0]

    dom.enqueue(Event("cb", cb), 10)
    for name in ("a", "b"):
        dom.enqueue(Event(name, lambda e: log.append((e.owner, dom.cycle))), target)
    eng.run()
    return seen[0], log, eng.stats(), dom.events_executed


@pytest.mark.parametrize("delta", [0, 5, 63, 64, 70])
def test_refused_run_ahead_stores_the_caller_as_enqueue_does(delta):
    store, log, stats, executed = _store_twin(delta, refused=True)
    assert (store, log, stats, executed) == _store_twin(delta, refused=False)
    assert store[:2] == (10 + delta, True if delta < 64 else _FAR)
    assert dict(store[2])[10 + delta][-3:] == ["a", "b", "cb"]
    assert log[-3:] == [("a", 10 + delta), ("b", 10 + delta), ("cb", 10 + delta)]


@st.composite
def _run_ahead_plans(draw):
    """2 or 3 domains at 2^a 5^b Hz with 1 to 3 steppers each, and an
    optional deadline.  Each step of a stepper does nothing, posts exit, or
    enqueues a one-shot event into another domain, (domain, delta)."""
    n = draw(st.integers(2, 3))
    freqs = [2 ** draw(st.integers(4, 9)) * 5 ** draw(st.integers(5, 8)) for _ in range(n)]
    steppers = []
    for d in range(n):
        for _ in range(draw(st.integers(1, 3))):
            deltas = draw(st.lists(st.integers(0, 150), max_size=8))
            actions = []
            for _ in range(len(deltas) + 1):
                roll = draw(st.integers(0, 19))
                actions.append("exit" if roll == 0 else None if roll > 7 else
                               ((d + draw(st.integers(1, n - 1))) % n, draw(st.integers(0, 100))))
            steppers.append((d, deltas, actions))
    return freqs, steppers, draw(st.none() | st.integers(1, 3000))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_run_ahead_plans())
def test_run_ahead_with_cross_domain_enqueues_matches_the_ticked_run(plan):
    freqs, steppers, max_cycles = plan

    def build(eng, log):
        doms = [eng.add_domain(ClockDomain("d%d" % i, f)) for i, f in enumerate(freqs)]

        def shot(e):
            target = doms[e.payload]
            log.append(("shot", target.name, target.cycle, eng.now_ps))

        for k, (d, deltas, actions) in enumerate(steppers):
            def on_step(cycle, k=k, todo=iter(actions)):
                log.append(("stepper", k))
                act = next(todo)
                if act == "exit":
                    eng.post_exit(k)
                elif act is not None:
                    doms[act[0]].enqueue(Event("shot", shot, act[0]), act[1])

            doms[d].enqueue(_stepper(doms[d], log, deltas, on_step), 0)
        return doms

    (status, now, cycles, counters, log), ref = _both_ways(build, max_cycles)
    assert _steps(log) == _steps(ref[4])
    assert (status, cycles) == (ref[0], ref[2])
    if status not in (EXIT_IDLE, EXIT_TIMEOUT):     # else the ticker may tick on
        assert now == ref[1]
    assert [c[0] for c in counters] == [c[0] for c in ref[3]]     # events_executed


def test_lap_counters_match_the_ring():
    # `laps_completed` and `overflow_promotions` as the 64-slot ring with
    # its overflow heap counted them, recorded from that engine
    eng = TimeEngine()
    fast = eng.add_domain(ClockDomain("fast", 400_000_000))   # 2500 ps
    slow = eng.add_domain(ClockDomain("slow", 100_000_000))   # 10000 ps
    log = []

    def on_step(cycle):
        if cycle == 106:
            # slow sleeps at cycle 0; the engine is at slow cycle 27
            slow.enqueue(Event("ping", lambda e: log.append(("ping", slow.cycle))), 40)

    fast.enqueue(_stepper(fast, log, [5, 100, 1, 200, 3], on_step), 0)
    # both still pending at the deadline (slow cycle 100): "soon" in the lap
    # slow has reached, so it counts, and "late" three laps on
    slow.enqueue(Event("soon", lambda e: log.append(("soon", slow.cycle))), 120)
    slow.enqueue(Event("late", lambda e: log.append(("late", slow.cycle))), 300)
    assert eng.run(max_cycles=400) == EXIT_TIMEOUT
    # the 100 and the 3 ran ahead; the 200 did not, as the ping was due first
    assert [e[:2] for e in log] == [
        ("call",), ("step", 0), ("step", 5), ("step", 105), ("step", 106),
        ("ping", 67), ("call",), ("step", 306), ("step", 309)]
    assert [(d.cycle, d.events_executed, d.laps_completed, d.overflow_promotions)
            for d in (fast, slow)] == [(309, 6, 4, 2), (67, 1, 1, 2)]
    assert eng.stats() == {"events_executed": 7, "laps_completed": 5,
                           "overflow_promotions": 4}
