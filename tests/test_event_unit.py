"""The cluster event unit against the reference model of
tests/reference_event_unit.py.

Hypothesis seeds the random that `draw_trace` draws 10 to 40 register
accesses from, which go straight to the unit's `in` port.  Each comes from
one of the eight cores the unit serves, from the FC, which it does not
serve, or from no initiator, and is a read or a write of an offset from
0x00 to 0x24, with a value that may name a line out of range.  The draws
are weighted (`draw_trace`) so that waits, barriers and wake-ups happen in
most traces.  Every core's `wake` is replaced by a recorder.  As on the
platform, a core asleep in a wait or a barrier issues nothing until it is
woken, and then issues the read it slept in again before anything else.
After every access whether it was served, the value, whether it sleeps
and the set of woken cores must be the reference's, and only sleeping cores may wake.
"""

from functools import partial

from hypothesis import given, settings, strategies as st

from pulpsim import event_unit as eu

from conftest import build_pulp
from reference_event_unit import RefEventUnit
from test_registers import _access

BIG = (16, 0xF0, 0xFF, 0x103, 0xFFFF, 0x10005, 0xFFFFFFFF)
# the unit's registers in their own direction, the accesses that start,
# end and set up a wait or a barrier most
OWN = [(False, eu.EVT_WAIT), (True, eu.EVT_ACK), (False, eu.EVT_MASK), (False, eu.EVT_STATUS),
       (False, eu.BARRIER_MASK), (False, eu.BARRIER_STATUS), (False, eu.NB_CORES)] + [
       (True, eu.EVT_SET), (True, eu.EVT_MASK), (True, eu.BARRIER_MASK)] * 2 + [
       (False, eu.BARRIER_TRIG)] * 4
# the low values a write carries, by register: lines, line masks, core masks
LOW = {eu.EVT_SET: 4, eu.EVT_ACK: 4, eu.EVT_MASK: 16, eu.BARRIER_MASK: 8}


def draw_trace(rnd):
    """10 to 40 accesses (initiator, is write, offset, value).  Initiator
    0-7 is that core, 8 the FC and 9 none.  Most accesses come from cores
    0-2 and go to the unit's registers in their own direction; a third of
    the values written are low (`LOW`), the others run up to line 20 or
    are out of range (`BIG`)."""
    trace = []
    for _ in range(rnd.randint(10, 40)):
        who = rnd.randrange(3) if rnd.random() < 0.75 else rnd.randrange(10)
        if rnd.random() < 0.8:
            write, offset = rnd.choice(OWN)
        else:
            write, offset = rnd.random() < 0.5, rnd.randrange(0x00, 0x28, 4)
        value = None
        if write:
            value = rnd.choice((rnd.randrange(LOW.get(offset, 1)), rnd.randrange(21),
                                rnd.choice(BIG)))
        trace.append((who, write, offset, value))
    return trace


# built once: each example resets the unit
PLAT = build_pulp()
UNIT = PLAT.lookup("cluster/event_unit")
CORES = [state.core for state in UNIT.states]
WOKEN = set()
for i, core in enumerate(CORES):
    core.wake = partial(WOKEN.add, i)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(rnd=st.randoms(use_true_random=True))
def test_event_unit_matches_the_reference(rnd):
    unit, cores, woken = UNIT, CORES, WOKEN
    unit.reset()
    initiators = cores + [PLAT.lookup("fc"), None]
    ref = RefEventUnit(len(cores), unit.n_lines)
    asleep, replay = {}, {}     # core -> the read it sleeps in, or must issue next
    for who, write, offset, value in draw_trace(rnd):
        if who in asleep:
            continue
        if who in replay:
            write, offset, value = False, replay.pop(who), None
        served = who if who < len(cores) else None
        woken.clear()
        result, got_value = _access(unit, offset, value=value, initiator=initiators[who])
        got = (result != "error", got_value, result == "sleep", woken)
        assert got == ref.access(served, write, offset, value), (who, write, hex(offset), value)
        assert woken <= set(asleep)
        replay.update((core, asleep.pop(core)) for core in woken)
        if result == "sleep":
            asleep[who] = offset
