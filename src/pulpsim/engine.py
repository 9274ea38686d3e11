"""Event-driven simulation kernel.

A global time engine keeps track of picosecond time across any number of
clock domains.  Each domain owns a forward-monotone cycle counter and one
event store: a dict from absolute cycle to the events due then, in
insertion order, plus a heap of the cycles that have events.  The engine
reads each domain's next pending cycle off its heap's head.

The engine owns time.  `ClockDomain.enqueue` counts its delta from the
domain's cycle at the engine's current time: the executing cycle when the
caller runs in that domain, otherwise the first edge of the domain at or
after `TimeEngine.now_ps` (a domain's own counter only advances when it
executes, so it is stale while the domain sleeps).  Any domain may
therefore schedule into any other.  `TimeEngine.reset` rewinds time to 0,
every counter to cycle 0, and drops every pending event, so components
never cancel events themselves.

Run-ahead.  While a callback runs, `TimeEngine.horizon_ps` bounds what
can happen outside it: the global time of the earliest pending event in
the other domains, capped by the `max_cycles` deadline, or "now" when the
executing domain holds another pending event as well.  The engine sets it
before each cycle from the scan that picks the cycle; an enqueue into
another domain lowers it to the new event's time, and a posted exit
lowers it below any time.  The executing domain's `horizon_cycle` is the
same bound in its own cycles (its first cycle at or after the horizon), so
that a consumer tests it with one integer comparison.  A callback whose
next action lies strictly before the horizon, and which is still the only
event of its domain, is the next thing the engine would run.  It may then
perform that action inline, in the same callback, after
`ClockDomain.run_ahead` has checked that it is alone and has moved the
domain's cycle, the engine's time and the counters exactly as enqueueing
it and executing that cycle would have.
The cores (`RiscvCore._step`) and the micro-DMA (`MicroDma._beat`) do so;
everything else enqueues itself.  Timing, traces and statistics are the
same either way; only the number of engine dispatches drops.

Lap counters.  `TimeEngine.stats` still reports the `laps_completed` and
`overflow_promotions` of the 64-slot ring (one lap) and overflow heap that
the store replaced, as the benchmark and golden stats pin them: the sum
over domains of `cycle // 64`, and the events put at least 64 cycles past
their domain's counter, each counted once that counter reaches its lap,
plus run-ahead steps of 64 cycles or more.  Scheduling never reads them.
"""

import heapq

from .errors import StructuralError

PS_PER_SEC = 10**12

EXIT_TIMEOUT = "timeout"
EXIT_IDLE = "idle-deadlock"

_END_OF_TIME = 1 << 256     # ps; the horizon of a run without a deadline
_LAP = 64                   # cycles; see ClockDomain's lap counters
_FAR = "far"                # Event.enqueued of an event put a lap or more ahead


class Event:
    """A callback scheduled at some cycle of one clock domain.

    An event lives in at most one store at a time; `enqueued` tracks that
    exactly: True, or `_FAR` when put a lap or more ahead (module
    docstring, lap counters), while stored.  The same Event object may be
    re-enqueued after it executed, which is how components implement
    recurring activity.
    """

    __slots__ = ("owner", "callback", "payload", "enqueued", "cycle")

    def __init__(self, owner, callback, payload=None):
        self.owner = owner          # component path, for diagnostics
        self.callback = callback    # called as callback(event)
        self.payload = payload
        self.enqueued = False
        self.cycle = 0              # absolute domain cycle while enqueued

    def __repr__(self):
        state = "enqueued@%d" % self.cycle if self.enqueued else "idle"
        return "<Event %s %s>" % (self.owner, state)


class ClockDomain:
    """A clock source: frequency, cycle counter and the event store.

    `enqueue` is relative to this domain's cycle at the engine's current
    time (module docstring), so it is safe from any domain.  The store
    maps each absolute cycle that has events to the list of them, in
    insertion order, and keeps those cycles in a heap, so the next pending
    cycle is the heap's head.  `reset` rewinds to cycle 0.  The last
    block derives the lap counters (module docstring) from the counter,
    the stored `_FAR` events and `_far`, the count of far puts and steps.

    `run_ahead` lets the executing callback, when it is alone in the store
    and due before `horizon_cycle`, move on to its next cycle instead of
    enqueueing itself (module docstring).  It counts this domain's events
    itself, so only enqueues into other domains must lower the horizon.
    """

    def __init__(self, name, frequency_hz):
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive: %r" % frequency_hz)
        if PS_PER_SEC % frequency_hz != 0:
            raise ValueError(
                "frequency %d Hz has a non-integral period in picoseconds" % frequency_hz)
        self.name = name
        self.frequency_hz = frequency_hz
        self.period_ps = PS_PER_SEC // frequency_hz
        self.engine = None          # set by TimeEngine.add_domain
        self._buckets = {}          # absolute cycle -> [Event, ...]
        self.reset()

    def reset(self):
        """Rewind to cycle 0 with an empty store and zeroed statistics.

        Every event still pending is dropped and marked not enqueued.
        """
        for lst in self._buckets.values():
            for ev in lst:
                ev.enqueued = False
        self._buckets.clear()
        self._cycles = []           # heap of the keys of _buckets
        self._pending = 0           # stored events, the executing cycle's included
        self.cycle = 0
        self.horizon_cycle = 0      # set by the engine while this domain executes
        # statistics
        self.events_executed = 0
        self._far = 0               # far puts and far run-ahead steps (see below)

    # -- scheduling ---------------------------------------------------

    def enqueue(self, event, delta_cycles):
        """Schedule `event` delta_cycles after this domain's cycle at `now_ps`."""
        if delta_cycles < 0:
            raise StructuralError("negative delta for %r" % event)
        if event.enqueued:
            raise StructuralError("double enqueue of %r" % event)
        engine = self.engine
        if engine.current is self:
            abs_cycle = self.cycle + delta_cycles
        else:
            abs_cycle = self.cycle_at_or_after(engine.now_ps) + delta_cycles
            t = self.period_ps * abs_cycle
            if t < engine.horizon_ps:
                engine.lower_horizon(t)
        if abs_cycle - self.cycle < _LAP:
            event.enqueued = True
        else:
            event.enqueued = _FAR
            self._far += 1
        event.cycle = abs_cycle
        lst = self._buckets.get(abs_cycle)
        if lst is None:
            self._buckets[abs_cycle] = [event]
            heapq.heappush(self._cycles, abs_cycle)
        else:
            lst.append(event)
        self._pending += 1

    def enqueue_at(self, event, abs_cycle):
        """Schedule `event` at an absolute cycle, no earlier than the one
        `enqueue` counts from (the executing cycle is at `now_ps`)."""
        base = self.cycle_at_or_after(self.engine.now_ps)
        if abs_cycle < base:
            raise StructuralError("cycle %d is in the past (now %d)" % (abs_cycle, base))
        self.enqueue(event, abs_cycle - base)

    # -- time conversion ----------------------------------------------

    def time_of_cycle(self, cycle_index):
        """Global picosecond time of a cycle edge of this domain."""
        return self.period_ps * cycle_index

    def cycle_at_or_after(self, time_ps):
        """First cycle of this domain whose edge is at or after `time_ps`."""
        if time_ps <= 0:
            return 0
        return -(-time_ps // self.period_ps)

    # -- execution ----------------------------------------------------

    def next_pending_cycle(self):
        """Earliest absolute cycle with work, or None when the store is empty.

        The cycle executing now is no longer pending."""
        return self._cycles[0] if self._cycles else None

    def execute_cycle(self, abs_cycle):
        """Advance to `abs_cycle`, the heap's head, and run its events.

        Callbacks may enqueue new events, including at delta 0 (same
        cycle); those run before the cycle ends, in insertion order.
        """
        if abs_cycle < self.cycle:
            raise StructuralError("time went backwards: %d < %d" % (abs_cycle, self.cycle))
        heapq.heappop(self._cycles)
        self.cycle = abs_cycle
        lst = self._buckets[abs_cycle]
        for ev in lst:          # also visits events appended during the loop
            ev.enqueued = False
            ev.callback(ev)
        del self._buckets[abs_cycle]
        n = len(lst)
        self._pending -= n
        self.events_executed += n

    def run_ahead(self, abs_cycle, delta_cycles):
        """Move the executing callback on to `abs_cycle`, if it is alone.

        The caller is the callback the engine is executing, and its next
        action is `delta_cycles` ahead of `self.cycle` and strictly before
        `horizon_cycle`.  Returns False, changing nothing, when this
        domain holds any other event; the caller then enqueues itself.
        Otherwise does to the cycle, the engine's time and the counters what
        enqueueing the caller there and executing that cycle would have and
        returns True; the caller then performs the action inline.
        """
        if self._pending != 1:
            return False
        if delta_cycles >= _LAP:
            self._far += 1
        self.cycle = abs_cycle
        self.engine.now_ps = self.period_ps * abs_cycle
        self.events_executed += 1
        return True

    # -- lap counters (module docstring) --------------------------------
    # Never read by scheduling; this block goes away with the benchmark
    # change that drops the two counters.

    @property
    def laps_completed(self):
        return self.cycle // _LAP

    @property
    def overflow_promotions(self):
        lap = self.cycle // _LAP
        waiting = sum(1 for lst in self._buckets.values() for ev in lst
                      if ev.enqueued is _FAR and ev.cycle // _LAP > lap)
        return self._far - waiting

    def __repr__(self):
        return "<ClockDomain %s %d Hz cycle=%d>" % (self.name, self.frequency_hz, self.cycle)


class TimeEngine:
    """Global event loop over all clock domains.

    Repeatedly picks the domain whose next pending event has the earliest
    global time, advances `now_ps` to it and executes that whole cycle,
    with `current` naming the executing domain.  Ties break by domain
    registration order, which keeps runs deterministic.

    Before each cycle it sets `horizon_ps` and the executing domain's
    `horizon_cycle` from the same scan: the earliest next event of the
    other domains, capped by the deadline, or `now_ps` when the executing
    domain holds more than one event (`run_ahead` would refuse anyway; this
    way a busy domain's callbacks stop at their one horizon comparison).
    Enqueues and `post_exit` only lower them.  Outside `run` `horizon_ps`
    is -1 (module docstring).
    """

    def __init__(self):
        self.domains = []
        self.now_ps = 0
        self.horizon_ps = -1
        self.current = None         # domain executing a cycle, inside run()
        self.exit_status = None

    def add_domain(self, domain):
        domain.engine = self
        self.domains.append(domain)
        return domain

    def reset(self):
        """Power-on: time 0, every domain at cycle 0 with empty stores."""
        self.now_ps = 0
        self.horizon_ps = -1
        self.exit_status = None
        for d in self.domains:
            d.reset()

    def post_exit(self, status):
        """Request the run loop to stop after the current cycle completes."""
        self.exit_status = status
        self.lower_horizon(-1)

    def lower_horizon(self, time_ps):
        """Lower `horizon_ps` to `time_ps`, and the executing domain's
        `horizon_cycle` with it."""
        self.horizon_ps = time_ps
        cur = self.current
        if cur is not None:
            cur.horizon_cycle = cur.cycle_at_or_after(time_ps)

    def run(self, max_cycles=None):
        """Run until a component posts exit, stores drain, or the cap hits.

        `max_cycles` caps simulated time, counted in cycles of the fastest
        domain; hitting it returns EXIT_TIMEOUT (distinct from a
        program-requested exit status).
        """
        deadline_ps = None
        horizon_cap = _END_OF_TIME
        if max_cycles is not None:
            fastest = min(d.period_ps for d in self.domains)
            deadline_ps = horizon_cap = max_cycles * fastest
        self.exit_status = None
        domains = self.domains
        try:
            while True:
                if self.exit_status is not None:
                    return self.exit_status
                best = None
                best_cycle = 0
                best_t = other_t = horizon_cap  # other_t: earliest outside `best`
                for d in domains:
                    if not d._cycles:
                        continue            # idle
                    c = d._cycles[0]        # next_pending_cycle, inlined
                    t = d.period_ps * c     # time_of_cycle, inlined
                    if t < best_t or best is None:
                        other_t = best_t
                        best, best_cycle, best_t = d, c, t
                    elif t < other_t:
                        other_t = t
                if best is None:
                    return EXIT_IDLE
                if deadline_ps is not None and best_t >= deadline_ps:
                    return EXIT_TIMEOUT
                if best_t < self.now_ps:
                    raise StructuralError("global time went backwards")
                self.now_ps = best_t
                if best._pending > 1:
                    # `best` holds more than one event: the horizon is now
                    self.horizon_ps = best_t
                    best.horizon_cycle = best_cycle
                else:
                    self.horizon_ps = other_t
                    best.horizon_cycle = -(-other_t // best.period_ps)
                self.current = best
                best.execute_cycle(best_cycle)
        finally:
            self.current = None
            self.horizon_ps = -1

    def stats(self):
        return {
            "events_executed": sum(d.events_executed for d in self.domains),
            "laps_completed": sum(d.laps_completed for d in self.domains),
            "overflow_promotions": sum(d.overflow_promotions for d in self.domains),
        }
