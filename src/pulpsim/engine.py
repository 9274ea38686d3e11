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

The bound.  While a domain executes, the engine holds one bound,
`TimeEngine.other_ps`: the earliest pending edge of the other domains,
capped by the `max_cycles` deadline.  The scan that picks a cycle sets
it, an enqueue into another domain lowers it to the new event's edge
when that is earlier, and a posted exit drops it to 0; nothing else
moves it, since only the executing domain runs.

Bursts.  After a cycle of domain D, the engine executes D's next pending
cycle directly, without a scan, while no exit is posted and that cycle's
edge lies strictly before the bound.  A tie goes back to the scan, so
registration order still breaks it.  The order of execution is the one
the scan would have given.

Run-ahead.  `ClockDomain.run_ahead` alone decides whether the executing
callback may perform its next action inline, in the same callback, in
place of enqueueing itself.  Two things must hold: the callback is alone
(the only event of the executing cycle, and its domain has no other
pending cycle), and the action's edge lies strictly before the bound.
The action is then the next thing the engine would run.  A posted exit
drops the bound to 0, so nothing more runs ahead.  `run_ahead` moves the
domain's cycle, the engine's time and the counters exactly as enqueueing
the callback and executing that cycle would have.  When it refuses, it
stores the callback's event at the action's cycle itself, as `enqueue`
would, so a caller never enqueues itself after a refusal: each action
costs one engine call either way.  The cores (`RiscvCore`'s step) and
the micro-DMA's job (`MicroDma._transfer`) do so; everything else
enqueues itself.  Each time the micro-DMA's job resumes, it moves a
whole window of beats: it runs each next beat ahead while `run_ahead`
lets it, and one `BankedMemory.stream` call then serves the window in
L2, which no other master can touch before the bound.  Timing, traces
and statistics are the same either way; only the number of engine
dispatches drops.

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

_END_OF_TIME = 1 << 256     # ps; the deadline of a run without max_cycles
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
    and due before the engine's bound, move on to its next cycle instead
    of enqueueing itself, and otherwise stores the callback's event there
    as `enqueue` would (module docstring); its store insertion repeats
    `enqueue`'s, as the one engine call of each core step.  It reads this
    domain's aloneness off the store, so only enqueues into other domains
    must lower the bound; an enqueue from the executing domain itself
    takes the short path.
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
        self._running = ()          # the list execute_cycle iterates
        self.cycle = 0
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
        if engine.current is not self:
            abs_cycle = self.cycle_at_or_after(engine.now_ps) + delta_cycles
            t = self.period_ps * abs_cycle
            if t < engine.other_ps:
                engine.other_ps = t
            delta_cycles = abs_cycle - self.cycle
        abs_cycle = event.cycle = self.cycle + delta_cycles
        if delta_cycles < _LAP:
            event.enqueued = True
        else:
            event.enqueued = _FAR
            self._far += 1
        lst = self._buckets.get(abs_cycle)
        if lst is None:
            self._buckets[abs_cycle] = [event]
            heapq.heappush(self._cycles, abs_cycle)
        else:
            lst.append(event)

    def run_ahead(self, event, abs_cycle):
        """Move the executing callback `event` on to `abs_cycle`, if it is
        alone, or store it there.

        The caller is the callback the engine is executing, and its next
        action is due at `abs_cycle`, at or after `self.cycle`: an earlier
        cycle, or an `event` already stored, raises `StructuralError`.  If
        the caller is alone (the cycle executing holds only it, and this
        domain has no other pending cycle) and the edge of `abs_cycle` lies
        strictly before the engine's bound, `TimeEngine.other_ps`, does to
        the cycle, the engine's time and the counters what enqueueing the
        caller there and executing that cycle would have and returns True;
        the caller then performs the action inline.  Otherwise stores
        `event` at `abs_cycle` exactly as `enqueue` would from this domain
        and returns False; the caller then returns.
        """
        delta = abs_cycle - self.cycle
        if delta < 0 or event.enqueued:
            raise StructuralError("run-ahead of %r to cycle %d in %r" % (event, abs_cycle, self))
        if delta >= _LAP:
            self._far += 1          # a far step or a far put (lap counters)
        if not self._cycles and len(self._running) == 1:
            if (t := self.period_ps * abs_cycle) < self.engine.other_ps:
                self.cycle = abs_cycle
                self.engine.now_ps = t
                self.events_executed += 1
                return True
        # refused: the store insertion of `enqueue`, written out as the hot path
        event.cycle, event.enqueued = abs_cycle, True if delta < _LAP else _FAR
        lst = self._buckets.get(abs_cycle)
        if lst is None:
            self._buckets[abs_cycle] = [event]
            heapq.heappush(self._cycles, abs_cycle)
        else:
            lst.append(event)
        return False

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
        lst = self._running = self._buckets[abs_cycle]
        for ev in lst:          # also visits events appended during the loop
            ev.enqueued = False
            ev.callback(ev)
        del self._buckets[abs_cycle]
        self.events_executed += len(lst)

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
    registration order, which keeps runs deterministic.  The scan over the
    domains runs only when a burst stops (module docstring); it sets
    `other_ps`, the bound, which `ClockDomain.run_ahead` tests.
    """

    def __init__(self):
        self.domains = []
        self.now_ps = 0
        self.current = None         # domain executing a cycle, inside run()
        self.other_ps = _END_OF_TIME    # earliest pending edge outside `current`
        self.exit_status = None

    def add_domain(self, domain):
        domain.engine = self
        self.domains.append(domain)
        return domain

    def reset(self):
        """Power-on: time 0, every domain at cycle 0 with empty stores."""
        self.now_ps = 0
        self.exit_status = None
        for d in self.domains:
            d.reset()

    def post_exit(self, status):
        """Request the run loop to stop after the current cycle completes:
        the cycle the executing callback ran ahead to, if it did."""
        self.exit_status = status
        self.other_ps = 0           # nothing more runs ahead

    def run(self, max_cycles=None):
        """Run until a component posts exit, stores drain, or the cap hits.

        `max_cycles` caps simulated time, counted in cycles of the fastest
        domain; hitting it returns EXIT_TIMEOUT (distinct from a
        program-requested exit status).
        """
        deadline_ps = _END_OF_TIME
        if max_cycles is not None:
            deadline_ps = max_cycles * min(d.period_ps for d in self.domains)
        self.exit_status = None
        domains = self.domains
        try:
            while True:
                if self.exit_status is not None:
                    cur = self.current      # complete a cycle it ran ahead to
                    if cur._cycles and cur._cycles[0] == cur.cycle:
                        cur.execute_cycle(cur.cycle)
                    return self.exit_status
                best = None
                best_cycle = 0
                best_t = other_t = deadline_ps  # other_t: earliest outside `best`
                for d in domains:
                    if not d._cycles:
                        continue            # idle
                    c = d._cycles[0]        # next_pending_cycle, inlined
                    t = d.period_ps * c     # time_of_cycle, inlined
                    if t < best_t:
                        other_t = best_t
                        best, best_cycle, best_t = d, c, t
                    elif t < other_t:
                        other_t = t
                if best is None:            # nothing due before the deadline
                    return EXIT_TIMEOUT if any(d._cycles for d in domains) else EXIT_IDLE
                if best_t < self.now_ps:
                    raise StructuralError("global time went backwards")
                self.other_ps = other_t
                self.current = best
                cycles, period = best._cycles, best.period_ps
                while True:             # a burst of `best`'s cycles
                    self.now_ps = best_t
                    best.execute_cycle(best_cycle)
                    if self.exit_status is not None or not cycles:
                        break
                    best_cycle = cycles[0]
                    best_t = period * best_cycle
                    if best_t >= self.other_ps:
                        break           # another domain may be due first: scan
        finally:
            self.current = None

    def stats(self):
        return {
            "events_executed": sum(d.events_executed for d in self.domains),
            "laps_completed": sum(d.laps_completed for d in self.domains),
            "overflow_promotions": sum(d.overflow_promotions for d in self.domains),
        }
