"""Event-driven simulation kernel.

A global time engine keeps track of picosecond time across any number of
clock domains.  Each domain owns a forward-monotone cycle counter and an
event store made of a circular buffer covering a fixed window of upcoming
cycles plus an ordered overflow queue for events scheduled further out.
"""

import heapq

from .errors import StructuralError

PS_PER_SEC = 10**12

EXIT_TIMEOUT = "timeout"
EXIT_IDLE = "idle-deadlock"


class Event:
    """A callback scheduled at some cycle of one clock domain.

    An event lives in at most one store at a time; `enqueued` tracks that
    exactly.  The same Event object may be re-enqueued after it executed,
    which is how components implement recurring activity.
    """

    __slots__ = ("owner", "callback", "payload", "enqueued", "cycle", "_in_overflow")

    def __init__(self, owner, callback, payload=None):
        self.owner = owner          # component path, for diagnostics
        self.callback = callback    # called as callback(event)
        self.payload = payload
        self.enqueued = False
        self.cycle = 0              # absolute domain cycle while enqueued
        self._in_overflow = False

    def __repr__(self):
        state = "enqueued@%d" % self.cycle if self.enqueued else "idle"
        return "<Event %s %s>" % (self.owner, state)


class ClockDomain:
    """A clock source: frequency, cycle counter and the event store.

    The store is a ring of `window` slots, one per upcoming cycle; events
    scheduled at least `window` cycles ahead wait in an overflow heap
    ordered by (cycle, insertion sequence) and are promoted into the ring
    whenever the counter crosses a window-sized lap boundary (or when the
    ring would otherwise run dry).
    """

    def __init__(self, name, frequency_hz, event_window=64, engine=None):
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive: %r" % frequency_hz)
        if PS_PER_SEC % frequency_hz != 0:
            raise ValueError(
                "frequency %d Hz has a non-integral period in picoseconds" % frequency_hz)
        if event_window <= 0:
            raise ValueError("event_window must be positive")
        self.name = name
        self.frequency_hz = frequency_hz
        self.period_ps = PS_PER_SEC // frequency_hz
        self.window = event_window
        self.cycle = 0
        self.engine = engine
        self._ref_ps = 0            # global time of cycle 0
        self._slots = [[] for _ in range(event_window)]
        self._slot_count = 0
        self._overflow = []         # heap of (abs_cycle, seq, event)
        self._seq = 0
        self._next_drain = event_window
        self._exec_list = None      # slot list currently being executed
        # statistics
        self.events_executed = 0
        self.laps_completed = 0
        self.overflow_promotions = 0

    # -- scheduling ---------------------------------------------------

    def enqueue(self, event, delta_cycles):
        """Schedule `event` delta_cycles after the current cycle."""
        if delta_cycles < 0:
            raise StructuralError("negative delta for %r" % event)
        if delta_cycles >= self.window:
            self._put(event, self.cycle + delta_cycles)
            return
        if event.enqueued:
            raise StructuralError("double enqueue of %r" % event)
        abs_cycle = self.cycle + delta_cycles
        event.enqueued = True
        event.cycle = abs_cycle
        event._in_overflow = False
        self._slots[abs_cycle % self.window].append(event)
        self._slot_count += 1

    def enqueue_at(self, event, abs_cycle):
        if abs_cycle < self.cycle:
            raise StructuralError("cycle %d is in the past (now %d)" % (abs_cycle, self.cycle))
        self._put(event, abs_cycle)

    def enqueue_synced(self, event, delta_cycles=1):
        """Schedule relative to *global* time rather than this domain's counter.

        Needed when the caller runs in another clock domain: this domain's
        counter may be stale (it only advances when it executes events), so
        deltas are applied to the first edge at or after the engine's
        current time.  Returns the absolute cycle used.
        """
        base = self.cycle
        if self.engine is not None:
            synced = self.cycle_at_or_after(self.engine.now_ps)
            if synced > base:
                base = synced
        abs_cycle = base + delta_cycles
        self._put(event, abs_cycle)
        return abs_cycle

    def _put(self, event, abs_cycle):
        if event.enqueued:
            raise StructuralError("double enqueue of %r" % event)
        event.enqueued = True
        event.cycle = abs_cycle
        if abs_cycle - self.cycle < self.window:
            self._slots[abs_cycle % self.window].append(event)
            event._in_overflow = False
            self._slot_count += 1
        else:
            self._seq += 1
            heapq.heappush(self._overflow, (abs_cycle, self._seq, event))
            event._in_overflow = True

    def cancel(self, event):
        """Remove a pending event from whichever store holds it."""
        if not event.enqueued:
            raise StructuralError("cancel of non-enqueued %r" % event)
        event.enqueued = False
        if event._in_overflow:
            for i, entry in enumerate(self._overflow):
                if entry[2] is event:
                    self._overflow.pop(i)
                    heapq.heapify(self._overflow)
                    break
            else:
                raise StructuralError("event flagged in overflow but not found: %r" % event)
        else:
            lst = self._slots[event.cycle % self.window]
            if lst is self._exec_list:
                # mid-execution of this very cycle: the flag alone makes the
                # dispatch loop skip it; the list is cleared afterwards
                self._slot_count -= 1
                return
            lst.remove(event)
            self._slot_count -= 1

    # -- time conversion ----------------------------------------------

    def time_of_cycle(self, cycle_index):
        """Global picosecond time of a cycle edge of this domain."""
        return self._ref_ps + self.period_ps * cycle_index

    def cycle_at_or_after(self, time_ps):
        """First cycle of this domain whose edge is at or after `time_ps`."""
        dt = time_ps - self._ref_ps
        if dt <= 0:
            return 0
        return -(-dt // self.period_ps)

    # -- execution ----------------------------------------------------

    def next_pending_cycle(self):
        """Earliest absolute cycle with work, or None when the store is empty."""
        best = None
        if self._slot_count:
            base = self.cycle
            for d in range(self.window):
                if self._slots[(base + d) % self.window]:
                    best = base + d
                    break
        if self._overflow:
            o = self._overflow[0][0]
            if best is None or o < best:
                best = o
        return best

    def execute_cycle(self, abs_cycle):
        """Advance to `abs_cycle` and run every event stored for it.

        Callbacks may enqueue new events, including at delta 0 (same
        cycle); those run before the cycle ends, in insertion order.
        """
        if abs_cycle < self.cycle:
            raise StructuralError("time went backwards: %d < %d" % (abs_cycle, self.cycle))
        if abs_cycle >= self._next_drain or (
                self._overflow and self._overflow[0][0] <= abs_cycle):
            self._drain_overflow(abs_cycle)
        self.cycle = abs_cycle
        lst = self._slots[abs_cycle % self.window]
        self._exec_list = lst
        i = 0
        while i < len(lst):
            ev = lst[i]
            i += 1
            if not ev.enqueued:
                continue        # canceled mid-cycle
            ev.enqueued = False
            self._slot_count -= 1
            self.events_executed += 1
            ev.callback(ev)
        lst.clear()
        self._exec_list = None

    def _drain_overflow(self, target_cycle):
        lap_base = (target_cycle // self.window) * self.window
        limit = lap_base + self.window
        self.laps_completed += target_cycle // self.window - self.cycle // self.window
        of = self._overflow
        while of and of[0][0] < limit:
            _, _, ev = heapq.heappop(of)
            if not ev.enqueued:     # canceled while waiting (defensive)
                continue
            self._slots[ev.cycle % self.window].append(ev)
            ev._in_overflow = False
            self._slot_count += 1
            self.overflow_promotions += 1
        if limit > self._next_drain:
            self._next_drain = limit

    def pending_events(self):
        return self._slot_count + len(self._overflow)

    def __repr__(self):
        return "<ClockDomain %s %d Hz cycle=%d>" % (self.name, self.frequency_hz, self.cycle)


class TimeEngine:
    """Global event loop over all clock domains.

    Repeatedly picks the domain whose next pending event has the earliest
    global time, advances `now_ps` to it and executes that whole cycle.
    Ties break by domain registration order, which keeps runs deterministic.
    """

    def __init__(self):
        self.domains = []
        self.now_ps = 0
        self.running = False
        self.exit_status = None

    def add_domain(self, domain):
        domain.engine = self
        self.domains.append(domain)
        return domain

    def post_exit(self, status):
        """Request the run loop to stop after the current cycle completes."""
        self.exit_status = status

    def run(self, max_cycles=None):
        """Run until a component posts exit, stores drain, or the cap hits.

        `max_cycles` caps simulated time, counted in cycles of the fastest
        domain; hitting it returns EXIT_TIMEOUT (distinct from a
        program-requested exit status).
        """
        deadline_ps = None
        if max_cycles is not None:
            fastest = min(d.period_ps for d in self.domains)
            deadline_ps = max_cycles * fastest
        self.exit_status = None
        self.running = True
        domains = self.domains
        try:
            while True:
                if self.exit_status is not None:
                    return self.exit_status
                best = None
                best_cycle = 0
                best_t = 0
                for d in domains:
                    c = d.next_pending_cycle()
                    if c is None:
                        continue
                    t = d.time_of_cycle(c)
                    if best is None or t < best_t:
                        best, best_cycle, best_t = d, c, t
                if best is None:
                    return EXIT_IDLE
                if deadline_ps is not None and best_t >= deadline_ps:
                    return EXIT_TIMEOUT
                if best_t < self.now_ps:
                    raise StructuralError("global time went backwards")
                self.now_ps = best_t
                best.execute_cycle(best_cycle)
        finally:
            self.running = False

    def stats(self):
        return {
            "events_executed": sum(d.events_executed for d in self.domains),
            "laps_completed": sum(d.laps_completed for d in self.domains),
            "overflow_promotions": sum(d.overflow_promotions for d in self.domains),
        }
