"""Naive reference event engines: a single fully-ordered priority queue.

Used to cross-check the clock engine: both run the same randomized
schedule.  OrderedQueueEngine has one domain, and the engine must execute
the same events in the same order.  GlobalTimeQueueEngine orders several
domains by global time, and the engine must execute the same multiset of
events at every cycle (intra-cycle order is not compared).
"""

import heapq


class OrderedQueueEngine:
    def __init__(self):
        self.heap = []
        self.seq = 0
        self.cycle = 0
        self.log = []   # (cycle, event_id)

    def schedule(self, event_id, delta):
        self.seq += 1
        heapq.heappush(self.heap, (self.cycle + delta, self.seq, event_id))

    def run(self, spawn):
        """`spawn(event_id)` returns [(delta, child_id), ...] for each event."""
        while self.heap:
            cycle, _, eid = heapq.heappop(self.heap)
            self.cycle = cycle
            self.log.append((cycle, eid))
            for delta, child in spawn(eid):
                self.schedule(child, delta)
        return self.log


class GlobalTimeQueueEngine:
    """Several clock domains on one queue ordered by global time.

    A delta counts from the first edge of the target domain at or after
    the current time, which for the domain running the scheduler is its
    current cycle.  Events at equal time run in domain order, then in
    scheduling order.
    """

    def __init__(self, periods_ps):
        self.periods = periods_ps
        self.heap = []
        self.seq = 0
        self.now_ps = 0
        self.log = []   # (domain index, cycle, event_id)

    def schedule(self, domain, event_id, delta):
        period = self.periods[domain]
        cycle = -(-self.now_ps // period) + delta
        self.seq += 1
        heapq.heappush(self.heap, (cycle * period, domain, self.seq, cycle, event_id))

    def run(self, spawn):
        """`spawn(event_id)` returns [(domain, delta, child_id), ...]."""
        while self.heap:
            t, domain, _, cycle, eid = heapq.heappop(self.heap)
            assert t >= self.now_ps
            self.now_ps = t
            self.log.append((domain, cycle, eid))
            for child_domain, delta, child in spawn(eid):
                self.schedule(child_domain, child, delta)
        return self.log
