"""Set-associative instruction caches with LRU replacement.

One class serves both levels: per-core private L1 instances refill from a
shared L1.5 instance, which refills from L2 across the AXI bridge.  Every
level serializes its refills with the same busy-stamp scheme the memory
banks use; that only ever delays a shared level, since a private L1's core
sends no fetch before its previous refill has issued.  Lines carry real
data, kept as one little-endian int per line: the `value` of the refill
that filled it.  A hit serves its word, or a whole line to the cache
below, by shift and mask without touching anything upstream.

A lookup tries the set's most recently used way first; a hit there leaves
the LRU order as it is, since that way already heads it.  Other hits and
refills move their way to the head of the order.  `flush` (fence.i)
invalidates this cache and the instruction cache it refills from.

Fetch leases.  `handle` leaves the data of the line it served in
`last_line`, and `flush` and `reset`, which change lines without a fetch,
bump `epoch`.  A core that is the only master bound to this cache (its
private L1, core module docstring) leases the line of each fetch it sends
here.  While the epoch holds, it serves a fetch at most `line_bytes - 4`
bytes past the line's base itself, exactly as the MRU hit here would: done
`hit_latency` cycles after its issue, `hits` plus one and the word by
shift and mask.  That is exact because nothing else reaches the cache: the
leased line is still its set's MRU way, an MRU hit changes no state but
`hits`, and any fetch outside the line comes here and leases again.
"""

from .component import BusError, Component, register, Request, MAX_REQUEST_BYTES
from .errors import ConfigError


@register
class InstructionCache(Component):
    kind = "icache"
    PARAMS = {
        "size": (int, 512, 1),
        "ways": (int, 2, 1),
        "line_bytes": (int, 16, 4, MAX_REQUEST_BYTES),     # holds a whole fetch
        "hit_latency": (int, 0),
    }
    COUNTERS = ("hits", "misses", "refills")

    def build(self):
        size = self.params["size"]
        self.ways = self.params["ways"]
        self.line = self.params["line_bytes"]
        if self.line & (self.line - 1):
            raise ConfigError("%s: line_bytes must be a power of two" % self.path)
        if size % (self.ways * self.line):
            raise ConfigError("%s: size %d not divisible by ways*line" % (self.path, size))
        self.sets = size // (self.ways * self.line)
        self.hit_latency = self.params["hit_latency"]
        self.add_slave("in", self.handle)
        self.refill_port = self.add_master("refill")
        self._refill_req = Request(size=self.line)
        self.epoch = 0
        self.last_line = 0
        self.reset()

    def reset(self):
        super().reset()
        self.tags = [[None] * self.ways for _ in range(self.sets)]
        self.data = [[0] * self.ways for _ in range(self.sets)]
        self.lru = [list(range(self.ways)) for _ in range(self.sets)]
        self.busy_until = -1
        self.epoch += 1

    def handle(self, req):
        addr = req.addr
        size = req.size
        off = addr & (self.line - 1)
        if off + size > self.line:
            raise BusError              # a fetch may not straddle a line
        lineno = addr // self.line
        set_i = lineno % self.sets
        tag = lineno // self.sets
        tags = self.tags[set_i]
        order = self.lru[set_i]
        way = order[0]
        if tags[way] == tag:        # MRU hit: the LRU order stays as it is
            req.at += self.hit_latency
            self.hits += 1
        else:
            for way in order:
                if tags[way] == tag:
                    order.remove(way)
                    order.insert(0, way)
                    req.at += self.hit_latency
                    self.hits += 1
                    break
            else:
                way = self._refill(req, set_i, tag, addr - off)
        self.last_line = line = self.data[set_i][way]
        req.value = line >> (off << 3) & ((1 << (size << 3)) - 1)

    def _refill(self, req, set_i, tag, line_addr):
        """Miss: fetch the line from upstream into the LRU way and make it
        the MRU way; returns that way."""
        self.misses += 1
        rr = self._refill_req
        rr.addr = line_addr
        rr.initiator = req.initiator
        at = req.at + self.hit_latency
        if at <= self.busy_until:       # behind the refill issued last
            at = self.busy_until + 1
        self.busy_until = rr.at = at
        self.refill_port.binding.handler(rr)
        req.cache_miss = True
        self.refills += 1
        order = self.lru[set_i]
        victim = order.pop()
        order.insert(0, victim)
        self.tags[set_i][victim] = tag
        self.data[set_i][victim] = rr.value
        req.at = rr.at
        return victim

    def flush(self):
        """Invalidate every line, here and in the instruction cache this
        one refills from, so that a refill fetches memory's bytes."""
        for s in range(self.sets):
            for w in range(self.ways):
                self.tags[s][w] = None
        self.epoch += 1
        upstream = self.refill_port.binding.owner
        if upstream.kind == self.kind:
            upstream.flush()
