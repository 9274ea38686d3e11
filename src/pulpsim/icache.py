"""Set-associative instruction caches with LRU replacement.

One class serves both levels: per-core private L1 instances refill from a
shared L1.5 instance, which refills from L2 across the AXI bridge.  Every
level serializes its refills with the same busy-stamp scheme the memory
banks use; that only ever delays a shared level, since a private L1's core
sends no fetch before its previous refill has issued.  Lines carry real
data, kept as one little-endian int per line: the `value` of the refill
that filled it.  A hit serves its word, or a whole line to the cache
below, by shift and mask without touching anything upstream.

`lines` holds each set's ways, most recently used first, each way a
`[line number, line data]` pair; a line number is unique within its set,
so it serves as the tag.  A hit on the first (MRU) way changes nothing
but `hits`, so a core may serve such a fetch itself (core module
docstring).  A hit on another way moves it to the front, and a refill
puts the LRU way, refilled, there once its upstream access returns.
`flush` (fence.i) invalidates this cache and the instruction cache it
refills from.  `reset`, like `flush`, clears the ways in place, so the
`lines` a core holds since its reset stays this cache's live state.
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
    SECTION = "caches"

    def build(self):
        size = self.params["size"]
        self.ways = self.params["ways"]
        self.line = self.params["line_bytes"]
        if self.line & (self.line - 1):
            raise ConfigError("%s: line_bytes must be a power of two" % self.path)
        if size % (self.ways * self.line):
            raise ConfigError("%s: size %d not divisible by ways*line" % (self.path, size))
        self.sets = size // (self.ways * self.line)
        self.shift, self.mask = self.line.bit_length() - 1, self.line - 1   # line: 2**shift
        self.lines = [[[None, 0] for _ in range(self.ways)] for _ in range(self.sets)]
        self.hit_latency = self.params["hit_latency"]
        self.add_slave("in", self.handle)
        self.refill_port = self.add_master("refill")
        self._refill_req = Request(size=self.line)

    def reset(self):
        super().reset()
        self._invalidate()
        self.busy_until = -1

    def _invalidate(self):
        for ways in self.lines:
            for way in ways:
                way[0] = None

    def handle(self, req):
        addr = req.addr
        size = req.size
        off = addr & self.mask
        if off + size > self.line:
            raise BusError              # a fetch may not straddle a line
        lineno = addr >> self.shift
        ways = self.lines[lineno % self.sets]
        for i, way in enumerate(ways):
            if way[0] == lineno:
                if i:                   # a hit on another way makes it the MRU way
                    ways.insert(0, ways.pop(i))
                req.at += self.hit_latency
                self.hits += 1
                break
        else:
            way = self._refill(req, ways, lineno, addr - off)
        req.value = way[1] >> (off << 3) & ((1 << (size << 3)) - 1)

    def _refill(self, req, ways, lineno, line_addr):
        """Miss: fetch the line from upstream into the set's LRU way and
        make it the MRU way; returns that way."""
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
        victim = ways.pop()
        victim[0] = lineno
        victim[1] = rr.value
        ways.insert(0, victim)
        req.at = rr.at
        return victim

    def flush(self):
        """Invalidate every line, here and in the instruction cache this
        one refills from, so that a refill fetches memory's bytes.  The
        ways are cleared in place: a core holds `lines` (module docstring)."""
        self._invalidate()
        upstream = self.refill_port.binding.owner
        if upstream.kind == self.kind:
            upstream.flush()
