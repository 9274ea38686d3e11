"""Set-associative instruction caches with LRU replacement.

One class serves both levels: per-core private L1 instances refill from a
shared L1.5 instance, which refills from L2 across the AXI bridge.  The
shared level serializes simultaneous refills with the same busy-stamp
scheme the memory banks use.  Lines carry real data, kept as one
little-endian int per line (filled at refill), so a hit serves its word by
shift and mask without touching anything upstream.

A lookup tries the set's most recently used way first; a hit there leaves
the LRU order as it is, since that way already heads it.  Other hits and
refills move their way to the head of the order.
"""

from .component import Component, register, Request, STATUS_OK
from .errors import ConfigError


@register
class InstructionCache(Component):
    kind = "icache"
    PARAMS = {
        "size": (int, 512),
        "ways": (int, 2),
        "line_bytes": (int, 16),
        "hit_latency": (int, 0),
        "serialize_refills": (bool, False),
    }

    def build(self):
        size = self.positive_param("size")
        self.ways = self.positive_param("ways")
        self.line = self.positive_param("line_bytes")
        if self.line & (self.line - 1):
            raise ConfigError("%s: line_bytes must be a power of two" % self.path)
        if size % (self.ways * self.line):
            raise ConfigError("%s: size %d not divisible by ways*line" % (self.path, size))
        self.sets = size // (self.ways * self.line)
        self.hit_latency = self.positive_param("hit_latency", 0)
        self.serialize = self.params["serialize_refills"]
        self.add_slave("in", self.handle)
        self.refill_port = self.add_master("refill")
        self._refill_req = Request()
        self._line_buf = bytearray(self.line)
        self._init_arrays()

    def _init_arrays(self):
        self.tags = [[None] * self.ways for _ in range(self.sets)]
        self.data = [[0] * self.ways for _ in range(self.sets)]
        self.lru = [list(range(self.ways)) for _ in range(self.sets)]
        self.busy_until = -1
        self.hits = 0
        self.misses = 0
        self.refills = 0

    def reset(self):
        self._init_arrays()

    def handle(self, req):
        addr = req.addr
        size = req.size
        off = addr & (self.line - 1)
        if off + size > self.line:
            req.status = "error"    # fetch may not straddle a line
            return
        lineno = addr // self.line
        set_i = lineno % self.sets
        tag = lineno // self.sets
        tags = self.tags[set_i]
        order = self.lru[set_i]
        way = order[0]
        if tags[way] == tag:        # MRU hit: the LRU order stays as it is
            req.latency += self.hit_latency
            self.hits += 1
        else:
            for way in order:
                if tags[way] == tag:
                    order.remove(way)
                    order.insert(0, way)
                    req.latency += self.hit_latency
                    self.hits += 1
                    break
            else:
                way = self._refill(req, set_i, tag, addr - off)
                if way is None:
                    return
        value = self.data[set_i][way] >> (off << 3) & ((1 << (size << 3)) - 1)
        if req.data is None:
            req.value = value
        else:
            req.data[:size] = value.to_bytes(size, "little")

    def _refill(self, req, set_i, tag, line_addr):
        """Miss: fetch the line from upstream into the LRU way and make it
        the MRU way.  Returns that way, or None when the refill failed; the
        failure status is then copied to `req`."""
        self.misses += 1
        req.cache_miss = True
        rr = self._refill_req
        rr.setup(line_addr, self.line, False, data=self._line_buf,
                 initiator=req.initiator)
        rr.latency = req.latency + self.hit_latency
        if self.serialize:
            at = self.domain.cycle + rr.latency
            wait = self.busy_until - at + 1
            if wait > 0:
                rr.latency += wait
                at += wait
            self.busy_until = at
        self.refill_port.send(rr)
        if rr.status != STATUS_OK:
            req.status = rr.status
            return None
        self.refills += 1
        order = self.lru[set_i]
        victim = order.pop()
        order.insert(0, victim)
        self.tags[set_i][victim] = tag
        self.data[set_i][victim] = int.from_bytes(self._line_buf, "little")
        req.latency = rr.latency
        if rr.cache_miss:
            req.cache_miss = True
        return victim

    def flush(self):
        for s in range(self.sets):
            for w in range(self.ways):
                self.tags[s][w] = None

    def counters(self):
        return {"hits": self.hits, "misses": self.misses, "refills": self.refills}
