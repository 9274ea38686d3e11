"""Interconnect components: routers and clock-domain crossings.

Routers decode addresses to output ports, charge a traversal latency and
model contention deterministically as bandwidth occupancy: each forwarded
request holds the router busy for size/bandwidth cycles and later requests
queue behind that stamp.  A router's `in` handler is a chain of windows,
one per mapping in mapping order, that `build_windows` makes once at
build time: a window whose range holds the address charges the router and
calls its slave's handler, any other passes the request on to the next
window, and a request that no window holds raises `BusError` and charges
nothing.  Banked memories take many masters on one slave port and do
their own per-bank accounting, so no fan-in component sits in front of
them.
"""

from .component import BusError, Component, register, as_int, REQUIRED
from .errors import ConfigError


def resolve_mappings(path, mappings, components):
    """Router `mappings` as [(base, size, port)], in order.

    An explicit entry has exactly base/size (ints or 0x strings) and port,
    a string.  A {"target": path} entry has no other key: it takes
    base/size from that entry of `components` (descriptor form, path ->
    {"kind", "domain", "params"}) and names its port after the target,
    with "/" replaced by "_".
    """
    out = []
    for i, m in enumerate(mappings):
        where = "components.%s.params.mappings[%d]" % (path, i)
        if not isinstance(m, dict):
            raise ConfigError("%s: expected object, got %r" % (where, m))
        unknown = m.keys() - ({"target"} if "target" in m else {"base", "size", "port"})
        if unknown:
            raise ConfigError("%s: unknown keys %s (a mapping takes %s)" % (
                where, sorted(unknown), "only target" if "target" in m else "base, size and port"))
        if "target" in m:
            target = m["target"]
            entry = components.get(target) if isinstance(target, str) else None
            if entry is None:
                raise ConfigError("%s: unknown target %r" % (where, target))
            tp = entry["params"]
            if "base" not in tp or "size" not in tp:
                raise ConfigError("%s: target '%s' has no base/size" % (where, target))
            out.append((tp["base"], tp["size"], target.replace("/", "_")))
        else:
            try:
                base, size, port = (as_int(m["base"], where + ".base"),
                                    as_int(m["size"], where + ".size"), m["port"])
            except KeyError as e:
                raise ConfigError("%s: mapping needs target or base/size/port (missing %s)"
                                  % (where, e)) from None
            if not isinstance(port, str):
                raise ConfigError("%s.port: expected string, got %r" % (where, port))
            out.append((base, size, port))
    return out


def check_overlaps(path, ranges):
    """Reject two (base, size, port) ranges of one router that intersect."""
    for i, (b1, s1, n1) in enumerate(ranges):
        for b2, s2, n2 in ranges[i + 1:]:
            if b1 < b2 + s2 and b2 < b1 + s1:
                raise ConfigError(
                    "components.%s: address ranges of '%s' [0x%x,0x%x) and "
                    "'%s' [0x%x,0x%x) overlap" % (path, n1, b1, b1 + s1, n2, b2, b2 + s2))


def check_loops(components):
    """Refuse a request path that reaches a component already on it.

    Follows every address from each component through the routers and
    clock crossings its ports are bound to: a router passes on the part of
    the range each mapping covers, a crossing all of it.  Needs every
    master port bound."""
    def follow(comp, lo, hi, path):
        if comp in path:
            raise ConfigError("request path [0x%x,0x%x) loops: %s" % (
                lo, hi, " -> ".join(c.path for c in path + [comp])))
        if comp.kind == Router.kind:
            routes = comp.mappings
        else:
            routes = [(0, 1 << 32, comp.out)] if comp.kind == ClockCrossing.kind else []
        for base, size, out in routes:
            start, end = max(lo, base), min(hi, base + size)
            if start < end:
                follow(out.binding.owner, start, end, path + [comp])

    for comp in components:
        follow(comp, 0, 1 << 32, [])


@register
class Router(Component):
    """Address-decoding crossbar with per-traversal latency and occupancy.

    `mappings` is a list of {"base", "size", "port"} dicts with int base and
    size (the builder resolves the descriptor's {"target"} entries); output
    ports are created from it.  bandwidth_bytes_per_cycle = 0 disables
    occupancy modeling (a fully parallel crossbar).

    The `in` handler is the chain of windows that `build_windows` makes
    once every binding is made, one window per mapping in mapping order.
    The window that holds a request's address charges the occupancy, adds
    the latency, counts the request in `forwarded` and calls the handler
    of the slave its port is bound to.  A request that no window holds is
    refused with `BusError`, and the router charges it nothing.
    """

    kind = "router"
    PARAMS = {
        "latency": (int, 1),
        "bandwidth_bytes_per_cycle": (int, 0),
        "mappings": (list, REQUIRED),
    }
    COUNTERS = ("forwarded", "queued_cycles")
    SECTION = "routers"

    def build(self):
        self.latency = self.params["latency"]
        self.bandwidth = self.params["bandwidth_bytes_per_cycle"]
        ranges = [(m["base"], m["size"], m["port"]) for m in self.params["mappings"]]
        check_overlaps(self.path, ranges)
        self.mappings = []
        for base, size, port in ranges:
            out = self.ports.get(port) or self.add_master(port)
            self.mappings.append((base, size, out))
        self.add_slave("in", _miss)     # until build_windows
        self.windowed = False

    def reset(self):
        super().reset()
        self.busy_until = -1

    def build_windows(self):
        """Make the `in` handler the chain of windows, once; every mapping's
        port must be bound.  A window calls the handler that its port's
        slave holds now, so the routers those ports reach make their
        windows first."""
        if self.windowed:
            return
        for _, _, out in self.mappings:
            if out.binding.owner.kind == self.kind:
                out.binding.owner.build_windows()
        chain = _miss
        for base, size, out in reversed(self.mappings):
            chain = self._window(base, base + size, out.binding.handler, chain)
        self.ports["in"].handler = chain
        self.windowed = True

    def _window(self, lo, hi, forward, miss):
        """The handler that serves the addresses [lo, hi) and passes every
        other request to `miss`."""
        router, latency, bandwidth = self, self.latency, self.bandwidth

        def window(req):
            if lo <= req.addr < hi:
                at = req.at
                if bandwidth:
                    queuing = router.busy_until - at
                    if queuing > 0:
                        router.queued_cycles += queuing
                        at += queuing
                    router.busy_until = at + (-(-req.size // bandwidth))
                req.at = at + latency
                router.forwarded += 1
                forward(req)
            else:
                miss(req)
        return window


def _miss(req):
    raise BusError


@register
class ClockCrossing(Component):
    """One-directional request bridge between two clock domains.

    A request's `at`, a source cycle, fixes its global arrival time;
    service on the destination side starts at the next destination edge
    at or after it (plus an optional synchronizer penalty), which
    `arrival` computes for `handle` and for the micro-DMA's windows of
    beats.  The response converts back to the first source edge at or
    after its `at`, never before the request's.  Neither reads a domain's
    counter.  The component lives in the *destination* domain: its `out`
    is bound to a component of that domain or to another crossing.  The
    source domain is the one domain of the masters bound to its `in`.
    """

    kind = "clock-crossing"
    PARAMS = {
        "crossing_latency": (int, 0),   # extra destination cycles per crossing
    }
    COUNTERS = ("crossings",)
    SECTION = "crossings"

    def build(self):
        self.latency = self.params["crossing_latency"]
        self.add_slave("in", self.handle)
        self.out = self.add_master("out")
        self.src = None                 # resolved in finalize

    def finalize(self):
        sources = {m.owner.domain for m in self.ports["in"].masters}
        if len(sources) > 1:
            raise ConfigError("components.%s: masters from domains %s bound to its in" % (
                self.path, ", ".join(sorted("'%s'" % d.name for d in sources))))
        target = self.out.binding.owner     # a crossing takes any domain's requests
        if target.domain is not self.domain and target.kind != self.kind:
            raise ConfigError("components.%s: out bound to %s in domain '%s', not in its "
                              "domain '%s'" % (self.path, target.path, target.domain.name,
                                               self.domain.name))
        self.src = next(iter(sources), None)    # None: no master, no request

    def arrival(self, src_cycle):
        """The destination cycle at which a request that leaves the source
        side at `src_cycle` is served; changes nothing."""
        # `cycle_at_or_after` of the source edge's time
        return -(-self.src.period_ps * src_cycle // self.domain.period_ps) + self.latency

    def handle(self, req):
        issued = req.at
        req.at = self.arrival(issued)
        self.crossings += 1
        try:
            self.out.binding.handler(req)
        finally:    # also on a raise, so that a read that sleeps pays its way back
            req.at = max(issued, self.src.cycle_at_or_after(self.domain.time_of_cycle(req.at)))
