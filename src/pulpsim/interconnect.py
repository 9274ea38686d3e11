"""Interconnect components: routers and clock-domain crossings.

Routers decode addresses to output ports, charge a traversal latency and
model contention deterministically as bandwidth occupancy: each forwarded
request holds the router busy for size/bandwidth cycles and later requests
queue behind that stamp.  Banked memories take many masters on one slave
port and do their own per-bank accounting, so no fan-in component sits in
front of them.
"""

from .component import Component, register, as_int, REQUIRED, STATUS_ERR
from .errors import ConfigError


def decode(mappings, addr):
    """Pure address lookup over (base, size, port) entries; None on miss."""
    for base, size, port in mappings:
        if base <= addr < base + size:
            return port
    return None


def resolve_mappings(path, mappings, components):
    """Router `mappings` as [(base, size, port)], in order.

    An explicit entry gives base/size (ints or 0x strings) and port.  A
    {"target": path} entry takes base/size from that entry of `components`
    (descriptor form, path -> {"kind", "domain", "params"}) and names its
    port after the target, with "/" replaced by "_".
    """
    out = []
    for i, m in enumerate(mappings):
        where = "components.%s.params.mappings[%d]" % (path, i)
        if not isinstance(m, dict):
            raise ConfigError("%s: expected object, got %r" % (where, m))
        if "target" in m:
            target = m["target"]
            entry = components.get(target)
            if entry is None:
                raise ConfigError("%s: unknown target '%s'" % (where, target))
            tp = entry["params"]
            if "base" not in tp or "size" not in tp:
                raise ConfigError("%s: target '%s' has no base/size" % (where, target))
            out.append((tp["base"], tp["size"], target.replace("/", "_")))
        else:
            try:
                out.append((as_int(m["base"], where + ".base"),
                            as_int(m["size"], where + ".size"), m["port"]))
            except KeyError as e:
                raise ConfigError("%s: mapping needs target or base/size/port (missing %s)"
                                  % (where, e)) from None
    return out


def check_overlaps(path, ranges):
    """Reject two (base, size, port) ranges of one router that intersect."""
    for i, (b1, s1, n1) in enumerate(ranges):
        for b2, s2, n2 in ranges[i + 1:]:
            if b1 < b2 + s2 and b2 < b1 + s1:
                raise ConfigError(
                    "components.%s: address ranges of '%s' [0x%x,0x%x) and "
                    "'%s' [0x%x,0x%x) overlap" % (path, n1, b1, b1 + s1, n2, b2, b2 + s2))


@register
class Router(Component):
    """Address-decoding crossbar with per-traversal latency and occupancy.

    `mappings` is a list of {"base", "size", "port"} dicts with int base and
    size (the builder resolves the descriptor's {"target"} entries); output
    ports are created from it.  bandwidth_bytes_per_cycle = 0 disables
    occupancy modeling (a fully parallel crossbar).
    """

    kind = "router"
    PARAMS = {
        "latency": (int, 1),
        "bandwidth_bytes_per_cycle": (int, 0),
        "mappings": (list, REQUIRED),
    }

    def build(self):
        self.latency = self.positive_param("latency", 0)
        self.bandwidth = self.positive_param("bandwidth_bytes_per_cycle", 0)
        ranges = [(m["base"], m["size"], m["port"]) for m in self.params["mappings"]]
        check_overlaps(self.path, ranges)
        self.mappings = []
        for base, size, port in ranges:
            out = self.ports.get(port) or self.add_master(port)
            self.mappings.append((base, size, out))
        self.add_slave("in", self.handle)
        self.busy_until = -1
        self.forwarded = 0
        self.queued_cycles = 0

    def reset(self):
        self.busy_until = -1
        self.forwarded = 0
        self.queued_cycles = 0

    def handle(self, req):
        out = decode(self.mappings, req.addr)
        if out is None:
            req.status = STATUS_ERR     # bus error; no occupancy charged
            return
        at = self.domain.cycle + req.latency
        queuing = 0
        if self.bandwidth:
            queuing = self.busy_until - at
            if queuing < 0:
                queuing = 0
            self.busy_until = at + queuing + (-(-req.size // self.bandwidth))
            self.queued_cycles += queuing
        req.latency += self.latency + queuing
        self.forwarded += 1
        out.binding.handler(req)

    def counters(self):
        return {"forwarded": self.forwarded, "queued_cycles": self.queued_cycles}


@register
class ClockCrossing(Component):
    """One-directional request bridge between two clock domains.

    The request's accumulated source-side latency fixes its global arrival
    time; service on the destination side starts at the next destination
    edge at or after it (plus an optional synchronizer penalty), and the
    response converts back the same way.  The component lives in the
    *destination* domain; `source_domain` names the other side.
    """

    kind = "clock-crossing"
    PARAMS = {
        "source_domain": (str, REQUIRED),
        "crossing_latency": (int, 0),   # extra destination cycles per crossing
    }

    def build(self):
        self.positive_param("crossing_latency", 0)
        self.add_slave("in", self.handle)
        self.out = self.add_master("out")
        self.src = None                 # resolved in finalize

    def finalize(self):
        self.src = self.platform.domain(self.params["source_domain"])
        self.crossings = 0

    def reset(self):
        self.crossings = 0

    def handle(self, req):
        src = self.src
        dst = self.domain
        entry_ps = src.time_of_cycle(src.cycle + req.latency)
        dst_entry = dst.cycle_at_or_after(entry_ps) + self.params["crossing_latency"]
        src_latency = req.latency
        req.latency = dst_entry - dst.cycle     # arrival expressed in dst cycles
        self.out.send(req)
        done_ps = dst.time_of_cycle(dst.cycle + req.latency)
        req.latency = src.cycle_at_or_after(done_ps) - src.cycle
        if req.latency < src_latency:           # never lose already-paid cycles
            req.latency = src_latency
        self.crossings += 1

    def counters(self):
        return {"crossings": self.crossings}
