"""Reference router: address decode, latency and bandwidth occupancy, one
request at a time, over plain values (no ports, no handlers)."""


class RefRouter:
    """`mappings` are (base, size, target) entries, searched in order; a
    target is another RefRouter or the name of a sink."""

    def __init__(self, latency, bandwidth, mappings):
        self.latency = latency
        self.bandwidth = bandwidth
        self.mappings = mappings
        self.forwarded = 0
        self.queued_cycles = 0
        self.busy_until = -1

    def handle(self, addr, size, at):
        """(cycle at the sink, sink name) of a request reaching this router
        at cycle `at`.  When no router on the way maps `addr`: (the cycle
        it reached the router that refused it, None)."""
        for base, span, target in self.mappings:
            if base <= addr < base + span:
                break
        else:
            return at, None             # refused: no occupancy charged
        if self.bandwidth:
            queuing = self.busy_until - at
            if queuing > 0:
                self.queued_cycles += queuing
                at += queuing
            self.busy_until = at + (-(-size // self.bandwidth))
        at += self.latency
        self.forwarded += 1
        if isinstance(target, RefRouter):
            return target.handle(addr, size, at)
        return at, target
