"""Reference event unit, written from the register map in the docstring of
`pulpsim/event_unit.py`.

It keeps sets where the device keeps bitmasks: per served core the lines
it waits on, its pending lines, what it sleeps in and the barrier
generation parked for its replay; for the unit the barrier's participants,
its arrivals and its generation.  `access` serves one 4-byte register
access and returns what the device's handler reports, plus the cores it
wakes.
"""

EVT_MASK, EVT_WAIT, EVT_SET, EVT_ACK, EVT_STATUS = 0x00, 0x04, 0x08, 0x0C, 0x10
BARRIER_MASK, BARRIER_TRIG, BARRIER_STATUS, NB_CORES = 0x14, 0x18, 0x1C, 0x20


def bits(members):
    return sum(1 << i for i in members)


def members(value, count):
    return {i for i in range(count) if value >> i & 1}


class RefEventUnit:
    def __init__(self, n_cores, n_lines):
        self.n_cores = n_cores
        self.n_lines = n_lines
        self.waits_on = [set() for _ in range(n_cores)]
        self.pending = [set() for _ in range(n_cores)]
        self.asleep_in = [None] * n_cores       # None, "event" or "barrier"
        self.parked = [None] * n_cores
        self.participants = set(range(n_cores))
        self.arrived = set()
        self.generation = 0

    def access(self, core, write, offset, value):
        """Serve one access from served core `core` (None for any other
        initiator).  Returns (ok, value, sleep, woken): a write's value is
        the one written, a failed or sleeping read's 0."""
        self.woken = set()
        self.sleep = False
        if write:
            ok = self._write(core, offset, value)
        else:
            value = self._read(core, offset)
            ok = value is not None
            value = value or 0
        return ok, value, self.sleep, self.woken

    def _write(self, core, offset, value):
        if offset == EVT_SET and value < self.n_lines:
            for c in range(self.n_cores):
                self.pending[c].add(value)
                if self.asleep_in[c] == "event" and value in self.waits_on[c]:
                    self._wake(c)
            return True
        if offset == EVT_ACK and core is not None and value < self.n_lines:
            self.pending[core].discard(value)
            return True
        if offset == EVT_MASK and core is not None:
            self.waits_on[core] = members(value, self.n_lines)
            return True
        if offset == BARRIER_MASK:
            self.participants = members(value, self.n_cores)
            return True
        return False

    def _read(self, core, offset):
        """The value read, or None when the access fails."""
        if offset == EVT_WAIT and core is not None and self.waits_on[core]:
            ready = self.pending[core] & self.waits_on[core]
            if not ready:
                return self._sleep(core, "event")
            line = min(ready)
            self.pending[core].discard(line)
            self.asleep_in[core] = None
            return line
        if offset == BARRIER_TRIG and core is not None:
            return self._arrive(core)
        if offset == EVT_STATUS:
            return bits(self.pending[core]) if core is not None else 0
        if offset == EVT_MASK:
            return bits(self.waits_on[core]) if core is not None else 0
        return {BARRIER_MASK: bits(self.participants), BARRIER_STATUS: bits(self.arrived),
                NB_CORES: self.n_cores}.get(offset)

    def _arrive(self, core):
        if self.parked[core] is not None:
            # the replay of the read a barrier release woke this core from
            generation, self.parked[core] = self.parked[core], None
            self.asleep_in[core] = None
            return generation
        if core not in self.participants:
            return None
        self.arrived.add(core)
        if not self.participants <= self.arrived:
            return self._sleep(core, "barrier")
        self.generation += 1
        self.arrived = set()
        for c in range(self.n_cores):
            if c != core and self.asleep_in[c] == "barrier":
                self.parked[c] = self.generation
                self._wake(c)
        return self.generation

    def _sleep(self, core, what):
        self.asleep_in[core] = what
        self.sleep = True
        return 0

    def _wake(self, core):
        self.asleep_in[core] = None
        self.woken.add(core)
