"""Hardware synchronization: event lines, barriers and core sleep/wake.

Event lines are broadcast: setting a line marks it pending for every served
core and wakes all cores blocked on it.  Waiting is a memory-mapped read
that blocks: if nothing is pending the core goes to sleep with its pc
unchanged and re-executes the read when woken, so the returned value is
decided at wake-up time.  Barriers use the same sleep path; the release
value each sleeper picks up on replay is parked in a per-core box so a core
can never arrive twice for one generation.

The same component doubles as the fabric controller's interrupt
controller (a one-core instance: raise = set line, ack = clear).

Register map (word offsets from `base`):
    0x00 EVT_MASK     rw  per-core wait mask
    0x04 EVT_WAIT     r   blocking: returns lowest pending&masked line, clears it
    0x08 EVT_SET      w   set a line (broadcast)
    0x0C EVT_ACK      w   clear one pending line of the writing core
    0x10 EVT_STATUS   r   pending lines of the reading core
    0x14 BARRIER_MASK rw  participating cores (bit per core index)
    0x18 BARRIER_TRIG r   blocking: arrive; returns the new generation
    0x1C BARRIER_STATUS r arrived bitmask
    0x20 NB_CORES     r   number of served cores
"""

from .component import Component, register, REQUIRED, STATUS_ERR
from .errors import ConfigError

EVT_MASK = 0x00
EVT_WAIT = 0x04
EVT_SET = 0x08
EVT_ACK = 0x0C
EVT_STATUS = 0x10
BARRIER_MASK = 0x14
BARRIER_TRIG = 0x18
BARRIER_STATUS = 0x1C
NB_CORES = 0x20


class _CoreState:
    __slots__ = ("core", "mask", "pending", "wait_kind", "release")

    def __init__(self, core):
        self.core = core
        self.mask = 0
        self.pending = 0
        self.wait_kind = None       # None | "evt" | "barrier"
        self.release = None         # parked barrier generation for replay


@register
class EventUnit(Component):
    kind = "event-unit"
    PARAMS = {
        "base": (int, REQUIRED),
        "size": (int, 0x1000),
        "n_lines": (int, 16),
        "cores": (list, REQUIRED),
    }

    def build(self):
        self.base = self.params["base"]
        self.n_lines = self.positive_param("n_lines")
        self.add_slave("in", self.handle)
        self.states = []
        self.index_of = {}
        self.barrier_mask = 0
        self.barrier_arrived = 0
        self.generation = 0
        self.barriers_passed = 0
        self.events_set = 0

    def finalize(self):
        self.states = []
        self.index_of = {}
        for i, path in enumerate(self.params["cores"]):
            core = self.platform.lookup(path)
            self.states.append(_CoreState(core))
            self.index_of[core] = i
        self.all_mask = (1 << len(self.states)) - 1
        self.barrier_mask = self.all_mask

    def reset(self):
        for st in self.states:
            st.mask = 0
            st.pending = 0
            st.wait_kind = None
            st.release = None
        self.barrier_mask = self.all_mask
        self.barrier_arrived = 0
        self.generation = 0
        self.barriers_passed = 0
        self.events_set = 0

    # -- wires from other components (DMA, accelerator, micro-DMA) ---------

    def check_line_param(self, comp, name):
        """Reject `comp`'s int param `name` unless it is one of our lines."""
        line = comp.params[name]
        if not 0 <= line < self.n_lines:
            raise ConfigError("components.%s: %s must be a line of %s (0 to %d), got %d" % (
                comp.path, name, self.path, self.n_lines - 1, line))

    def set_line(self, line):
        """Mark a line pending for every core and wake cores blocked on it."""
        if not 0 <= line < self.n_lines:
            raise ConfigError("%s: no event line %d" % (self.path, line))
        bit = 1 << line
        self.events_set += 1
        for st in self.states:
            st.pending |= bit
            if st.wait_kind == "evt" and st.mask & bit:
                st.wait_kind = None
                st.core.wake()

    # -- memory-mapped interface --------------------------------------------

    def handle(self, req):
        off = req.addr - self.base
        if req.size != 4:
            req.status = STATUS_ERR
            return
        st = None
        idx = self.index_of.get(req.initiator)
        if idx is not None:
            st = self.states[idx]

        if req.is_write:
            value = req.value
            if off == EVT_SET:
                if not 0 <= value < self.n_lines:
                    req.status = STATUS_ERR
                    return
                self.set_line(value)
            elif off == EVT_ACK:
                if st is None or not 0 <= value < self.n_lines:
                    req.status = STATUS_ERR
                    return
                st.pending &= ~(1 << value)     # ack of a clear line is a no-op
            elif off == EVT_MASK:
                if st is None:
                    req.status = STATUS_ERR
                    return
                st.mask = value & ((1 << self.n_lines) - 1)
            elif off == BARRIER_MASK:
                self.barrier_mask = value & self.all_mask
            else:
                req.status = STATUS_ERR
            return

        # reads
        if off == EVT_WAIT:
            if st is None:
                req.status = STATUS_ERR
                return
            self._do_wait(req, st)
        elif off == BARRIER_TRIG:
            if st is None:
                req.status = STATUS_ERR
                return
            self._do_barrier(req, st, idx)
        elif off == EVT_STATUS:
            req.value = st.pending if st is not None else 0
        elif off == EVT_MASK:
            req.value = st.mask if st is not None else 0
        elif off == BARRIER_MASK:
            req.value = self.barrier_mask
        elif off == BARRIER_STATUS:
            req.value = self.barrier_arrived
        elif off == NB_CORES:
            req.value = len(self.states)
        else:
            req.status = STATUS_ERR

    def _do_wait(self, req, st):
        if st.mask == 0:
            req.status = STATUS_ERR
            return
        pend = st.pending & st.mask
        if pend:
            line = (pend & -pend).bit_length() - 1
            st.pending &= ~(1 << line)
            st.wait_kind = None
            req.value = line
        else:
            st.wait_kind = "evt"
            req.sleep = True

    def _do_barrier(self, req, st, idx):
        if st.release is not None:
            # replay after wake-up: deliver the parked generation
            req.value = st.release
            st.release = None
            st.wait_kind = None
            return
        bit = 1 << idx
        if not self.barrier_mask & bit:
            req.status = STATUS_ERR
            return
        self.barrier_arrived |= bit
        if self.barrier_arrived & self.barrier_mask == self.barrier_mask:
            self.generation += 1
            self.barriers_passed += 1
            self.barrier_arrived = 0
            for other in self.states:
                if other is st:
                    continue
                if other.wait_kind == "barrier":
                    other.release = self.generation
                    other.wait_kind = None
                    other.core.wake()
            req.value = self.generation
        else:
            st.wait_kind = "barrier"
            req.sleep = True

    def counters(self):
        return {"barriers_passed": self.barriers_passed,
                "events_set": self.events_set}
