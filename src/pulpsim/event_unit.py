"""Hardware synchronization: event lines, barriers and core sleep/wake.

Event lines are broadcast: setting a line marks it pending for every served
core and wakes all cores blocked on it.  Waiting is a memory-mapped read
that blocks: if nothing is pending the handler raises `Sleep`, and the core
goes to sleep with its pc unchanged and re-executes the read when woken,
so the returned value is decided at wake-up time.  Barriers use the same
sleep path; the release value each sleeper picks up on replay is parked in
a per-core box so a core can never arrive twice for one generation.

The same component doubles as the fabric controller's interrupt
controller (a one-core instance: raise = set line, ack = clear).

Its registers decode through `RegisterDevice`.  Only the per-core ones
look up their initiator's state, keyed by the core itself, and a refused
access raises before it changes any state.

Register map (word offsets from `base`; accesses are 4 bytes):
    0x00 EVT_MASK     rw  per-core wait mask, kept to the n_lines lines
    0x04 EVT_WAIT     r   blocking: returns lowest pending&masked line, clears it
    0x08 EVT_SET      w   set a line (broadcast), from any initiator
    0x0C EVT_ACK      w   clear one pending line of the writing core
    0x10 EVT_STATUS   r   pending lines of the reading core
    0x14 BARRIER_MASK rw  participating cores (bit per core index), kept to them
    0x18 BARRIER_TRIG r   blocking: arrive; returns the new generation
    0x1C BARRIER_STATUS r arrived bitmask
    0x20 NB_CORES     r   number of served cores
Errors raise `BusError`: a per-core access from an initiator the unit does
not serve (it reads EVT_MASK and EVT_STATUS as 0), a line number out of
range, EVT_WAIT with an empty mask, an arrival outside the barrier mask,
and any other size, offset or direction.  The arrival that completes the
barrier mask returns the new generation and wakes every other core asleep
in the barrier.
"""

from .component import BusError, RegisterDevice, register, REQUIRED, Sleep
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
    __slots__ = ("core", "bit", "mask", "pending", "wait_kind", "release")

    def __init__(self, core, bit):
        self.core = core
        self.bit = bit              # the core's bit in the barrier registers
        self.mask = 0
        self.pending = 0
        self.wait_kind = None       # None | "evt" | "barrier"
        self.release = None         # parked barrier generation for replay


@register
class EventUnit(RegisterDevice):
    kind = "event-unit"
    PARAMS = {
        "base": (int, REQUIRED),
        "size": (int, 0x1000, NB_CORES + 4),
        "n_lines": (int, 16, 1),
        "cores": (list, REQUIRED),
    }
    COUNTERS = ("barriers_passed", "events_set")
    SECTION = "event_units"

    def build(self):
        super().build()
        self.n_lines = self.params["n_lines"]

    def finalize(self):
        self.state_of = {}          # served core -> its _CoreState
        for i, path in enumerate(self.params["cores"]):
            core = self.platform.lookup(path, "riscv-core",
                                        "components.%s.params.cores" % self.path)
            if core in self.state_of:
                raise ConfigError("components.%s.params.cores: '%s' is listed twice" % (
                    self.path, path))
            self.state_of[core] = _CoreState(core, 1 << i)
        self.states = self.state_of.values()
        self.n_cores = len(self.states)
        self.all_mask = (1 << self.n_cores) - 1

    def reset(self):
        super().reset()
        for st in self.states:
            st.mask = 0
            st.pending = 0
            st.wait_kind = None
            st.release = None
        self.barrier_mask = self.all_mask
        self.barrier_arrived = 0
        self.generation = 0

    # -- wires from other components (DMA, accelerator, micro-DMA) ---------

    def set_line(self, line):
        """Mark a line pending for every core and wake cores blocked on it."""
        bit = 1 << line
        self.events_set += 1
        for st in self.states:
            st.pending |= bit
            if st.wait_kind == "evt" and st.mask & bit:
                st.wait_kind = None
                st.core.wake()

    # -- register interface (RegisterDevice) ---------------------------

    def _served(self, req):
        """The initiator's state; `BusError` if the unit does not serve it."""
        st = self.state_of.get(req.initiator)
        if st is None:
            raise BusError
        return st

    def _read_mask(self, req):
        st = self.state_of.get(req.initiator)
        req.value = st.mask if st is not None else 0

    def _read_pending(self, req):
        st = self.state_of.get(req.initiator)
        req.value = st.pending if st is not None else 0

    def _write_mask(self, req):
        self._served(req).mask = req.value & ((1 << self.n_lines) - 1)

    def _set(self, req):
        if not 0 <= req.value < self.n_lines:
            raise BusError
        self.set_line(req.value)

    def _ack(self, req):
        st = self._served(req)
        if not 0 <= req.value < self.n_lines:
            raise BusError
        st.pending &= ~(1 << req.value)     # ack of a clear line is a no-op

    def _write_barrier_mask(self, req):
        self.barrier_mask = req.value & self.all_mask

    def _wait(self, req):
        st = self._served(req)
        if st.mask == 0:
            raise BusError
        pend = st.pending & st.mask
        if pend:
            line = (pend & -pend).bit_length() - 1
            st.pending &= ~(1 << line)
            st.wait_kind = None
            req.value = line
        else:
            st.wait_kind = "evt"
            raise Sleep

    def _barrier(self, req):
        st = self._served(req)
        if st.release is not None:
            # replay after wake-up: deliver the parked generation
            req.value = st.release
            st.release = None
            st.wait_kind = None
            return
        if not self.barrier_mask & st.bit:
            raise BusError
        self.barrier_arrived |= st.bit
        if self.barrier_arrived & self.barrier_mask == self.barrier_mask:
            self.generation += 1
            self.barriers_passed += 1
            self.barrier_arrived = 0
            for other in self.states:
                if other is not st and other.wait_kind == "barrier":
                    other.release = self.generation
                    other.wait_kind = None
                    other.core.wake()
            req.value = self.generation
        else:
            st.wait_kind = "barrier"
            raise Sleep

    READS = {EVT_MASK: _read_mask, EVT_WAIT: _wait, EVT_STATUS: _read_pending,
             BARRIER_MASK: RegisterDevice.read_attr("barrier_mask"), BARRIER_TRIG: _barrier,
             BARRIER_STATUS: RegisterDevice.read_attr("barrier_arrived"),
             NB_CORES: RegisterDevice.read_attr("n_cores")}
    WRITES = {EVT_MASK: _write_mask, EVT_SET: _set, EVT_ACK: _ack,
              BARRIER_MASK: _write_barrier_mask}


def line_owner(comp, unit, line):
    """The event unit that `comp`'s param `unit` names, once `comp`'s int
    param `line` is checked to be one of its lines."""
    owner = comp.platform.lookup(comp.params[unit], EventUnit.kind,
                                 "components.%s.params.%s" % (comp.path, unit))
    if comp.params[line] >= owner.n_lines:
        raise ConfigError("components.%s: %s must be a line of %s (0 to %d), got %d" % (
            comp.path, line, owner.path, owner.n_lines - 1, comp.params[line]))
    return owner
