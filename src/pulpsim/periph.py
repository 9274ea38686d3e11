"""I/O subsystem: micro-DMA, HyperRAM-style external memory, sim control.

The micro-DMA moves data between L2 and the external device in beat-sized
steps paced in the peripheral clock domain; the beat schedule follows the
configured device bandwidth exactly (cumulative picosecond arithmetic, so
quantization never drifts), with a floor of one beat per peripheral cycle.
A window of beats starts with a beat event and takes in each next beat
due before the engine's horizon (`ClockDomain.run_ahead`).  No other
master reaches L2 before the horizon, so a window's beats depend only on
the transfer.  `_pace` computes their cycles in one loop under the pacing
rule; `_beat` converts them with each clock crossing's `arrival` on the
way to L2 and serves them with one `BankedMemory.stream` call, which stops
at the first beat L2 refuses: that beat ends the transfer with an error.
The `l2` port must reach the `in` port of one banked memory through zero
or more clock crossings, each of which takes its source domain from the
masters bound to it: the micro-DMA's domain, then each crossing's.
On the device side the window's bytes move to or from the device's
`contents` in one slice, without going through its timed port.  Transfer
completion raises an interrupt line on the fabric controller's interrupt
controller.

The external memory is modeled at bandwidth/latency level only: a
capacity, a bit rate and a fixed per-transfer setup time, which its
`access_ps` turns into the one transfer time that its own accesses and the
micro-DMA's beat schedule both use.  The sim-control device gives guest
programs a way to stop the simulation and print.
"""

import mmap

from .component import BusError, Component, RegisterDevice, register, REQUIRED
from .engine import Event, PS_PER_SEC
from .errors import ConfigError
from .event_unit import line_owner
from .interconnect import ClockCrossing
from .memory import bound_memory

UDMA_L2_ADDR = 0x00
UDMA_EXT_ADDR = 0x04
UDMA_LEN = 0x08
UDMA_CFG = 0x0C
UDMA_STATUS = 0x10

UDMA_BUSY = 1
UDMA_ERR = 2

SIMCTL_EXIT = 0x0
SIMCTL_PUTC = 0x4


@register
class HyperRam(Component):
    """Bandwidth-limited external memory with a direct (slow) window.

    Its contents are an anonymous memory map: zero pages mapped on demand,
    so untouched bytes read as 0 and cost no host memory.  They survive
    `Platform.reset`, like every memory's."""

    kind = "hyperram"
    PARAMS = {
        "base": (int, REQUIRED),
        "size": (int, 0x800000, 1),
        "bandwidth_bits_per_sec": (int, 1600000000, 1),
        "setup_ns": (int, 300),
    }
    COUNTERS = ("reads", "writes")

    def build(self):
        self.base = self.params["base"]
        self.size = self.params["size"]
        self.bandwidth = self.params["bandwidth_bits_per_sec"]
        self.setup_ps = self.params["setup_ns"] * 1000
        self.contents = mmap.mmap(-1, self.size)
        self.add_slave("in", self.handle)
        self.reset()

    def finalize(self):
        self.platform.register_backing(self.base, self.contents)

    def access_ps(self, nbytes):
        """Picoseconds to move `nbytes` over the link: the setup time, then
        the bytes at the link's bit rate, rounded up."""
        return self.setup_ps + -(-nbytes * 8 * PS_PER_SEC // self.bandwidth)

    def handle(self, req):
        off = req.addr - self.base
        if off < 0 or off + req.size > self.size:
            raise BusError
        req.at += -(-self.access_ps(req.size) // self.domain.period_ps)
        if req.is_write:
            self.writes += 1
            self.contents[off:off + req.size] = req.value.to_bytes(req.size, "little")
        else:
            self.reads += 1
            req.value = int.from_bytes(self.contents[off:off + req.size], "little")


@register
class MicroDma(RegisterDevice):
    """Single-channel I/O DMA between L2 and the external device."""

    kind = "micro-dma"
    PARAMS = {
        "base": (int, REQUIRED),
        "size": (int, 0x1000, UDMA_STATUS + 4),
        "device": (str, REQUIRED),
        "itc": (str, REQUIRED),
        "itc_line": (int, 1),
        "beat_bytes": (int, 4, 1),
    }
    COUNTERS = ("transfers", "bytes")

    def build(self):
        super().build()
        self.l2_port = self.add_master("l2")
        self.beat_event = Event(self.path, self._beat)
        self.reset()

    def finalize(self):
        self.device = self.platform.lookup(self.params["device"], "hyperram",
                                           "components.%s.params.device" % self.path)
        self.itc = line_owner(self, "itc", "itc_line")
        self.ext_view = memoryview(self.device.contents)  # what windows slice
        # the crossings on the way to L2, then L2 itself
        self.hops = []
        port = self.l2_port
        domain = self.domain
        while port.binding.owner.kind == ClockCrossing.kind:
            hop = port.binding.owner
            self.hops.append(hop)
            domain = hop.domain
            port = hop.out
        self.l2 = bound_memory(self, port, "port l2 must be, through clock-crossings,")
        if self.l2.domain is not domain:
            raise ConfigError("components.%s: port l2 reaches %s from domain '%s', not from "
                              "its domain '%s'" % (self.path, self.l2.path, domain.name,
                                                   self.l2.domain.name))

    def reset(self):
        super().reset()
        self.regs = {UDMA_L2_ADDR: 0, UDMA_EXT_ADDR: 0, UDMA_LEN: 0}
        self.status = 0

    # -- register interface (RegisterDevice) ---------------------------

    def _program(self, req):
        tx = bool(req.value & 1)
        if self.status & UDMA_BUSY:
            self.status |= UDMA_ERR
            return
        length = self.regs[UDMA_LEN]
        ext = self.regs[UDMA_EXT_ADDR]
        if length == 0 or ext + length > self.device.size:
            self.status |= UDMA_ERR
            return
        self.status = UDMA_BUSY
        self.transfers += 1
        self.signal("busy", True)
        # the transfer: direction, first L2 address and device offset,
        # length, bytes moved, start time, and the beats it reaches: up to
        # the first one L2 refuses, which ends it
        self._tx = tx
        self._l2 = l2 = self.regs[UDMA_L2_ADDR]
        self._ext = ext
        self._length = length
        self._done = 0
        self._start_ps = start_ps = self.platform.engine.now_ps
        step = self.params["beat_bytes"]
        self._beats = min(-(-length // step), self.l2.accepted(l2, length, step) + 1)
        self.log("start %s l2=0x%08x ext=0x%08x len=%d", "tx" if tx else "rx", l2, ext, length)
        # under a horizon of 0 the first beat cannot run ahead: it is enqueued
        self._pace(0, self.domain.cycle_at_or_after(start_ps), 1, 0)

    READS = {UDMA_STATUS: RegisterDevice.read_status}
    WRITES = {UDMA_CFG: _program}

    def _pace(self, done, prev, count, horizon):
        """Pace up to `count` next beats, after `done` bytes have moved and
        with the beat before them at cycle `prev`.  Returns the cycles of
        those that run ahead (due before cycle `horizon`, and
        `ClockDomain.run_ahead` agrees), and enqueues the beat event at the
        first one that does not."""
        dom = self.domain
        step = self.params["beat_bytes"]
        end = self._length
        start = self._start_ps
        link = self.device.access_ps
        period = dom.period_ps
        run_ahead = dom.run_ahead
        cycles = []
        for done in range(done + step, done + step * (count + 1), step):
            # exact cumulative pacing: a beat ends when its bytes have crossed
            # the link (`cycle_at_or_after`), at most one beat per cycle
            cycle = -(-(start + link(done if done < end else end)) // period)
            prev = cycle if cycle > prev else prev + 1
            if prev >= horizon or not run_ahead(prev, prev - dom.cycle):
                dom.enqueue(self.beat_event, prev - dom.cycle_at_or_after(dom.engine.now_ps))
                break
            cycles.append(prev)
        return cycles

    def _beat(self, ev):
        """Move one run-ahead window of beats: this beat, then each next
        one due before the engine's horizon, up to the first beat L2
        refuses (module docstring)."""
        dom = self.domain
        step = self.params["beat_bytes"]
        done = self._done
        cycles = [dom.cycle, *self._pace(done + step, dom.cycle, self._beats - done // step - 1,
                                         dom.horizon_cycle)]
        for hop in self.hops:
            hop.crossings += len(cycles)
            arrival = hop.arrival
            cycles = [arrival(cycle) for cycle in cycles]
        left = self._length - done
        nbytes = min(step * len(cycles), left)
        ext = self._ext + done
        served, _ = self.l2.stream(self._l2 + done, nbytes, step, cycles,
                                   self.ext_view[ext:ext + nbytes], not self._tx)
        moved = min(step * served, left)
        self.bytes += moved
        self._done = done + moved
        refused = served < len(cycles)
        if refused or moved == left:
            self._finish(error=refused)

    def _finish(self, error):
        self.status = UDMA_ERR if error else 0
        self.signal("busy", False)
        self.log("done status=%s", "error" if error else "ok")
        self.itc.set_line(self.params["itc_line"])


@register
class SimControl(Component):
    """Program-controlled exit and console output."""

    kind = "sim-control"
    PARAMS = {
        "base": (int, REQUIRED),
        "size": (int, 0x100, SIMCTL_PUTC + 4),
    }

    def build(self):
        self.base = self.params["base"]
        self.add_slave("in", self.handle)

    def handle(self, req):
        off = req.addr - self.base
        if off == SIMCTL_EXIT:
            if req.is_write:
                self.platform.engine.post_exit(req.value)
            else:
                req.value = 0
        elif off == SIMCTL_PUTC:
            if req.is_write:
                self.platform.putc(req.value & 0xFF)
            else:
                req.value = 0
        else:
            raise BusError
