"""I/O subsystem: micro-DMA, HyperRAM-style external memory, sim control.

The micro-DMA moves data between L2 and the external device in beat-sized
steps paced in the peripheral clock domain; the beat schedule follows the
configured device bandwidth exactly (cumulative picosecond arithmetic, so
quantization never drifts), with a floor of one beat per peripheral cycle.
A transfer is a job (`RegisterDevice.start`), `_transfer`, that moves one
window of beats each time it resumes: the beat it resumed at, then each
next beat that `ClockDomain.run_ahead` lets it run ahead to, as the job
is alone in its domain and the beat is due strictly before the engine's
bound.  The job's first `yield` waits for the first beat; after that,
the `run_ahead` that refuses a beat stores the job's Event (the one
`start` returned) at that beat, the first of the next window, and the
job ends its turn with a bare `yield`.  No other master reaches L2
before that bound, so a window's beats depend only on the transfer.  The
job converts their cycles with each clock crossing's `arrival` on the
way to L2 and serves them with one `BankedMemory.stream` call, which
stops at the first beat L2 refuses: that beat ends the transfer with an
error.
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
from .engine import PS_PER_SEC
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
    SECTION = "external_memory"

    def build(self):
        self.base = self.params["base"]
        self.size = self.params["size"]
        self.bandwidth = self.params["bandwidth_bits_per_sec"]
        self.setup_ps = self.params["setup_ns"] * 1000
        self.contents = mmap.mmap(-1, self.size)
        self.add_slave("in", self.handle)

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
    SECTION = "udma"
    SIGNALS = (("busy", 1),)

    def build(self):
        super().build()
        self.l2_port = self.add_master("l2")

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
        self._job = None            # the Event of the running transfer

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
        l2 = self.regs[UDMA_L2_ADDR]
        self.log("start %s l2=0x%08x ext=0x%08x len=%d", "tx" if tx else "rx", l2, ext, length)
        self._job = self.start(self._transfer(tx, l2, ext, length))

    READS = {UDMA_STATUS: RegisterDevice.read_attr("status")}
    WRITES = {UDMA_CFG: _program}

    def _transfer(self, tx, l2, ext, length):
        """The job moving `length` bytes between L2 at `l2` and the device at
        `ext`, to the device if `tx`, a run-ahead window of beats at a time
        (module docstring)."""
        dom = self.domain
        step = self.params["beat_bytes"]
        start = dom.engine.now_ps
        link = self.device.access_ps
        period = dom.period_ps
        beats = min(-(-length // step), self.l2.accepted(l2, length, step) + 1)

        def paced():
            # each beat's cycle: when its bytes have crossed the link (exact
            # cumulative pacing), and at least one cycle after the beat before
            prev = dom.cycle_at_or_after(start)
            for done in range(step, step * (beats + 1), step):
                cycle = -(-(start + link(done if done < length else length)) // period)
                prev = cycle if cycle > prev else prev + 1
                yield prev

        beat_cycles = paced()
        prev = next(beat_cycles)
        yield prev - dom.cycle_at_or_after(dom.engine.now_ps)
        ev, run_ahead, done = self._job, dom.run_ahead, 0
        while True:
            cycles = [prev]
            for prev in beat_cycles:
                if not run_ahead(ev, prev):
                    break           # ev is stored at the next window's first beat
                cycles.append(prev)
            for hop in self.hops:
                hop.crossings += len(cycles)
                arrival = hop.arrival
                cycles = [arrival(cycle) for cycle in cycles]
            left = length - done
            nbytes = min(step * len(cycles), left)
            served, _ = self.l2.stream(l2 + done, nbytes, step, cycles,
                                       self.ext_view[ext + done:ext + done + nbytes], not tx)
            moved = min(step * served, left)
            self.bytes += moved
            done += moved
            refused = served < len(cycles)
            if refused or moved == left:
                self._finish(error=refused)
                return
            yield

    def _finish(self, error):
        self.status = UDMA_ERR if error else 0
        self.signal("busy", False)
        self.log("done status=%s", "error" if error else "ok")
        self.itc.set_line(self.params["itc_line"])


@register
class SimControl(RegisterDevice):
    """Program-controlled exit and console output: writing EXIT ends the
    run with the value as its exit status, writing PUTC prints the value's
    low byte.  Both read 0, and only 4-byte accesses are taken."""

    kind = "sim-control"
    PARAMS = {
        "base": (int, REQUIRED),
        "size": (int, 0x100, SIMCTL_PUTC + 4),
    }

    def _read_zero(self, req):
        req.value = 0

    def _exit(self, req):
        self.platform.engine.post_exit(req.value)

    def _putc(self, req):
        self.platform.putc(req.value & 0xFF)

    READS = {SIMCTL_EXIT: _read_zero, SIMCTL_PUTC: _read_zero}
    WRITES = {SIMCTL_EXIT: _exit, SIMCTL_PUTC: _putc}
