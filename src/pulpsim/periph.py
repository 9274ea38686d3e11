"""I/O subsystem: micro-DMA, HyperRAM-style external memory, sim control.

The micro-DMA moves data between L2 and the external device in beat-sized
steps paced in the peripheral clock domain; the beat schedule follows the
configured device bandwidth exactly (cumulative picosecond arithmetic, so
quantization never drifts), with a floor of one beat per peripheral cycle.
Each beat is an event, unless it falls before the engine's horizon: then
the previous beat's callback moves it inline (`ClockDomain.run_ahead`).
Such a run of beats keeps the transfer state in locals, reuses one request
and hands it straight to the handler bound to the `l2` port (the clock
crossing toward L2); `_beat_cycle` holds the pacing rule for every beat.
On the device side a beat reads or writes the device's `contents` directly
at the transfer's device offset, without going through its timed port.
Transfer completion raises an interrupt line on the fabric controller's
interrupt controller.

The external memory is modeled at bandwidth/latency level only: a
capacity, a bit rate and a fixed per-transfer setup time, which its
`access_ps` turns into the one transfer time that its own accesses and the
micro-DMA's beat schedule both use.  The sim-control device gives guest
programs a way to stop the simulation and print.
"""

import mmap

from .component import (Component, RegisterDevice, register, REQUIRED, Request, STATUS_OK,
                        STATUS_ERR)
from .engine import Event, PS_PER_SEC
from .event_unit import line_owner

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
        "size": (int, 0x800000),
        "bandwidth_bits_per_sec": (int, 1600000000),
        "setup_ns": (int, 300),
    }
    COUNTERS = ("reads", "writes")

    def build(self):
        self.base = self.params["base"]
        self.size = self.positive_param("size")
        self.bandwidth = self.positive_param("bandwidth_bits_per_sec")
        self.setup_ps = self.positive_param("setup_ns", 0) * 1000
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
            req.status = STATUS_ERR
            return
        req.latency += -(-self.access_ps(req.size) // self.domain.period_ps)
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
        "size": (int, 0x1000),
        "device": (str, REQUIRED),
        "itc": (str, REQUIRED),
        "itc_line": (int, 1),
        "beat_bytes": (int, 4),
    }
    COUNTERS = ("transfers", "bytes")

    def build(self):
        super().build()
        self.positive_param("beat_bytes")
        self.l2_port = self.add_master("l2")
        self.beat_event = Event(self.path, self._beat)
        self._req = Request()       # reused by every beat; `_beat` sets its fields
        self._req.initiator = self
        self.reset()

    def finalize(self):
        self.device = self.platform.lookup(self.params["device"], "hyperram",
                                           "components.%s.params.device" % self.path)
        self.itc = line_owner(self, "itc", "itc_line")

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
        self.busy(True)
        # the transfer: direction, next L2 address and device offset, bytes
        # left and moved, start time and the previous beat's cycle
        self._tx = tx
        self._l2 = self.regs[UDMA_L2_ADDR]
        self._ext = ext
        self._left = length
        self._done = 0
        self._start_ps = start_ps = self.platform.engine.now_ps
        self._prev = self._beat_cycle(min(self.params["beat_bytes"], length),
                                      self.domain.cycle_at_or_after(start_ps))
        self.log("start %s l2=0x%08x ext=0x%08x len=%d",
                 "tx" if tx else "rx", self._l2, ext, length)
        self.domain.enqueue_at(self.beat_event, self._prev)

    READS = {UDMA_STATUS: RegisterDevice.read_status}
    WRITES = {UDMA_CFG: _program}

    def _beat_cycle(self, done, prev):
        """The cycle of the beat after which `done` bytes have moved, when
        the previous beat was at cycle `prev`."""
        # exact cumulative pacing: a beat ends when its bytes have crossed the link
        cycle = self.domain.cycle_at_or_after(self._start_ps + self.device.access_ps(done))
        return cycle if cycle > prev else prev + 1      # at most one beat per cycle

    def _beat(self, ev):
        """Move one beat; while the next beat is due before the engine's
        horizon, move it here too (engine module docstring).  The transfer
        state lives in locals meanwhile and is written back on exit."""
        dom = self.domain
        req = self._req
        l2_handler = self.l2_port.binding.handler
        contents = self.device.contents
        step = self.params["beat_bytes"]
        tx = self._tx
        l2, ext, left, done, prev = self._l2, self._ext, self._left, self._done, self._prev
        req.is_write = not tx
        while True:
            nbytes = step if step < left else left
            req.addr = l2
            req.size = nbytes
            req.latency = 0
            req.status = STATUS_OK
            if tx:
                l2_handler(req)
                if req.status == STATUS_OK:
                    contents[ext:ext + nbytes] = req.value.to_bytes(nbytes, "little")
            else:
                req.value = int.from_bytes(contents[ext:ext + nbytes], "little")
                l2_handler(req)
            if req.status != STATUS_OK:
                break
            l2 += nbytes
            ext += nbytes
            left -= nbytes
            done += nbytes
            if not left:
                break
            prev = self._beat_cycle(done + (step if step < left else left), prev)
            if prev >= dom.horizon_cycle or not dom.run_ahead(prev, prev - dom.cycle):
                dom.enqueue_at(ev, prev)
                break
        self.bytes += done - self._done
        if left and req.status == STATUS_OK:
            self._l2, self._ext, self._left, self._done, self._prev = l2, ext, left, done, prev
        else:
            self._finish(error=req.status != STATUS_OK)

    def _finish(self, error):
        self.status = UDMA_ERR if error else 0
        self.busy(False)
        self.log("done status=%s", "error" if error else "ok")
        self.itc.set_line(self.params["itc_line"])


@register
class SimControl(Component):
    """Program-controlled exit and console output."""

    kind = "sim-control"
    PARAMS = {
        "base": (int, REQUIRED),
        "size": (int, 0x100),
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
            req.status = STATUS_ERR
