"""I/O subsystem: micro-DMA, HyperRAM-style external memory, sim control.

The micro-DMA moves data between L2 and the external device in beat-sized
steps paced in the peripheral clock domain; the beat schedule follows the
configured device bandwidth exactly (cumulative picosecond arithmetic, so
quantization never drifts), with a floor of one beat per peripheral cycle.
Each beat is an event, unless it falls before the engine's horizon: then
the previous beat's callback moves it inline (`ClockDomain.run_ahead`).
Transfer completion raises an interrupt line on the fabric controller's
interrupt controller.

The external memory is modeled at bandwidth/latency level only: a
capacity, a bit rate and a fixed per-transfer setup time.  The sim-control
device gives guest programs a way to stop the simulation and print.
"""

import mmap

from .component import Component, register, REQUIRED, Request, STATUS_OK, STATUS_ERR
from .engine import Event, PS_PER_SEC

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

    def build(self):
        self.base = self.params["base"]
        self.size = self.positive_param("size")
        self.positive_param("bandwidth_bits_per_sec")
        self.contents = mmap.mmap(-1, self.size)
        self.add_slave("in", self.handle)
        self.reads = 0
        self.writes = 0

    def finalize(self):
        self.platform.register_backing(self.base, self.size, self)

    def reset(self):
        self.reads = 0
        self.writes = 0

    def access_ps(self, nbytes):
        bw = self.params["bandwidth_bits_per_sec"]
        return self.params["setup_ns"] * 1000 + -(-nbytes * 8 * PS_PER_SEC // bw)

    def handle(self, req):
        off = req.addr - self.base
        if off < 0 or off + req.size > self.size:
            req.status = STATUS_ERR
            return
        req.latency += -(-self.access_ps(req.size) // self.domain.period_ps)
        if req.is_write:
            self.writes += 1
            if req.data is None:
                self.contents[off:off + req.size] = req.value.to_bytes(req.size, "little")
            else:
                self.contents[off:off + req.size] = req.data[:req.size]
        else:
            self.reads += 1
            if req.data is None:
                req.value = int.from_bytes(self.contents[off:off + req.size], "little")
            else:
                req.data[:req.size] = self.contents[off:off + req.size]

    def peek(self, addr, size):
        off = addr - self.base
        if off < 0 or off + size > self.size:
            raise ValueError("%s: peek out of range" % self.path)
        return bytes(self.contents[off:off + size])

    def poke(self, addr, data):
        off = addr - self.base
        if off < 0 or off + len(data) > self.size:
            raise ValueError("%s: poke out of range" % self.path)
        self.contents[off:off + len(data)] = data

    def counters(self):
        return {"reads": self.reads, "writes": self.writes}


@register
class MicroDma(Component):
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

    def build(self):
        self.base = self.params["base"]
        self.positive_param("beat_bytes")
        self.add_slave("in", self.handle)
        self.l2_port = self.add_master("l2")
        self.beat_event = Event(self.path, self._beat)
        self._req = Request()       # reused by every beat, through setup()
        self.reset()

    def finalize(self):
        self.device = self.platform.lookup(self.params["device"])
        self.itc = self.platform.lookup(self.params["itc"])

    def reset(self):
        self._regs = {UDMA_L2_ADDR: 0, UDMA_EXT_ADDR: 0, UDMA_LEN: 0}
        self.status = 0
        self._cur = None
        self.transfers = 0
        self.bytes_moved = 0
        self._tr = self.platform.trace_enabled(self.path)

    def handle(self, req):
        off = req.addr - self.base
        if req.size != 4:
            req.status = STATUS_ERR
            return
        if req.is_write:
            if off in self._regs:
                self._regs[off] = req.value
            elif off == UDMA_CFG:
                self._program(bool(req.value & 1))
            else:
                req.status = STATUS_ERR
        else:
            if off in self._regs:
                req.value = self._regs[off]
            elif off == UDMA_STATUS:
                req.value = self.status
            else:
                req.status = STATUS_ERR

    def _program(self, tx):
        if self.status & UDMA_BUSY:
            self.status |= UDMA_ERR
            return
        length = self._regs[UDMA_LEN]
        ext = self._regs[UDMA_EXT_ADDR]
        if length == 0 or ext + length > self.device.size:
            self.status |= UDMA_ERR
            return
        self.status = UDMA_BUSY
        self.transfers += 1
        if self.platform.vcd is not None:
            self.platform.vcd.flag(self.path, True)
        start_ps = self.platform.engine.now_ps
        bw = self.device.params["bandwidth_bits_per_sec"]
        self._cur = {
            "tx": tx,
            "l2": self._regs[UDMA_L2_ADDR],
            "ext": self.device.base + ext,
            "left": length,
            "beat": 0,
            "t0": start_ps + self.device.params["setup_ns"] * 1000,
            "bw": bw,
            "prev_cycle": self.domain.cycle_at_or_after(start_ps),
        }
        if self._tr:
            self.platform.trace(self.path, self.domain,
                                "start %s l2=0x%08x ext=0x%08x len=%d" %
                                ("tx" if tx else "rx", self._regs[UDMA_L2_ADDR],
                                 ext, length))
        self.domain.enqueue_at(self.beat_event, self._next_beat_cycle())

    def _next_beat_cycle(self):
        cur = self._cur
        nbytes = min(self.params["beat_bytes"], cur["left"])
        done = cur["beat"] * self.params["beat_bytes"] + nbytes
        # exact cumulative pacing: beat k ends when k*beat_bits/bandwidth has elapsed
        t = cur["t0"] + -(-done * 8 * PS_PER_SEC // cur["bw"])
        cycle = self.domain.cycle_at_or_after(t)
        if cycle <= cur["prev_cycle"]:
            cycle = cur["prev_cycle"] + 1      # at most one beat per cycle
        cur["prev_cycle"] = cycle
        return cycle

    def _beat(self, ev):
        """Move one beat; while the next beat is due before the engine's
        horizon, move it here too (engine module docstring)."""
        cur = self._cur
        dom = self.domain
        req = self._req
        while True:
            nbytes = min(self.params["beat_bytes"], cur["left"])
            if cur["tx"]:
                req.setup(cur["l2"], nbytes, False, initiator=self)
                self.l2_port.send(req)
                if req.status != STATUS_OK:
                    self._finish(error=True)
                    return
                self.device.poke(cur["ext"], req.value.to_bytes(nbytes, "little"))
            else:
                data = self.device.peek(cur["ext"], nbytes)
                req.setup(cur["l2"], nbytes, True, value=int.from_bytes(data, "little"),
                          initiator=self)
                self.l2_port.send(req)
                if req.status != STATUS_OK:
                    self._finish(error=True)
                    return
            self.bytes_moved += nbytes
            cur["l2"] += nbytes
            cur["ext"] += nbytes
            cur["left"] -= nbytes
            cur["beat"] += 1
            if cur["left"] == 0:
                self._finish(error=False)
                return
            cycle = self._next_beat_cycle()
            if cycle >= dom.horizon_cycle or not dom.run_ahead(cycle, cycle - dom.cycle):
                dom.enqueue_at(ev, cycle)
                return

    def _finish(self, error):
        self.status = UDMA_ERR if error else 0
        self._cur = None
        if self.platform.vcd is not None:
            self.platform.vcd.flag(self.path, False)
        if self._tr:
            self.platform.trace(self.path, self.domain,
                                "done status=%s" % ("error" if error else "ok"))
        self.itc.set_line(self.params["itc_line"])

    def counters(self):
        return {"transfers": self.transfers, "bytes": self.bytes_moved}


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
