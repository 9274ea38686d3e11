"""Memory-mapped convolution accelerator with register shadowing.

Programming writes the job registers and a trigger; a second job can be
captured into a shadow slot while one runs and starts at its completion.
The running job streams its tensors over dedicated TCDM ports in
word-sized requests (a few words per cycle, matching the port count), so
bank conflicts with the cores are observed and extend the job.

The cycle cost is an analytical model: a fixed setup, a per-output-channel
weight-load term amortized by the load width, and the MAC count divided by
the datapath throughput, floored by the fetch bandwidth of the ports.  The
arithmetic is real: int8 inputs and weights, int32 accumulators, same
padding of k//2 and stride 1, so results are bit-exact against any
reference convolution.
"""

import numpy as np

from .component import Component, register, REQUIRED, Request, STATUS_OK, STATUS_ERR
from .engine import Event

REG_IN = 0x00
REG_W = 0x04
REG_OUT = 0x08
REG_CH_IN = 0x0C
REG_CH_OUT = 0x10
REG_H = 0x14
REG_W_DIM = 0x18
REG_KSIZE = 0x1C
REG_TRIGGER = 0x20
REG_STATUS = 0x24

ST_BUSY = 1
ST_SHADOW = 2
ST_ERROR = 4
ST_REJECT = 8


class _Job:
    __slots__ = ("in_ptr", "w_ptr", "out_ptr", "ch_in", "ch_out", "h", "w",
                 "k", "cycles_left", "chunks", "words", "words_done", "out_view")

    def __init__(self, regs):
        self.in_ptr = regs[REG_IN]
        self.w_ptr = regs[REG_W]
        self.out_ptr = regs[REG_OUT]
        self.ch_in = regs[REG_CH_IN]
        self.ch_out = regs[REG_CH_OUT]
        self.h = regs[REG_H]
        self.w = regs[REG_W_DIM]
        self.k = regs[REG_KSIZE]


@register
class ConvAccelerator(Component):
    kind = "conv-accel"
    PARAMS = {
        "base": (int, REQUIRED),
        "size": (int, 0x1000),
        "ports": (int, 4),
        "macs_per_cycle": (int, 27),
        "setup_cycles": (int, 100),
        "weight_load_per_cycle": (int, 4),
        "chunk_cycles": (int, 128),
        "tcdm_base": (int, REQUIRED),
        "tcdm_size": (int, REQUIRED),
        "event_unit": (str, REQUIRED),
        "event_line": (int, 2),
    }

    def build(self):
        self.base = self.params["base"]
        self.n_ports = self.positive_param("ports")
        for name in ("macs_per_cycle", "weight_load_per_cycle", "chunk_cycles"):
            self.positive_param(name)
        self.positive_param("setup_cycles", 0)
        self.add_slave("in", self.handle)
        self.mem_ports = [self.add_master("mem%d" % i) for i in range(self.n_ports)]
        self.job_event = Event(self.path, self._chunk)
        self._req = Request()
        self._reset_state()

    def _reset_state(self):
        self._regs = {REG_IN: 0, REG_W: 0, REG_OUT: 0, REG_CH_IN: 0,
                      REG_CH_OUT: 0, REG_H: 0, REG_W_DIM: 0, REG_KSIZE: 0}
        self.status = 0
        self.running = None
        self.shadow = None
        self.jobs_done = 0
        self.conflict_cycles = 0
        self._tr = self.platform.trace_enabled(self.path)

    def finalize(self):
        self.event_unit = self.platform.lookup(self.params["event_unit"])
        self.event_unit.check_line_param(self, "event_line")

    def reset(self):
        self._reset_state()

    # -- latency model ---------------------------------------------------

    def job_cycles(self, job):
        k2 = job.k * job.k
        filt = -(-job.ch_in * k2 // self.params["weight_load_per_cycle"])
        macs = -(-job.h * job.w * job.ch_in * k2 // self.params["macs_per_cycle"])
        model = self.params["setup_cycles"] + job.ch_out * (filt + macs)
        fetch_floor = -(-self._traffic_words(job) // self.n_ports)
        return max(model, fetch_floor)

    def _traffic_words(self, job):
        in_b = job.ch_in * job.h * job.w
        w_b = job.ch_out * job.ch_in * job.k * job.k
        out_b = job.ch_out * job.h * job.w * 4
        return -(-(in_b + w_b + out_b) // 4)

    def job_valid(self, job):
        if job.k not in (1, 3):
            return False
        if min(job.ch_in, job.ch_out, job.h, job.w) < 1:
            return False
        base, size = self.params["tcdm_base"], self.params["tcdm_size"]
        spans = [(job.in_ptr, job.ch_in * job.h * job.w),
                 (job.w_ptr, job.ch_out * job.ch_in * job.k * job.k),
                 (job.out_ptr, job.ch_out * job.h * job.w * 4)]
        return all(base <= a and a + n <= base + size for a, n in spans)

    # -- functional convolution -------------------------------------------

    def _compute(self, job):
        plat = self.platform
        cin, cout, h, w, k = job.ch_in, job.ch_out, job.h, job.w, job.k
        x = np.frombuffer(plat.peek(job.in_ptr, cin * h * w), dtype=np.int8)
        x = x.reshape(cin, h, w).astype(np.int32)
        wt = np.frombuffer(plat.peek(job.w_ptr, cout * cin * k * k), dtype=np.int8)
        wt = wt.reshape(cout, cin, k, k).astype(np.int32)
        pad = k // 2
        xp = np.zeros((cin, h + 2 * pad, w + 2 * pad), dtype=np.int32)
        xp[:, pad:pad + h, pad:pad + w] = x
        out = np.zeros((cout, h, w), dtype=np.int64)
        for ky in range(k):
            for kx in range(k):
                window = xp[:, ky:ky + h, kx:kx + w]
                out += np.tensordot(wt[:, :, ky, kx], window, axes=([1], [0]))
        return out.astype(np.int32)

    # -- register interface ---------------------------------------------

    def handle(self, req):
        off = req.addr - self.base
        if req.size != 4:
            req.status = STATUS_ERR
            return
        if req.is_write:
            if off in self._regs:
                self._regs[off] = req.value
            elif off == REG_TRIGGER:
                self._trigger()
            else:
                req.status = STATUS_ERR
            return
        if off in self._regs:
            req.value = self._regs[off]
        elif off == REG_STATUS:
            req.value = self.status
        else:
            req.status = STATUS_ERR

    def _trigger(self):
        self.status &= ~ST_REJECT
        if self.running is not None and self.shadow is not None:
            self.status |= ST_REJECT        # both slots full: trigger ignored
            return
        job = _Job(self._regs)
        if not self.job_valid(job):
            self.status |= ST_ERROR
            return
        if self.running is None:
            self._launch(job)
        else:
            self.shadow = job
            self.status |= ST_SHADOW

    def _launch(self, job):
        total = self.job_cycles(job)
        traffic = self._traffic_words(job)
        job.chunks = max(1, -(-total // self.params["chunk_cycles"]))
        job.cycles_left = total
        job.words = traffic
        job.words_done = 0
        out = self._compute(job)
        job.out_view = out.tobytes()
        self.running = job
        self.status |= ST_BUSY
        if self._tr:
            self.platform.trace(self.path, self.domain,
                                "job ch_in=%d ch_out=%d %dx%d k=%d cycles=%d" %
                                (job.ch_in, job.ch_out, job.h, job.w, job.k, total))
        if self.platform.vcd is not None:
            self.platform.vcd.flag(self.path, True)
        self.domain.enqueue(self.job_event, 1)

    def _chunk(self, ev):
        job = self.running
        step = min(self.params["chunk_cycles"], job.cycles_left)
        words = -(-job.words // job.chunks)
        waits = self._stream(job, min(words, job.words - job.words_done))
        self.conflict_cycles += waits
        job.cycles_left -= step
        if job.cycles_left <= 0:
            self._complete(job)
        else:
            self.domain.enqueue(ev, step + waits)

    def _stream(self, job, words):
        """Issue `words` word-sized TCDM requests, `ports` per cycle slot.

        Returns extra cycles implied by bank conflicts.
        """
        if words <= 0:
            return 0
        in_words = -(-job.ch_in * job.h * job.w // 4)
        w_words = -(-job.ch_out * job.ch_in * job.k * job.k // 4)
        req = self._req
        waits = 0
        for i in range(words):
            n = job.words_done + i
            if n < in_words:
                addr = job.in_ptr + 4 * n
                write = False
            elif n < in_words + w_words:
                addr = job.w_ptr + 4 * (n - in_words)
                write = False
            else:
                out_off = 4 * (n - in_words - w_words)
                addr = job.out_ptr + out_off
                write = True
            port = self.mem_ports[i % self.n_ports]
            pre = i // self.n_ports
            req.setup(addr & ~3, 4, write, initiator=self)
            if write:
                req.value = int.from_bytes(job.out_view[out_off:out_off + 4], "little")
            req.latency = pre
            port.send(req)
            if req.status == STATUS_OK and req.latency > pre:
                waits += req.latency - pre
        job.words_done += words
        return -(-waits // self.n_ports)

    def _complete(self, job):
        self.jobs_done += 1
        self.running = None
        self.status &= ~ST_BUSY
        if self._tr:
            self.platform.trace(self.path, self.domain, "job done")
        if self.shadow is not None:
            nxt = self.shadow
            self.shadow = None
            self.status &= ~ST_SHADOW
            self._launch(nxt)
        elif self.platform.vcd is not None:
            self.platform.vcd.flag(self.path, False)
        self.event_unit.set_line(self.params["event_line"])

    def counters(self):
        return {"jobs": self.jobs_done, "conflict_cycles": self.conflict_cycles}
