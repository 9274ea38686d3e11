"""Memory-mapped convolution accelerator with register shadowing.

Programming writes the job registers and a trigger; a second job can be
captured into a shadow slot while one runs and starts at its completion.
The running job (`RegisterDevice.start`), `_run`, streams its tensors
through the TCDM `ports` words per cycle, a chunk of `chunk_cycles` at a
time: each chunk moves its words with one `BankedMemory.stream` call per
tensor it touches, giving each word its issue cycle, so bank conflicts
with the cores are observed and extend the job.  The `tcdm` port must be
bound to the `in` port of one banked memory; it names that memory, in
which every job's tensors must lie, and no request travels through it.

The cycle cost is an analytical model: a fixed setup, a per-output-channel
weight-load term amortized by the load width, and the MAC count divided by
the datapath throughput, floored by the fetch bandwidth of the ports.  The
arithmetic is real: int8 inputs and weights, int32 accumulators, same
padding of k//2 and stride 1, so results are bit-exact against any
reference convolution.
"""

import numpy as np

from .component import RegisterDevice, register, REQUIRED
from .event_unit import line_owner
from .memory import bound_memory

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
    """A job's registers and shape: `spans` holds the (first byte, byte
    count) of the int8 input, int8 weights and int32 output, `span_words`
    the TCDM words each span's bytes touch, and `words` their sum."""

    __slots__ = ("in_ptr", "w_ptr", "out_ptr", "ch_in", "ch_out", "h", "w", "k", "spans",
                 "span_words", "words")

    def __init__(self, regs):
        self.in_ptr = regs[REG_IN]
        self.w_ptr = regs[REG_W]
        self.out_ptr = regs[REG_OUT]
        self.ch_in = cin = regs[REG_CH_IN]
        self.ch_out = cout = regs[REG_CH_OUT]
        self.h = h = regs[REG_H]
        self.w = w = regs[REG_W_DIM]
        self.k = k = regs[REG_KSIZE]
        self.spans = ((self.in_ptr, cin * h * w), (self.w_ptr, cout * cin * k * k),
                      (self.out_ptr, cout * h * w * 4))
        self.span_words = tuple(-(-(ptr % 4 + n) // 4) for ptr, n in self.spans)
        self.words = sum(self.span_words)


@register
class ConvAccelerator(RegisterDevice):
    kind = "conv-accel"
    PARAMS = {
        "base": (int, REQUIRED),
        "size": (int, 0x1000, REG_STATUS + 4),
        "ports": (int, 4, 1),
        "macs_per_cycle": (int, 27, 1),
        "setup_cycles": (int, 100),
        "weight_load_per_cycle": (int, 4, 1),
        "chunk_cycles": (int, 128, 1),
        "event_unit": (str, REQUIRED),
        "event_line": (int, 2),
    }
    COUNTERS = ("jobs", "conflict_cycles")
    SECTION = "accelerators"
    SIGNALS = (("busy", 1),)

    def build(self):
        super().build()
        self.n_ports = self.params["ports"]
        self.tcdm_port = self.add_master("tcdm")

    def reset(self):
        super().reset()
        self.regs = {REG_IN: 0, REG_W: 0, REG_OUT: 0, REG_CH_IN: 0,
                     REG_CH_OUT: 0, REG_H: 0, REG_W_DIM: 0, REG_KSIZE: 0}
        self.status = 0
        self.running = None
        self.shadow = None

    def finalize(self):
        self.event_unit = line_owner(self, "event_unit", "event_line")
        self.mem = bound_memory(self, self.tcdm_port, "port tcdm must be")

    # -- latency model ---------------------------------------------------

    def job_cycles(self, job):
        k2 = job.k * job.k
        filt = -(-job.ch_in * k2 // self.params["weight_load_per_cycle"])
        macs = -(-job.h * job.w * job.ch_in * k2 // self.params["macs_per_cycle"])
        model = self.params["setup_cycles"] + job.ch_out * (filt + macs)
        fetch_floor = -(-job.words // self.n_ports)
        return max(model, fetch_floor)

    def job_valid(self, job):
        if job.k not in (1, 3):
            return False
        if min(job.ch_in, job.ch_out, job.h, job.w) < 1:
            return False
        base, size = self.mem.base, self.mem.size
        if job.out_ptr & 3:
            return False                    # int32 outputs are stored whole words
        return all(base <= a and a + n <= base + size for a, n in job.spans)

    # -- functional convolution -------------------------------------------

    def _compute(self, job):
        plat = self.platform
        cin, cout, h, w, k = job.ch_in, job.ch_out, job.h, job.w, job.k
        x = np.frombuffer(plat.peek(*job.spans[0]), dtype=np.int8)
        x = x.reshape(cin, h, w).astype(np.int32)
        wt = np.frombuffer(plat.peek(*job.spans[1]), dtype=np.int8)
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

    # -- register interface (RegisterDevice) ---------------------------

    def _trigger(self, req):
        self.status &= ~(ST_REJECT | ST_ERROR)
        if self.running is not None and self.shadow is not None:
            self.status |= ST_REJECT        # both slots full: trigger ignored
            return
        job = _Job(self.regs)
        if not self.job_valid(job):
            self.status |= ST_ERROR
            return
        if self.running is None:
            self.start(self._run(job))
        else:
            self.shadow = job
            self.status |= ST_SHADOW

    READS = {REG_STATUS: RegisterDevice.read_attr("status")}
    WRITES = {REG_TRIGGER: _trigger}

    def _run(self, job):
        """The job's chunks, the first one cycle after its start: each
        streams the job's next words and lasts its `chunk_cycles` plus the
        cycles bank conflicts add; the job completes as its last one starts."""
        total = self.job_cycles(job)
        chunk = self.params["chunk_cycles"]
        chunks = max(1, -(-total // chunk))
        # the cycle, from its chunk's start, at which each word of a chunk issues
        offsets = [i // self.n_ports for i in range(-(-job.words // chunks))]
        out = memoryview(self._compute(job).tobytes())
        self.running = job
        self.status |= ST_BUSY
        self.log("job ch_in=%d ch_out=%d %dx%d k=%d cycles=%d",
                 job.ch_in, job.ch_out, job.h, job.w, job.k, total)
        self.signal("busy", True)
        yield 1
        left, done = total, 0
        while True:
            now = self.domain.cycle
            cycles = [now + offset for offset in offsets[:job.words - done]]
            waits = self._stream(job, done, cycles, out)
            self.conflict_cycles += waits
            done += len(cycles)
            step = min(chunk, left)
            left -= step
            if left <= 0:
                break
            yield step + waits
        self._complete(job)

    def _stream(self, job, start, cycles, out):
        """Stream the job's TCDM words from word `start` on, word i at cycle
        `cycles[i]`, `out` holding the output's bytes: one `BankedMemory.stream`
        call per span touched (the input, the weights, then the output).
        Returns the extra cycles implied by bank conflicts."""
        end = start + len(cycles)
        waits = 0
        first = 0
        for (addr, _), count, view in zip(job.spans, job.span_words, (None, None, out)):
            last = first + count
            lo, hi = max(first, start), min(last, end)
            if lo < hi:
                skip = 4 * (lo - first)
                waits += self.mem.stream((addr & ~3) + skip, 4 * (hi - lo), 4,
                                         cycles[lo - start:hi - start],
                                         None if view is None else view[skip:],
                                         view is not None)[1]
            first = last
        return -(-waits // self.n_ports)

    def _complete(self, job):
        self.jobs += 1
        self.running = None
        self.status &= ~ST_BUSY
        self.log("job done")
        if self.shadow is not None:
            nxt = self.shadow
            self.shadow = None
            self.status &= ~ST_SHADOW
            self.start(self._run(nxt))
        else:
            self.signal("busy", False)
        self.event_unit.set_line(self.params["event_line"])
