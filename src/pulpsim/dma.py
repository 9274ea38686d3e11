"""Cluster DMA: autonomous L1<->L2 movement programmed over memory-mapped
registers.

A transfer is its burst plan, `_bursts`: COUNT rows of LEN bytes, each cut
into bursts of at most `max_burst` bytes, where the L2 side advances by
STRIDE per row (which is what double-buffered tiling needs) and the L1 side
is contiguous across rows; without the 2D flag there is one row.  The
transfer's job (`RegisterDevice.start`), `_transfer`, waits
`program_latency` cycles, then serves the plan a burst at a time: a timed
read on the source side, then a timed write on the destination side, both
issued at the burst's cycle, so bridge bandwidth and bank conflicts shape
the transfer like core traffic would.  The next burst follows after the
cost of the previous one; the transfer ends at the first refused access or
after its last burst, and its end raises a cluster event line.

The TCDM window is the banked memory the `tcdm` port is bound to: a burst
address inside it goes out on `tcdm`, any other on `ext`.

Register map (word offsets from `base`):
    0x00 SRC   0x04 DST   0x08 LEN   0x0C STRIDE   0x10 COUNT
    0x14 CFG/START  (bit0: direction 1 = l1-to-l2, bit1: 2D enable)
    0x18 STATUS     (active transfer count; bit30 reject, bit31 config error)
    0x1C ID         (id of the most recently accepted transfer)
    0x20 TID        (write a transfer id here, then read...)
    0x24 TID_STATUS (1 done, 0 in flight, 2 error, 0xFFFFFFFF unknown)

TID_STATUS remembers only the last TID_WINDOW ids: an older id that is not
in flight reads 0xFFFFFFFF, so the failed ids kept stay bounded.
"""

from .component import BusError, RegisterDevice, register, REQUIRED, Request, MAX_REQUEST_BYTES
from .event_unit import line_owner
from .memory import bound_memory

REG_SRC = 0x00
REG_DST = 0x04
REG_LEN = 0x08
REG_STRIDE = 0x0C
REG_COUNT = 0x10
REG_CFG = 0x14
REG_STATUS = 0x18
REG_ID = 0x1C
REG_TID = 0x20
REG_TID_STATUS = 0x24

FLAG_REJECT = 1 << 30
FLAG_CONFIG = 1 << 31

TID_WINDOW = 256        # how many of the latest transfer ids TID_STATUS knows


def _bursts(src, dst, row_len, stride, count, l1_to_l2, max_burst):
    """Yield (source, destination, size) for each burst of a transfer, in
    issue order: the L2 side advances by `stride` per row, the L1 side is
    contiguous across rows."""
    for row in range(count):
        ext, lin = row * stride, row * row_len
        s, d = (src + lin, dst + ext) if l1_to_l2 else (src + ext, dst + lin)
        for off in range(0, row_len, max_burst):
            yield s + off, d + off, min(max_burst, row_len - off)


@register
class ClusterDma(RegisterDevice):
    kind = "cluster-dma"
    PARAMS = {
        "base": (int, REQUIRED),
        "size": (int, 0x1000, REG_TID_STATUS + 4),
        "max_burst": (int, 256, 1, MAX_REQUEST_BYTES),
        "channels": (int, 4, 1),
        "program_latency": (int, 1),
        "burst_latency": (int, 1),
        "event_unit": (str, REQUIRED),
        "event_line": (int, 1),
    }
    COUNTERS = ("transfers", "bytes", "contentions")
    SECTION = "dma"
    SIGNALS = (("busy", 1),)

    def build(self):
        super().build()
        self.tcdm_port = self.add_master("tcdm")
        self.ext_port = self.add_master("ext")
        # reused by every burst; `_transfer` sets their addr, size and value
        self._read = Request(initiator=self)
        self._write = Request(is_write=True, initiator=self)

    def reset(self):
        super().reset()
        self.regs = {REG_SRC: 0, REG_DST: 0, REG_LEN: 0, REG_STRIDE: 0,
                     REG_COUNT: 1, REG_TID: 0}
        self.flags = 0
        self.next_id = 1
        self.active = {}        # tid -> its running `_transfer`
        self.failed = set()     # tids, within TID_WINDOW, of transfers that ended in a bus error

    def finalize(self):
        self.event_unit = line_owner(self, "event_unit", "event_line")
        self.tcdm = bound_memory(self, self.tcdm_port, "port tcdm must be")

    # -- register interface (RegisterDevice) ---------------------------

    def _read_status(self, req):
        req.value = len(self.active) | self.flags

    def _read_id(self, req):
        req.value = self.next_id - 1

    def _read_tid_status(self, req):
        tid = self.regs[REG_TID]
        req.value = (0 if tid in self.active else 2 if tid in self.failed
                     else 1 if max(1, self.next_id - TID_WINDOW) <= tid < self.next_id
                     else 0xFFFFFFFF)

    # -- transfer lifecycle ---------------------------------------------------

    def _start(self, req):
        cfg = req.value
        self.flags = 0
        length = self.regs[REG_LEN]
        if length == 0:
            self.flags |= FLAG_CONFIG
            return
        if len(self.active) >= self.params["channels"]:
            self.flags |= FLAG_REJECT
            return
        count = self.regs[REG_COUNT] if cfg & 2 else 1
        stride = self.regs[REG_STRIDE] if cfg & 2 else 0
        if count < 1:
            self.flags |= FLAG_CONFIG
            return
        tid = self.next_id
        self.next_id += 1
        self.failed.discard(tid - TID_WINDOW)
        src, dst = self.regs[REG_SRC], self.regs[REG_DST]
        plan = _bursts(src, dst, length, stride, count, bool(cfg & 1), self.params["max_burst"])
        self.active[tid] = job = self._transfer(tid, plan)
        self.transfers += 1
        self.signal("busy", True)
        self.start(job)
        self.log("start id=%d src=0x%08x dst=0x%08x len=%d rows=%d",
                 tid, src, dst, length, count)

    READS = {REG_STATUS: _read_status, REG_ID: _read_id, REG_TID_STATUS: _read_tid_status}
    WRITES = {REG_CFG: _start}

    def _port_for(self, addr):
        tcdm = self.tcdm
        return self.tcdm_port if tcdm.base <= addr < tcdm.base + tcdm.size else self.ext_port

    def _access(self, req, addr, size, at):
        """Issue `req` at cycle `at` to `addr` on the port that serves it."""
        req.addr, req.size, req.at = addr, size, at
        self._port_for(addr).binding.handler(req)
        if req.contended:
            req.contended = False
            self.contentions += 1

    def _transfer(self, tid, plan):
        """The job of transfer `tid`: the bursts of `plan`, the first
        `program_latency` cycles after the start."""
        read, write = self._read, self._write
        delay = self.params["program_latency"]
        for src, dst, size in plan:
            yield delay
            now = self.domain.cycle
            try:
                self._access(read, src, size, now)
                write.value = read.value
                self._access(write, dst, size, now)
            except BusError:
                self._finish(tid, True)
                return
            self.bytes += size
            delay = max(1, self.params["burst_latency"] + (read.at - now) + (write.at - now))
        self._finish(tid, False)

    def _finish(self, tid, error):
        del self.active[tid]
        if error and tid >= self.next_id - TID_WINDOW:
            self.failed.add(tid)
        self.log("done id=%d status=%s", tid, "error" if error else "done")
        self.signal("busy", bool(self.active))
        self.event_unit.set_line(self.params["event_line"])
