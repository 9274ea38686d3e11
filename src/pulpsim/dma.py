"""Cluster DMA: autonomous L1<->L2 movement programmed over memory-mapped
registers.

A transfer is split into bursts of at most `max_burst` bytes; each burst
runs as one event issuing a timed read on the source side and a timed write
on the destination side, so bridge bandwidth and bank conflicts shape the
transfer exactly like core traffic would.  The next burst is scheduled
after the accumulated cost of the previous one, and the completion of the
final burst raises a cluster event line.  An optional (stride, count) pair
repeats the 1D transfer over strided rows on the L2 side, which is what
double-buffered tiling needs.

Register map (word offsets from `base`):
    0x00 SRC   0x04 DST   0x08 LEN   0x0C STRIDE   0x10 COUNT
    0x14 CFG/START  (bit0: direction 1 = l1-to-l2, bit1: 2D enable)
    0x18 STATUS     (active transfer count; bit30 reject, bit31 config error)
    0x1C ID         (id of the most recently accepted transfer)
    0x20 TID        (write a transfer id here, then read...)
    0x24 TID_STATUS (1 done, 0 in flight, 2 error, 0xFFFFFFFF unknown)
"""

from .component import (Component, register, REQUIRED, Request, STATUS_OK, STATUS_ERR,
                        MAX_REQUEST_BYTES)
from .engine import Event
from .errors import ConfigError

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


class _Transfer:
    __slots__ = ("tid", "src", "dst", "row_len", "stride", "count", "l1_to_l2",
                 "row", "row_off", "event", "error")

    def __init__(self, tid, src, dst, row_len, stride, count, l1_to_l2):
        self.tid = tid
        self.src = src
        self.dst = dst
        self.row_len = row_len
        self.stride = stride
        self.count = count
        self.l1_to_l2 = l1_to_l2
        self.row = 0
        self.row_off = 0
        self.event = None
        self.error = False


@register
class ClusterDma(Component):
    kind = "cluster-dma"
    PARAMS = {
        "base": (int, REQUIRED),
        "size": (int, 0x1000),
        "max_burst": (int, 256),
        "channels": (int, 4),
        "program_latency": (int, 1),
        "burst_latency": (int, 1),
        "tcdm_base": (int, REQUIRED),
        "tcdm_size": (int, REQUIRED),
        "event_unit": (str, REQUIRED),
        "event_line": (int, 1),
    }

    def build(self):
        self.base = self.params["base"]
        self.max_burst = self.positive_param("max_burst")
        if self.max_burst > MAX_REQUEST_BYTES:
            raise ConfigError("components.%s: max_burst must be at most %d, got %d" % (
                self.path, MAX_REQUEST_BYTES, self.max_burst))
        self.positive_param("channels")
        self.positive_param("program_latency", 0)
        self.positive_param("burst_latency", 0)
        self.add_slave("in", self.handle)
        self.tcdm_port = self.add_master("tcdm")
        self.ext_port = self.add_master("ext")
        self._buf = bytearray(self.max_burst)
        self._regs = {}
        self._reset_state()

    def _reset_state(self):
        self._regs = {REG_SRC: 0, REG_DST: 0, REG_LEN: 0, REG_STRIDE: 0,
                      REG_COUNT: 1, REG_TID: 0}
        self.flags = 0
        self.next_id = 1
        self.last_id = 0
        self.active = {}
        self.failed = set()     # tids of transfers that ended in a bus error
        self.transfers = 0
        self.bytes_moved = 0
        self.contentions = 0
        self._tr = self.platform.trace_enabled(self.path)

    def finalize(self):
        self.event_unit = self.platform.lookup(self.params["event_unit"])
        self.event_unit.check_line_param(self, "event_line")

    def reset(self):
        self._reset_state()

    # -- register interface -------------------------------------------------

    def handle(self, req):
        off = req.addr - self.base
        if req.size != 4:
            req.status = STATUS_ERR
            return
        if req.is_write:
            if off in self._regs:
                self._regs[off] = req.value
            elif off == REG_CFG:
                self._start(req.value)
            else:
                req.status = STATUS_ERR
            return
        if off in self._regs:
            req.value = self._regs[off]
        elif off == REG_STATUS:
            req.value = len(self.active) | self.flags
        elif off == REG_ID:
            req.value = self.last_id
        elif off == REG_TID_STATUS:
            req.value = self.transfer_status(self._regs[REG_TID])
        else:
            req.status = STATUS_ERR

    def transfer_status(self, tid):
        if tid in self.active:
            return 0
        if tid in self.failed:
            return 2
        if 0 < tid < self.next_id:
            return 1
        return 0xFFFFFFFF

    # -- transfer lifecycle ---------------------------------------------------

    def _start(self, cfg):
        self.flags = 0
        length = self._regs[REG_LEN]
        if length == 0:
            self.flags |= FLAG_CONFIG
            return
        if len(self.active) >= self.params["channels"]:
            self.flags |= FLAG_REJECT
            return
        count = self._regs[REG_COUNT] if cfg & 2 else 1
        stride = self._regs[REG_STRIDE] if cfg & 2 else 0
        if count < 1:
            self.flags |= FLAG_CONFIG
            return
        tid = self.next_id
        self.next_id += 1
        self.last_id = tid
        tr = _Transfer(tid, self._regs[REG_SRC], self._regs[REG_DST],
                       length, stride, count, bool(cfg & 1))
        tr.event = Event(self.path, self._burst, tr)
        self.active[tid] = tr
        self.transfers += 1
        if self.platform.vcd is not None:
            self.platform.vcd.flag(self.path, True)
        self.domain.enqueue(tr.event, self.params["program_latency"])
        if self._tr:
            self.platform.trace(self.path, self.domain,
                                "start id=%d src=0x%08x dst=0x%08x len=%d rows=%d" %
                                (tid, tr.src, tr.dst, length, count))

    def _in_tcdm(self, addr):
        return self.params["tcdm_base"] <= addr < \
            self.params["tcdm_base"] + self.params["tcdm_size"]

    def _port_for(self, addr):
        return self.tcdm_port if self._in_tcdm(addr) else self.ext_port

    def _burst(self, ev):
        tr = ev.payload
        chunk = min(self.max_burst, tr.row_len - tr.row_off)
        # the strided (L2) side advances by stride per row; the L1 side is
        # contiguous across rows
        row_ext = tr.row * tr.stride
        row_lin = tr.row * tr.row_len
        if tr.l1_to_l2:
            src = tr.src + row_lin + tr.row_off
            dst = tr.dst + row_ext + tr.row_off
        else:
            src = tr.src + row_ext + tr.row_off
            dst = tr.dst + row_lin + tr.row_off

        buf = memoryview(self._buf)[:chunk]
        req = Request().setup(src, chunk, False, data=buf, initiator=self)
        self._port_for(src).send(req)
        cost = self.params["burst_latency"]
        if req.status == STATUS_OK:
            cost += req.latency
            if req.contended:
                self.contentions += 1
            wreq = Request().setup(dst, chunk, True, data=buf, initiator=self)
            self._port_for(dst).send(wreq)
            if wreq.status == STATUS_OK:
                cost += wreq.latency
                if wreq.contended:
                    self.contentions += 1
            else:
                tr.error = True
        else:
            tr.error = True

        if tr.error:
            self._finish(tr)
            return
        self.bytes_moved += chunk
        tr.row_off += chunk
        if tr.row_off >= tr.row_len:
            tr.row_off = 0
            tr.row += 1
        if tr.row >= tr.count:
            self._finish(tr)
        else:
            self.domain.enqueue(ev, max(1, cost))

    def _finish(self, tr):
        del self.active[tr.tid]
        if tr.error:
            self.failed.add(tr.tid)
        if self._tr:
            self.platform.trace(self.path, self.domain, "done id=%d status=%s" %
                                (tr.tid, "error" if tr.error else "done"))
        if self.platform.vcd is not None:
            self.platform.vcd.flag(self.path, bool(self.active))
        self.event_unit.set_line(self.params["event_line"])

    def counters(self):
        return {"transfers": self.transfers, "bytes": self.bytes_moved,
                "contentions": self.contentions}
