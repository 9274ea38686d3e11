"""Banked, word-interleaved memories (TCDM and L2).

Consecutive 4-byte words map to consecutive banks.  Each bank serves one
access per cycle; simultaneous hits on the same bank serialize, each
waiting access paying one cycle per access ahead of it.  Timing never
affects the stored bytes.
"""

from .component import Component, register, REQUIRED, STATUS_ERR
from .errors import ConfigError


@register
class BankedMemory(Component):
    kind = "banked-memory"
    PARAMS = {
        "base": (int, REQUIRED),
        "size": (int, REQUIRED),
        "banks": (int, 16),
        "access_latency": (int, 0),     # constant cycles charged per access
    }

    def build(self):
        base = self.params["base"]
        size = self.params["size"]
        banks = self.params["banks"]
        if banks <= 0 or banks & (banks - 1):
            raise ConfigError("%s: banks must be a power of two, got %d" % (self.path, banks))
        if size % (banks * 4) != 0:
            raise ConfigError("%s: size 0x%x not divisible by banks*4" % (self.path, size))
        self.base = base
        self.size = size
        self.banks = banks
        self.bank_mask = banks - 1
        self.latency = self.positive_param("access_latency", 0)
        self.contents = bytearray(size)
        self.bank_busy = [-1] * banks   # absolute domain cycle each bank is held through
        self.reads = 0
        self.writes = 0
        self.contention_count = 0
        self.add_slave("in", self.handle)

    def finalize(self):
        self.platform.register_backing(self.base, self.size, self)

    def reset(self):
        self.bank_busy = [-1] * self.banks
        self.reads = 0
        self.writes = 0
        self.contention_count = 0

    def bank_of(self, addr):
        return (addr >> 2) & self.bank_mask

    # -- timed access path ------------------------------------------------

    def handle(self, req):
        off = req.addr - self.base
        size = req.size
        if off < 0 or off + size > self.size:
            req.status = STATUS_ERR
            return
        if size in (1, 2, 4):
            if off & (size - 1):
                req.status = STATUS_ERR     # misaligned narrow access
                return
            words = 1
        else:
            words = -(-size // 4)
        at = self.domain.cycle + req.latency
        bank = (off >> 2) & self.bank_mask
        busy = self.bank_busy
        wait = busy[bank] - at + 1
        if wait > 0:
            req.latency += wait
            req.contended = True
            self.contention_count += 1
            at += wait
        extra = words - 1               # one cycle per extra word of a wide request
        req.latency += extra + self.latency
        end = at + extra
        if words == 1:
            busy[bank] = end
        else:
            # a wide access sweeps the banks; hold every touched bank
            for w in range(words):
                b = (bank + w) & self.bank_mask
                if busy[b] < end:
                    busy[b] = end
        if req.is_write:
            self.writes += 1
            if req.data is None:
                self.contents[off:off + size] = req.value.to_bytes(size, "little")
            else:
                self.contents[off:off + size] = req.data[:size]
        else:
            self.reads += 1
            if req.data is None:
                req.value = int.from_bytes(self.contents[off:off + size], "little")
            else:
                req.data[:size] = self.contents[off:off + size]

    # -- untimed access (loader, tests) -------------------------------------

    def peek(self, addr, size):
        off = addr - self.base
        if off < 0 or off + size > self.size:
            raise ValueError("%s: peek out of range 0x%x+%d" % (self.path, addr, size))
        return bytes(self.contents[off:off + size])

    def poke(self, addr, data):
        off = addr - self.base
        if off < 0 or off + len(data) > self.size:
            raise ValueError("%s: poke out of range 0x%x+%d" % (self.path, addr, len(data)))
        self.contents[off:off + len(data)] = data

    def counters(self):
        return {"reads": self.reads, "writes": self.writes,
                "contentions": self.contention_count}
