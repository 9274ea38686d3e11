"""Banked, word-interleaved memories (TCDM and L2).

Consecutive 4-byte words map to consecutive banks.  Each bank serves one
access per cycle; simultaneous hits on the same bank serialize, each
waiting access paying one cycle per access ahead of it.  Timing never
affects the stored bytes, which a request of any size moves as one
little-endian `value`, and which `Platform.peek`/`poke` slice untimed.  A
streaming device serves a run of word accesses in one `stream` call, under
the same rule as `handle`.
"""

import struct

from .component import Component, register, REQUIRED, STATUS_ERR
from .errors import ConfigError

_WORD = struct.Struct("<I")     # a 4-byte `value` access packs in place


@register
class BankedMemory(Component):
    kind = "banked-memory"
    PARAMS = {
        "base": (int, REQUIRED),
        "size": (int, REQUIRED),
        "banks": (int, 16),
        "access_latency": (int, 0),     # constant cycles charged per access
    }
    COUNTERS = ("reads", "writes", "contentions")

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
        self.add_slave("in", self.handle)
        self.reset()

    def finalize(self):
        self.platform.register_backing(self.base, self.contents)

    def reset(self):
        super().reset()
        self.bank_busy = [-1] * self.banks   # absolute domain cycle each bank is held through

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
            self.contentions += 1
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
            if size == 4:
                _WORD.pack_into(self.contents, off, req.value)
            else:
                self.contents[off:off + size] = req.value.to_bytes(size, "little")
        else:
            self.reads += 1
            if size == 4:
                req.value = _WORD.unpack_from(self.contents, off)[0]
            else:
                req.value = int.from_bytes(self.contents[off:off + size], "little")

    def stream(self, addr, words, slot, per_cycle, out=None):
        """Serve `words` consecutive word accesses from `addr` on, in one call.

        Word j is what `handle` makes of a 4-byte request at `addr + 4*j`
        issued at cycle `domain.cycle + (slot + j) // per_cycle`: the same
        bank wait, `bank_busy` stamp, counters and access latency.  With
        `out` (at least 4*words bytes) the words are writes of
        `out[4*j:4*j + 4]`, else reads whose data nobody needs.  Words outside the memory (or misaligned in it)
        are skipped, as `handle` fails them.  Returns the summed cycles the
        served words took beyond their issue cycle.
        """
        off = addr - self.base
        if off & 3:
            return 0
        first = max(0, -off >> 2)
        last = min(words, (self.size - off) >> 2)
        if first >= last:
            return 0
        busy = self.bank_busy
        mask = self.bank_mask
        now = self.domain.cycle
        word = off >> 2
        waits = 0
        contended = 0
        for j in range(first, last):
            at = now + (slot + j) // per_cycle
            bank = (word + j) & mask
            wait = busy[bank] - at + 1
            if wait > 0:
                waits += wait
                contended += 1
                at += wait
            busy[bank] = at
        self.contentions += contended
        if out is None:
            self.reads += last - first
        else:
            self.writes += last - first
            self.contents[off + 4 * first:off + 4 * last] = out[4 * first:4 * last]
        return waits + (last - first) * self.latency


def bound_memory(comp, ports, what):
    """The banked memory whose `in` port every one of `comp`'s `ports` is
    bound to; `what` names the ports in the error raised otherwise."""
    slaves = {port.binding for port in ports}
    slave = slaves.pop()
    if slaves or slave.name != "in" or slave.owner.kind != BankedMemory.kind:
        raise ConfigError("components.%s: %s bound to the 'in' port of one banked-memory" % (
            comp.path, what))
    return slave.owner
