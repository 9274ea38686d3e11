"""Banked, word-interleaved memories (TCDM and L2).

Consecutive 4-byte words map to consecutive banks.  Each bank serves one
access per cycle; simultaneous hits on the same bank serialize, each
waiting access paying one cycle per access ahead of it.  An access whose
bytes touch more than one word sweeps their banks, one more cycle per
word, and holds each of them through its last cycle; the sweep stops at
one pass over every bank, since a wider access would only come round to
banks it already holds through that cycle.  `handle` serves an aligned
4-byte access inside the memory, the common case, after one test,
without the sweep.  Timing never affects the stored bytes, which a
request of any size moves as one little-endian `value`, and which
`Platform.peek`/`poke` slice untimed.
Both timed paths take absolute issue cycles: `handle` serves a request at
its `at` and advances that to its grant, plus one cycle per extra word,
plus `access_latency`; `stream` serves a run of equal-sized accesses, each
at an issue cycle the device gives, with the timing `handle` gives each
and the bytes moved in one slice.
"""

import struct

from .component import BusError, Component, register, REQUIRED
from .errors import ConfigError

_WORD = struct.Struct("<I")     # a 4-byte `value` access packs in place


@register
class BankedMemory(Component):
    kind = "banked-memory"
    PARAMS = {
        "base": (int, REQUIRED),
        "size": (int, REQUIRED, 1),
        "banks": (int, 16, 1),
        "access_latency": (int, 0),     # constant cycles charged per access
    }
    COUNTERS = ("reads", "writes", "contentions")
    SECTION = "memories"

    def build(self):
        p = self.params
        self.base = p["base"]
        self.size = size = p["size"]
        self.banks = banks = p["banks"]
        if banks & (banks - 1):
            raise ConfigError("%s: banks must be a power of two, got %d" % (self.path, banks))
        if size % (banks * 4) != 0:
            raise ConfigError("%s: size 0x%x not divisible by banks*4" % (self.path, size))
        self.bank_mask = banks - 1
        self.latency = p["access_latency"]
        self.contents = bytearray(size)
        self.add_slave("in", self.handle)

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
        at = req.at
        busy = self.bank_busy
        if size == 4 and not off & 3 and 0 <= off < self.size:
            bank = (off >> 2) & self.bank_mask      # one word, the common case
            wait = busy[bank] - at + 1
            if wait > 0:
                req.contended = True
                self.contentions += 1
                at += wait
            busy[bank] = at
            req.at = at + self.latency
            if req.is_write:
                self.writes += 1
                _WORD.pack_into(self.contents, off, req.value)
            else:
                self.reads += 1
                req.value = _WORD.unpack_from(self.contents, off)[0]
            return
        if off < 0 or off + size > self.size or size in (1, 2, 4) and off & (size - 1):
            raise BusError              # outside the memory, or a misaligned narrow access
        words = ((off + size - 1) >> 2) - (off >> 2) + 1   # the words its bytes touch
        bank = (off >> 2) & self.bank_mask
        wait = busy[bank] - at + 1
        if wait > 0:
            req.contended = True
            self.contentions += 1
            at += wait
        end = at + words - 1            # one cycle per extra word touched
        req.at = end + self.latency
        if words == 1:
            busy[bank] = end
        else:
            # a wide access sweeps the banks, each once; hold every touched bank
            banks = self.banks
            for w in range(words if words < banks else banks):
                b = (bank + w) & self.bank_mask
                if busy[b] < end:
                    busy[b] = end
        if req.is_write:
            self.writes += 1
            self.contents[off:off + size] = req.value.to_bytes(size, "little")
        else:
            self.reads += 1
            req.value = int.from_bytes(self.contents[off:off + size], "little")

    def accepted(self, addr, nbytes, size):
        """How many of the accesses that cut `nbytes` (> 0) bytes from `addr`
        on into `size`-byte pieces, the last one shorter when `size` does
        not divide `nbytes`, `handle` serves before it refuses one: for
        lying outside the memory, or for a 1-, 2- or 4-byte access that is
        not aligned to its size."""
        off = addr - self.base
        full = (nbytes - 1) // size         # the accesses before the last
        if off < 0 or full and off & (size - 1) and size in (1, 2, 4):
            return 0
        if off + nbytes > self.size:        # the first access that ends past the memory
            return min(full, max((self.size - off) // size, 0))
        last = off + size * full            # the last access: its offset and size
        size = nbytes - size * full
        return full if last & (size - 1) and size in (1, 2, 4) else full + 1

    def stream(self, addr, nbytes, size, cycles, data=None, write=False):
        """Serve the accesses `accepted` describes, access j at domain cycle
        `cycles[j]`, in one call.

        Each access gets what `handle` gives a request of its size issued
        at that cycle: the bank wait, the bank sweep of a wide access, the
        `bank_busy` stamp, the counters and the access latency.  The call
        stops after `len(cycles)` accesses, or at the first one `handle`
        would refuse.  A write stores the served bytes from `data`; a read
        copies them into `data` when it is given.  Returns how many accesses
        were served and the summed cycles they took beyond their issue
        cycles.
        """
        served = min(len(cycles), self.accepted(addr, nbytes, size))
        if not served:
            return 0, 0
        off = addr - self.base
        busy = self.bank_busy
        mask, banks = self.bank_mask, self.banks
        waits = contended = 0
        end_off = off + nbytes
        # aligned 1-, 2- or 4-byte accesses each hold one bank, their word's
        narrow = size in (1, 2, 4) and not off & (size - 1)
        for o, at in zip(range(off, off + size * served, size), cycles):
            bank = (o >> 2) & mask
            wait = busy[bank] - at + 1
            if wait > 0:
                waits += wait
                contended += 1
                at += wait
            if narrow:
                busy[bank] = at
                continue
            words = ((min(o + size, end_off) - 1) >> 2) - (o >> 2) + 1
            end = at + words - 1        # a wide access sweeps its banks
            waits += words - 1
            for w in range(words if words < banks else banks):
                b = (bank + w) & mask
                if busy[b] < end:
                    busy[b] = end
        self.contentions += contended
        moved = min(size * served, nbytes)
        if write:
            self.writes += served
            self.contents[off:off + moved] = data[:moved]
        else:
            self.reads += served
            if data is not None:
                data[:moved] = self.contents[off:off + moved]
        return served, waits + served * self.latency


def bound_memory(comp, port, what):
    """The banked memory whose `in` port `port` is bound to; `what` names
    `comp`'s port in the error raised otherwise."""
    slave = port.binding
    if slave.name != "in" or slave.owner.kind != BankedMemory.kind:
        raise ConfigError("components.%s: %s bound to the 'in' port of one banked-memory" % (
            comp.path, what))
    return slave.owner
