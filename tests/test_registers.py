"""The memory-mapped register protocol of the cluster DMA, the accelerator,
the micro-DMA, the event unit and the sim control, driven straight through
each device's `in` port."""

import pytest

from pulpsim import accel, dma, periph, event_unit as eu
from pulpsim.component import Request

from conftest import build_pulp, outcome

L2 = 0x1C010000
TCDM = 0x10000000

# path, plain registers, status reads after reset (the status register
# first), a valid job's registers, and the offset and value of the 4-byte
# write that starts that job
DEVICES = {
    "cluster-dma": (
        "cluster/dma",
        [0x00, 0x04, 0x08, 0x0C, 0x10, 0x20],
        {0x18: 0, 0x1C: 0, 0x24: 0xFFFFFFFF},
        {0x00: L2, 0x04: TCDM, 0x08: 64},
        (0x14, 0),
    ),
    "conv-accel": (
        "cluster/accel",
        [0x00, 0x04, 0x08, 0x0C, 0x10, 0x14, 0x18, 0x1C],
        {0x24: 0},
        {0x00: TCDM, 0x04: TCDM + 0x100, 0x08: TCDM + 0x200, 0x0C: 1, 0x10: 1,
         0x14: 2, 0x18: 2, 0x1C: 1},
        (0x20, 1),
    ),
    "micro-dma": (
        "udma",
        [0x00, 0x04, 0x08],
        {0x10: 0},
        {0x00: L2, 0x04: 0, 0x08: 16},
        (0x0C, 1),
    ),
}


def _access(dev, off, size=4, value=None, initiator=None):
    """The outcome (conftest.outcome) and the request's value after it."""
    req = Request(dev.base + off, size, value is not None,
                  value=value or 0, initiator=initiator)
    return outcome(dev.ports["in"].handler, req), req.value


@pytest.mark.parametrize("kind", sorted(DEVICES))
def test_register_protocol(kind):
    path, plain, status_reads, job, (trigger, cfg) = DEVICES[kind]
    dev = build_pulp().lookup(path)
    assert dev.kind == kind
    status = next(iter(status_reads))

    for i, off in enumerate(plain):
        assert _access(dev, off, value=0x1000 + 4 * i)[0] == "ok"
    for i, off in enumerate(plain):
        assert _access(dev, off) == ("ok", 0x1000 + 4 * i), hex(off)
    for off, expected in status_reads.items():
        assert _access(dev, off) == ("ok", expected), hex(off)

    for off, value in job.items():
        _access(dev, off, value=value)
    bad = [_access(dev, trigger, size=1, value=cfg),
           _access(dev, trigger, size=2, value=cfg),
           _access(dev, 0x800, value=cfg),
           _access(dev, 0x800),
           _access(dev, plain[0], size=1),
           _access(dev, status, size=2)]
    assert [result for result, _ in bad] == ["error"] * len(bad)
    assert _access(dev, status)[1] == 0        # no job started

    assert _access(dev, trigger, value=cfg)[0] == "ok"
    assert _access(dev, status)[1] != 0        # the 4-byte trigger starts it
    dev.platform.reset()                       # forgets the job in flight
    for off, expected in status_reads.items():
        assert _access(dev, off) == ("ok", expected), hex(off)


def _event_unit():
    """The cluster event unit, its 8 cores, and a core it does not serve."""
    plat = build_pulp()
    unit = plat.lookup("cluster/event_unit")
    return unit, [st.core for st in unit.states], plat.lookup("fc")


def test_event_unit_reads():
    unit, cores, fc = _event_unit()
    c0, c1 = cores[:2]

    def read(off, initiator=None):
        result, value = _access(unit, off, initiator=initiator)
        assert result == "ok", hex(off)
        return value

    assert read(eu.NB_CORES) == 8
    assert read(eu.BARRIER_MASK) == 0xFF
    _access(unit, eu.BARRIER_MASK, value=0x103)           # kept to the 8 cores
    assert read(eu.BARRIER_MASK) == 0x03

    _access(unit, eu.EVT_MASK, value=0x10005, initiator=c0)     # kept to 16 lines
    assert [read(eu.EVT_MASK, c) for c in (c0, c1, fc, None)] == [0x5, 0, 0, 0]

    _access(unit, eu.EVT_SET, value=3, initiator=fc)      # anyone may set a line
    _access(unit, eu.EVT_ACK, value=3, initiator=c0)
    assert [read(eu.EVT_STATUS, c) for c in (c0, c1, fc)] == [0, 0x8, 0]

    assert read(eu.BARRIER_STATUS) == 0
    assert _access(unit, eu.BARRIER_TRIG, initiator=c1)[0] == "sleep"
    assert read(eu.BARRIER_STATUS) == 0x2


def test_event_unit_errors():
    unit, cores, fc = _event_unit()
    c0 = cores[0]
    _access(unit, eu.BARRIER_MASK, value=0x2)
    bad = [_access(unit, eu.EVT_STATUS, size=1, initiator=c0),
           _access(unit, eu.EVT_STATUS, size=2, initiator=c0),
           _access(unit, eu.EVT_SET, size=2, value=1),
           # the per-core registers, from an initiator the unit does not serve
           _access(unit, eu.EVT_ACK, value=1, initiator=fc),
           _access(unit, eu.EVT_MASK, value=1, initiator=fc),
           _access(unit, eu.EVT_WAIT, initiator=fc),
           _access(unit, eu.BARRIER_TRIG, initiator=fc),
           _access(unit, eu.BARRIER_TRIG, initiator=None),
           # line numbers past the unit's 16 lines
           _access(unit, eu.EVT_SET, value=16, initiator=c0),
           _access(unit, eu.EVT_SET, value=0xFFFFFFFF),
           _access(unit, eu.EVT_ACK, value=16, initiator=c0),
           # a wait with nothing to wait for, a barrier the core is not in
           _access(unit, eu.EVT_WAIT, initiator=c0),
           _access(unit, eu.BARRIER_TRIG, initiator=c0),
           # read-only and unmapped offsets
           _access(unit, eu.EVT_STATUS, value=1, initiator=c0),
           _access(unit, 0x24, initiator=c0),
           _access(unit, 0x24, value=0, initiator=c0)]
    # an access that fails does not also sleep: the outcome is one of three
    assert [result for result, _ in bad] == ["error"] * len(bad)
    assert unit.events_set == 0 and unit.barrier_arrived == 0
    assert [st.pending for st in unit.states] == [0] * 8


def _program(dev, regs, trigger, cfg):
    """Write `regs` (offset -> value), then `cfg` to `trigger`."""
    for off, value in regs.items():
        _access(dev, off, value=value)
    return _access(dev, trigger, value=cfg)


def test_accelerator_job_errors_and_rejects():
    path, _, _, job, (trigger, cfg) = DEVICES["conv-accel"]
    plat = build_pulp()
    acc = plat.lookup(path)
    # an even kernel and each zero dimension: CH_IN, CH_OUT, H, W
    for bad in ({0x1C: 2}, {0x0C: 0}, {0x10: 0}, {0x14: 0}, {0x18: 0}):
        plat.reset()
        assert _program(acc, {**job, **bad}, trigger, cfg)[0] == "ok"
        assert _access(acc, accel.REG_STATUS)[1] == accel.ST_ERROR, bad
        assert acc.running is None
    plat.reset()
    statuses = []
    for _ in range(3):
        _program(acc, job, trigger, cfg)
        statuses.append(_access(acc, accel.REG_STATUS)[1])
    busy, shadow = accel.ST_BUSY, accel.ST_SHADOW
    assert statuses == [busy, busy | shadow, busy | shadow | accel.ST_REJECT]


def test_dma_rejects_an_empty_transfer():
    path, _, _, job, (trigger, cfg) = DEVICES["cluster-dma"]
    plat = build_pulp()
    dma_dev = plat.lookup(path)
    for bad, cfg_bits in (({dma.REG_LEN: 0}, cfg), ({dma.REG_COUNT: 0}, cfg | 2)):
        _program(dma_dev, {**job, **bad}, trigger, cfg_bits)
        assert _access(dma_dev, dma.REG_STATUS)[1] == dma.FLAG_CONFIG, bad
    assert dma_dev.transfers == 0 and not dma_dev.active


def test_micro_dma_errors():
    path, _, _, job, (trigger, cfg) = DEVICES["micro-dma"]
    plat = build_pulp()
    udma = plat.lookup(path)
    size = udma.device.size
    for bad in ({periph.UDMA_LEN: 0}, {periph.UDMA_EXT_ADDR: size - 8}):
        plat.reset()
        _program(udma, {**job, **bad}, trigger, cfg)
        assert _access(udma, periph.UDMA_STATUS)[1] == periph.UDMA_ERR, bad
        assert udma.transfers == 0
    plat.reset()
    _program(udma, job, trigger, cfg)
    assert _access(udma, periph.UDMA_STATUS)[1] == periph.UDMA_BUSY
    _program(udma, job, trigger, cfg)                    # again while busy
    assert _access(udma, periph.UDMA_STATUS)[1] == periph.UDMA_BUSY | periph.UDMA_ERR
    assert udma.transfers == 1


def test_sim_control_reads_zero_and_maps_two_registers():
    simctl = build_pulp().lookup("sim_ctrl")
    for off in (periph.SIMCTL_EXIT, periph.SIMCTL_PUTC):
        assert _access(simctl, off) == ("ok", 0), off
    assert _access(simctl, 0x8)[0] == "error"
    assert _access(simctl, 0x8, value=1)[0] == "error"
    # like every register block, it takes only 4-byte accesses
    for off in (periph.SIMCTL_EXIT, periph.SIMCTL_PUTC):
        for size in (1, 2):
            assert _access(simctl, off, size=size)[0] == "error", (off, size)
            assert _access(simctl, off, size=size, value=0x41)[0] == "error", (off, size)
    assert simctl.platform.engine.exit_status is None and not simctl.platform.console
