"""The memory-mapped register protocol of the cluster DMA, the accelerator
and the micro-DMA, driven straight through each device's `in` port."""

import pytest

from pulpsim.component import Request, STATUS_ERR, STATUS_OK

from conftest import build_pulp

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


def _access(dev, off, size=4, value=None):
    req = Request().setup(dev.base + off, size, value is not None,
                          value=value or 0)
    dev.ports["in"].handler(req)
    return req


@pytest.mark.parametrize("kind", sorted(DEVICES))
def test_register_protocol(kind):
    path, plain, status_reads, job, (trigger, cfg) = DEVICES[kind]
    dev = build_pulp().lookup(path)
    assert dev.kind == kind
    status = next(iter(status_reads))

    for i, off in enumerate(plain):
        assert _access(dev, off, value=0x1000 + 4 * i).status == STATUS_OK
    for i, off in enumerate(plain):
        req = _access(dev, off)
        assert (req.status, req.value) == (STATUS_OK, 0x1000 + 4 * i), hex(off)
    for off, expected in status_reads.items():
        req = _access(dev, off)
        assert (req.status, req.value) == (STATUS_OK, expected), hex(off)

    for off, value in job.items():
        _access(dev, off, value=value)
    bad = [_access(dev, trigger, size=1, value=cfg),
           _access(dev, trigger, size=2, value=cfg),
           _access(dev, 0x800, value=cfg),
           _access(dev, 0x800),
           _access(dev, plain[0], size=1),
           _access(dev, status, size=2)]
    assert [req.status for req in bad] == [STATUS_ERR] * len(bad)
    assert _access(dev, status).value == 0        # no job started

    assert _access(dev, trigger, value=cfg).status == STATUS_OK
    assert _access(dev, status).value != 0        # the 4-byte trigger starts it
