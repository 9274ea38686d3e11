"""Every component kind declares its counters once, in COUNTERS.

On pulp-open and the minimal platform, `reset` sets every declared counter
to the int 0, whatever it held, and `counters()` reports exactly the
declared names in their declared order.  Every register block of
pulp-open is a `RegisterDevice`, and only the three that run jobs get a
`/busy` VCD signal.
"""

import io

from pulpsim.component import COMPONENT_KINDS, RegisterDevice
from pulpsim.tracing import VcdWriter

from conftest import build_minimal, build_pulp


def test_reset_zeroes_exactly_the_declared_counters():
    kinds = set()
    for plat in (build_pulp(), build_minimal()):
        for comp in plat.components.values():
            for name in comp.COUNTERS:
                setattr(comp, name, 7)
        plat.reset()
        for comp in plat.components.values():
            kinds.add(comp.kind)
            assert COMPONENT_KINDS[comp.kind] is type(comp)
            for name in comp.COUNTERS:
                value = getattr(comp, name)
                assert type(value) is int and value == 0, (comp.path, name)
            assert list(comp.counters()) == list(comp.COUNTERS), comp.path
    assert kinds == set(COMPONENT_KINDS)


def test_every_register_block_decodes_as_a_register_device_and_only_job_devices_get_busy():
    plat = build_pulp()
    vcd = VcdWriter(io.StringIO())
    vcd.attach(plat)
    busy = {name[:-len("/busy")] for name, _, _ in vcd.signals if name.endswith("/busy")}
    devices = {c.path for c in plat.components.values() if isinstance(c, RegisterDevice)}
    assert busy == {"cluster/dma", "cluster/accel", "udma"}
    assert devices == busy | {"cluster/event_unit", "fc_itc", "sim_ctrl"}
