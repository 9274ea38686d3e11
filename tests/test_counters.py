"""Every component kind declares its counters once, in COUNTERS.

On pulp-open and the minimal platform, `reset` sets every declared counter
to the int 0, whatever it held, and `counters()` reports exactly the
declared names in their declared order.  Every register block of
pulp-open is a `RegisterDevice`, and only the three that run jobs get a
`/busy` VCD signal.  Power-on state is made in one place: a built
platform is at the state `Platform.reset` leaves, and no `build` or
`finalize` calls `reset`.
"""

import ast
import io
from pathlib import Path

import pulpsim
from pulpsim.component import COMPONENT_KINDS, RegisterDevice
from pulpsim.tracing import VcdWriter, stable_stats, stats_report

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


def test_a_built_platform_is_at_power_on():
    plat = build_pulp()
    cores = plat.cores()
    assert cores
    for core in cores:
        assert (core.mode, core.pc) == ("running", core.boot_pc), core.path
        assert core.step_event.enqueued, core.path
    built = stable_stats(stats_report(plat))
    plat.reset()
    assert stable_stats(stats_report(plat)) == built


def test_no_build_or_finalize_calls_reset():
    callers = []
    for path in sorted(Path(pulpsim.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and fn.name in ("build", "finalize"):
                callers += ["%s:%d %s" % (path.name, node.lineno, fn.name)
                            for node in ast.walk(fn) if isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute) and node.func.attr == "reset"]
    assert callers == []
