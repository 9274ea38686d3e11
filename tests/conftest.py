"""Shared helpers: canned platforms and guest-program runners."""

import importlib.resources
import json

import pytest

import pulpsim
from pulpsim.asm import assemble
from pulpsim.component import BusError, Sleep
from pulpsim.engine import ClockDomain, Event

MINIMAL_PLATFORM = {
    "name": "minimal",
    "clock_domains": {
        "main": {"frequency_hz": 200000000},
    },
    "components": {
        "cpu": {"kind": "riscv-core", "domain": "main",
                "params": {"isa": ["rv32im", "xdemo"]}},
        "ram": {"kind": "banked-memory", "domain": "main",
                "params": {"base": 0, "size": 0x100000, "banks": 16}},
    },
    "bindings": [
        ["cpu.fetch", "ram.in"],
        ["cpu.data", "ram.in"],
    ],
}


def outcome(handler, req):
    """Send `req` to a slave port's `handler`: "ok" when it serves the
    request, "error" when it refuses it (`BusError`), "sleep" when it
    blocks it (`Sleep`)."""
    try:
        handler(req)
    except BusError:
        return "error"
    except Sleep:
        return "sleep"
    return "ok"


def minimal_descriptor(**tweaks):
    doc = json.loads(json.dumps(MINIMAL_PLATFORM))
    for path, params in tweaks.items():
        doc["components"][path]["params"].update(params)
    return pulpsim.parse(json.dumps(doc))


def build_minimal(**tweaks):
    return pulpsim.build(minimal_descriptor(**tweaks))


def run_program(source, max_cycles=2_000_000, origin=0x1000, defines=None,
                platform=None):
    """Assemble and run on the minimal platform; returns (platform, cpu)."""
    prog = assemble(source, origin=origin, defines=defines)
    plat = platform or build_minimal()
    for addr, word in prog.words.items():
        plat.poke(addr, word.to_bytes(4, "little"))
    plat.set_entry(prog.entry)
    status = plat.run(max_cycles=max_cycles)
    return plat, plat.lookup("cpu"), status


def pulp_descriptor(overrides=()):
    text = importlib.resources.files("pulpsim").joinpath(
        "platforms/pulp-open.json").read_text()
    desc = pulpsim.parse(text)
    if overrides:
        desc = pulpsim.apply_overrides(desc, list(overrides))
    return desc


def build_pulp(overrides=()):
    return pulpsim.build(pulp_descriptor(overrides))


@pytest.fixture
def pulp():
    return build_pulp()


def add_ticker(engine):
    """Add a domain at the fastest frequency whose event ticks every cycle
    while the other domains hold events.  The engine's bound is then
    always the next tick, so `ClockDomain.run_ahead` always refuses: this
    is the path without run-ahead that differential tests compare
    against."""
    others = list(engine.domains)
    ticker = engine.add_domain(ClockDomain("ticker", max(d.frequency_hz for d in others)))

    def tick(ev):
        if any(d.next_pending_cycle() is not None for d in others):
            ticker.enqueue(ev, 1)

    ticker.enqueue(Event("ticker", tick), 0)
    return ticker
