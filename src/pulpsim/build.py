"""Platform elaboration: turn a descriptor, the dict `config.parse`
returns, into a runnable component graph.  `Platform.domains` maps each
clock domain's name to its `ClockDomain`.

The platform owns untimed memory access: `peek`/`poke` slice the byte store
each memory registers at finalize, with no timing and no counters.
"""

import time

from .component import COMPONENT_KINDS, bind
from .engine import TimeEngine, ClockDomain
from .errors import ConfigError
from .interconnect import Router, check_loops, resolve_mappings


class Platform:
    """A built platform: engine, clock domains and component instances.

    Composite components (the cluster) add their children and internal
    bindings while being constructed, so after build() the component map is
    fully elaborated.  Once every binding is made and no request path
    loops, every router makes its windows (`Router.build_windows`), before
    any component is finalized.  A built platform is at power-on, the
    state reset() leaves: every component is reset once all are finalized.
    run() resets again unless reset() was called since construction, so
    that tracing attached after build sees what reset sets up (a core's
    `/insn` trace flag, the first VCD values); a later reset() returns to
    power-on for another run.
    """

    def __init__(self, descriptor):
        self.descriptor = descriptor
        self.engine = TimeEngine()
        self.domains = {}
        self.components = {}
        self.backing_stores = []    # (base, a memory's byte store) for peek/poke
        self.trace_sink = None
        self.vcd = None
        self.console = bytearray()
        self.diagnostics = []
        self.wall_seconds = 0.0
        self.was_reset = False

        for name, entry in descriptor["clock_domains"].items():
            dom = ClockDomain(name, entry["frequency_hz"])
            self.engine.add_domain(dom)
            self.domains[name] = dom

        pending_auto = []
        for path, entry in descriptor["components"].items():
            params = entry["params"]
            if entry["kind"] == "router":
                # resolve {"target": path} mappings against the descriptor and
                # queue the implied binding to the target's input port
                ranges = resolve_mappings(path, params["mappings"], descriptor["components"])
                for m, (_, _, port) in zip(params["mappings"], ranges):
                    if "target" in m:
                        pending_auto.append(("%s.%s" % (path, port), m["target"] + ".in"))
                params = dict(params, mappings=[{"base": base, "size": size, "port": port}
                                                for base, size, port in ranges])
            self.add_component(path, entry["kind"], params, entry["domain"])
        for master, slave in descriptor["bindings"]:
            self.bind_paths(master, slave)
        for master, slave in pending_auto:
            self.bind_paths(master, slave)

        self._check_bound()
        self._check_hart_ids()
        check_loops(self.components.values())
        for comp in self.components.values():   # before the cores cache handlers
            if comp.kind == Router.kind:
                comp.build_windows()
        for comp in list(self.components.values()):
            comp.finalize()
        for comp in self.components.values():
            comp.reset()

    # -- construction helpers (also used by composite components) ---------

    def add_component(self, path, kind, params, domain_name):
        if path in self.components:
            raise ConfigError("duplicate component path '%s'" % path)
        if domain_name not in self.domains:
            raise ConfigError("components.%s: unknown clock domain %r" % (path, domain_name))
        cls = COMPONENT_KINDS[kind]
        comp = cls(self, path, params, self.domains[domain_name])
        self.components[path] = comp
        return comp

    def resolve_port(self, spec):
        path, sep, port = spec.rpartition(".")
        if not sep:
            raise ConfigError("'%s' is not of the form path.port" % spec)
        comp = self.components.get(path)
        if comp is None:
            raise ConfigError("binding endpoint '%s': no component '%s'" % (spec, path))
        if port not in comp.ports:
            raise ConfigError("binding endpoint '%s': %s has no port '%s'" % (
                spec, path, port))
        return comp.ports[port]

    def bind_paths(self, master_spec, slave_spec):
        bind(self.resolve_port(master_spec), self.resolve_port(slave_spec))

    def register_backing(self, base, contents):
        self.backing_stores.append((base, contents))

    def _check_bound(self):
        for comp in self.components.values():
            for port in comp.ports.values():
                if port.direction == "master" and port.binding is None:
                    raise ConfigError("unbound master port %s" % port.path)

    def _check_hart_ids(self):
        owner = {}
        for core in self.cores():
            other = owner.setdefault(core.hart_id, core.path)
            if other != core.path:
                raise ConfigError("%s and %s share hart id %d" % (other, core.path, core.hart_id))

    # -- lookups -----------------------------------------------------------

    def lookup(self, path, kind=None, where=None):
        """The component at `path`.  With `kind` it must be of that kind;
        `where` names the reference in errors, e.g. a parameter's
        `components.<path>.params.<name>`."""
        prefix = where + ": " if where else ""
        if not isinstance(path, str):
            raise ConfigError("%sexpected a component path, got %r" % (prefix, path))
        comp = self.components.get(path)
        if comp is None:
            raise ConfigError("%sunknown component '%s'" % (prefix, path))
        if kind is not None and comp.kind != kind:
            raise ConfigError("%s'%s' has kind '%s', expected '%s'" % (
                prefix, path, comp.kind, kind))
        return comp

    def cores(self):
        return [c for c in self.components.values() if c.kind == "riscv-core"]

    # -- untimed memory access (loader, tests) -----------------------------

    def backing_for(self, addr, size):
        """(byte store, offset) holding all `size` bytes at `addr`, or None."""
        for base, contents in self.backing_stores:
            off = addr - base
            if 0 <= off and off + size <= len(contents):
                return contents, off
        return None

    def poke(self, addr, data):
        hit = self.backing_for(addr, len(data))
        if hit is None:
            raise ConfigError("poke at 0x%08x+%d hits no mapped memory" % (addr, len(data)))
        contents, off = hit
        contents[off:off + len(data)] = data

    def peek(self, addr, size):
        hit = self.backing_for(addr, size)
        if hit is None:
            raise ConfigError("peek at 0x%08x+%d hits no mapped memory" % (addr, size))
        contents, off = hit
        return bytes(contents[off:off + size])

    def set_entry(self, pc):
        if pc % 4:
            raise ConfigError("entry point %#x is not a multiple of 4" % pc)
        for core in self.cores():
            core.boot_pc = pc

    # -- tracing hooks ------------------------------------------------------

    def trace_enabled(self, path):
        return self.trace_sink is not None and self.trace_sink.enabled(path)

    def trace(self, path, domain, message):
        self.trace_sink.emit(self.engine.now_ps, domain, path, message)

    def putc(self, byte):
        self.console.append(byte)

    def diagnostic(self, message):
        self.diagnostics.append(message)

    # -- run ---------------------------------------------------------------

    def reset(self):
        """Power-on: time 0, every domain at cycle 0 with no pending events,
        then every component's reset (cores enqueue their first step here),
        an empty console and no diagnostics.  Memory contents are kept."""
        self.engine.reset()
        for comp in self.components.values():
            comp.reset()
        self.console.clear()
        self.diagnostics.clear()
        self.was_reset = True

    def run(self, max_cycles=None):
        """Execute until exit/idle/cap; returns the engine status."""
        if not self.was_reset:
            self.reset()
        if self.vcd is not None:
            self.vcd.start()
        t0 = time.perf_counter()
        status = self.engine.run(max_cycles)
        self.wall_seconds = time.perf_counter() - t0
        if self.trace_sink is not None:
            self.trace_sink.flush()
        if self.vcd is not None:
            self.vcd.close(self.engine.now_ps)
        return status

    # -- elaborated dump -----------------------------------------------------

    def dump(self):
        lines = []
        for path in sorted(self.components):
            comp = self.components[path]
            lines.append("%s kind=%s domain=%s params=%s" % (
                path, comp.kind, comp.domain.name, comp.dump_params()))
        # owners only: the cluster's `ports` re-exports its crossings'
        masters = [port for comp in self.components.values() for port in comp.ports.values()
                   if port.direction == "master" and port.owner is comp]
        for m in sorted(masters, key=lambda port: port.path):
            lines.append("%s -> %s" % (m.path, m.binding.path))
        return "\n".join(lines) + "\n"


def build(descriptor):
    """Elaborate a validated descriptor into a Platform."""
    return Platform(descriptor)
