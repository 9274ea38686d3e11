"""Component abstraction: named instances, typed ports and requests.

Components are plain state machines living in one clock domain.  They talk
through ports: a master port is bound to exactly one slave port, a slave
port may serve many masters.  A Request travels synchronously down such a
chain, each hop calling the handler of the slave port its master port is
bound to; a router's handler is its chain of address windows, made once
at build time, which calls the handler its hit window's port is bound to.
Every component on the way advances the request's cycle `at` by what it
adds, and the initiator charges the advance as stalls or events on
return.  A request's payload is one int, `value`, whatever its size.

A component's life cycle has three steps.  `build`, run by the
constructor, makes its ports and fixed structures; `finalize`, once every
binding is made, resolves its references to other components; `reset`
makes all its mutable state.  The platform calls `reset` once every
component is finalized, and again at every `Platform.reset`.
"""

import copy

from .engine import Event
from .errors import ConfigError, StructuralError

REQUIRED = object()

MAX_REQUEST_BYTES = 4096        # the widest icache line or DMA burst


class BusError(Exception):
    """Raised by a handler that refuses its request."""


class Sleep(Exception):
    """Raised by a handler for a read that blocks until its initiator is
    woken, which then issues the read again."""


class Request:
    """A timed message between components.

    `value` is the payload of every transfer: a little-endian int of `size`
    bytes, which a write carries and a read's handler fills in.  `at` is
    the cycle, in the handling component's domain, at which the request
    reaches that component.  The initiator writes its issue cycle there
    before every send; each stage only advances it, a clock crossing
    converting it between domains, and reads no domain counter; on return
    the initiator charges `at` minus its issue cycle.

    A handler serves the request, advancing `at` and filling a read's
    `value`, or raises: `BusError` to refuse it, `Sleep` to block a read
    until the initiator is woken.  Either passes up every stage to the
    initiator; what a stage did before it forwarded the request stays
    done (a router's `forwarded`, an icache's `misses`).  The slave sets
    the flags `contended` (a bank made it wait) and `cache_miss` (an
    icache refilled); the master that reads one clears it there.
    """

    __slots__ = ("addr", "size", "is_write", "value", "initiator",
                 "at", "contended", "cache_miss")

    def __init__(self, addr=0, size=0, is_write=False, value=0, initiator=None):
        self.addr = addr
        self.size = size
        self.is_write = is_write
        self.value = value
        self.initiator = initiator
        self.at = 0
        self.contended = False
        self.cache_miss = False

    def __repr__(self):
        kind = "W" if self.is_write else "R"
        return "<Request %s 0x%08x size=%d at=%d>" % (kind, self.addr, self.size, self.at)


class Port:
    __slots__ = ("owner", "name", "direction", "binding", "handler", "masters")

    def __init__(self, owner, name, direction, handler=None):
        self.owner = owner
        self.name = name
        self.direction = direction      # "master" | "slave"
        self.binding = None             # master: the bound slave Port
        self.handler = handler          # slave: callable(Request) -> None
        self.masters = []               # slave: the master Ports bound to it

    @property
    def path(self):
        return "%s.%s" % (self.owner.path, self.name)

    def __repr__(self):
        return "<Port %s %s>" % (self.path, self.direction)


def as_int(value, where):
    """`value` as an int: decimal or 0x strings convert, booleans do not."""
    if isinstance(value, bool):
        raise ConfigError("%s: expected integer, got boolean" % where)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 0)
        except ValueError:
            pass
    raise ConfigError("%s: expected integer, got %r" % (where, value))


def _fresh(default):
    return copy.deepcopy(default) if isinstance(default, (dict, list)) else default


def fill_params(cls, path, given):
    """The one parameter validator: check `given` against cls.PARAMS and
    fill in the defaults.  Names must be declared, REQUIRED ones present
    and every value of its declared type and range; int params also take
    0x strings.  A dict param with a dict default is a nested group: it
    takes a subset of the default's keys and the rest is filled from the
    default.  Container defaults are copied; values the caller gave are
    not.
    """
    if given is not None and not isinstance(given, dict):
        raise ConfigError("components.%s.params: expected object, got %r" % (path, given))
    merged = {}
    given = dict(given or {})
    for name, spec in cls.PARAMS.items():
        ptype, default = spec[0], spec[1]
        if name not in given:
            if default is REQUIRED:
                raise ConfigError("components.%s: missing required param '%s'" % (path, name))
            merged[name] = _fresh(default)
            continue
        value = given.pop(name)
        where = "components.%s.params.%s" % (path, name)
        if ptype is int:
            if type(value) is not int:
                value = as_int(value, where)
            least = spec[2] if len(spec) > 2 else 0
            if value < least or len(spec) > 3 and value > spec[3]:
                rule = ("at most %d" % spec[3] if value >= least
                        else "positive" if least == 1 else "at least %d" % least)
                raise ConfigError("components.%s: %s must be %s, got %d" % (
                    path, name, rule, value))
        elif not isinstance(value, ptype):
            raise ConfigError("%s: expected %s, got %r" % (where, ptype.__name__, value))
        elif ptype is dict and isinstance(default, dict):
            unknown = value.keys() - default.keys()
            if unknown:
                raise ConfigError("%s: unknown keys %s" % (where, sorted(unknown)))
            value = {key: value[key] if key in value else _fresh(d)
                     for key, d in default.items()}
        merged[name] = value
    if given:
        raise ConfigError("components.%s: unknown params %s for kind '%s'" % (
            path, sorted(given), cls.kind))
    return merged


class Component:
    """Base class: a named instance with ports, parameters and a domain.

    Subclasses declare `kind` and a PARAMS map of name -> (type, default),
    or for an int (int, default, least) or (int, default, least, most):
    its legal range, at least 0 where no `least` is given.  REQUIRED as
    the default marks mandatory parameters.  Every instance, whether named
    in the descriptor or added by a composite at build time, runs its
    params through fill_params(), the one validator, and keeps the result
    in self.params; `build` checks only rules that tie params together.
    Router mappings are resolved by `interconnect.resolve_mappings` at
    parse time and again by the builder, which hands the router int
    ranges; overlaps are checked at parse time and again in Router.build().

    Life cycle (module docstring): `build` makes the ports and fixed
    structures, `finalize` resolves references, and `reset` makes all
    mutable state; the platform calls it once every component is
    finalized, and at every `Platform.reset`.

    COUNTERS names the int attributes the component exports as performance
    counters: `reset` sets each to 0 and `counters()` returns them, in that
    order.  A subclass with its own `reset` calls `super().reset()`.
    SECTION names the section of the stats report (`tracing.stats_report`)
    that holds them.  SIGNALS lists the (name, width) of each VCD signal
    `signal` drives.
    """

    kind = "abstract"
    PARAMS = {}
    COUNTERS = ()
    SECTION = "other"
    SIGNALS = ()

    def __init__(self, platform, path, params, domain):
        self.platform = platform
        self.path = path
        self.domain = domain
        self.params = fill_params(type(self), path, params)
        self.ports = {}
        self.build()

    # -- construction hooks --------------------------------------------

    def build(self):
        """Create ports and fixed structures; overridden by subclasses."""

    def finalize(self):
        """Called once after all bindings are made, before reset."""

    def reset(self):
        """Make the power-on state: here the counters; subclasses add
        their registers and schedules."""
        for name in self.COUNTERS:
            setattr(self, name, 0)

    # -- ports ----------------------------------------------------------

    def add_master(self, name):
        port = Port(self, name, "master")
        self.ports[name] = port
        return port

    def add_slave(self, name, handler):
        port = Port(self, name, "slave", handler)
        self.ports[name] = port
        return port

    # -- stats / dump -----------------------------------------------------

    def signal(self, name, value):
        """Set this component's VCD signal `<path>/<name>` to `value`, if a
        VCD is attached."""
        vcd = self.platform.vcd
        if vcd is not None:
            vcd.change(self.path + "/" + name, int(value), self.platform.engine.now_ps)

    def counters(self):
        """Exported performance counters, name -> int, in COUNTERS order."""
        return {name: getattr(self, name) for name in self.COUNTERS}

    def dump_params(self):
        items = sorted(self.params.items())
        return "{%s}" % ", ".join("%s=%r" % kv for kv in items)

    def __repr__(self):
        return "<%s %s>" % (type(self).__name__, self.path)


class RegisterDevice(Component):
    """A component programmed through 4-byte registers mapped at `base`.

    Every register block decodes here: the cluster DMA, the accelerator,
    the micro-DMA, the event unit (also the FC's interrupt controller)
    and sim-control.  `build` reads `base` and adds the `in` slave port.
    `self.regs` maps the offsets of the plain registers to their values,
    which writes store and reads return.  Other offsets go to the class's
    READS or WRITES map from offset to a method taking `(self, req)`; a
    register that reads an attribute of the device maps to
    `read_attr(name)`.  An access that is not 4 bytes, or to an offset in
    neither, raises `BusError`.

    A register write may start a job that outlives it: a generator that
    `start` runs.  The code before its first `yield` runs at once, inside
    the write; each `yield d` resumes it `d` cycles of the device's domain
    later, counted as `ClockDomain.enqueue` counts; a bare `yield` means
    the job has already stored its Event (a refused `ClockDomain.run_ahead`
    does), so nothing is enqueued; returning ends it.  A job is one Event,
    whose callback is the device's `_resume`, and `start` returns it.
    `log` traces a job's start and end on the device's path.  Only the job
    devices (cluster DMA, accelerator, micro-DMA) declare and drive a
    `busy` VCD signal, set while their jobs run.
    """

    READS = {}
    WRITES = {}

    def build(self):
        self.base = self.params["base"]
        self.regs = {}
        self.add_slave("in", self.handle)

    def handle(self, req):
        if req.size != 4:
            raise BusError
        off = req.addr - self.base
        regs = self.regs
        if off in regs:
            if req.is_write:
                regs[off] = req.value
            else:
                req.value = regs[off]
            return
        method = (self.WRITES if req.is_write else self.READS).get(off)
        if method is None:
            raise BusError
        method(self, req)

    @staticmethod
    def read_attr(name):
        """A READS method for a register that reads the attribute `name`."""
        def read(self, req):
            req.value = getattr(self, name)
        return read

    def start(self, job):
        """Run the job generator `job` and return its Event (class docstring)."""
        self._resume(ev := Event(self.path, self._resume, job))
        return ev

    def _resume(self, ev):
        delay = next(ev.payload, None)
        if delay is not None:
            self.domain.enqueue(ev, delay)

    def log(self, fmt, *args):
        """Trace `fmt % args` if this device's path is traced."""
        plat = self.platform
        if plat.trace_enabled(self.path):
            plat.trace(self.path, self.domain, fmt % args)


def bind(master_port, slave_port):
    """Bind a master port to a slave port, validating directions; the
    master's `binding` is the slave, whose `masters` list it."""
    if master_port.direction != "master" or slave_port.direction != "slave":
        raise ConfigError("direction mismatch binding %s -> %s" % (
            master_port.path, slave_port.path))
    if master_port.binding is not None:
        raise ConfigError("master %s already bound to %s" % (
            master_port.path, master_port.binding.path))
    if slave_port.handler is None:
        raise StructuralError("slave %s has no handler" % slave_port.path)
    master_port.binding = slave_port
    slave_port.masters.append(master_port)


# -- component kind registry -------------------------------------------

COMPONENT_KINDS = {}


def register(cls):
    """Class decorator: make a Component subclass available to build()."""
    if cls.kind in COMPONENT_KINDS:
        raise StructuralError("duplicate component kind '%s'" % cls.kind)
    COMPONENT_KINDS[cls.kind] = cls
    return cls
