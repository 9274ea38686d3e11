"""Component abstraction: named instances, typed ports and requests.

Components are plain state machines living in one clock domain.  They talk
through ports: a master port is bound to exactly one slave port, a slave
port may serve many masters.  A Request travels synchronously down such a
chain; every component on the way may add to its latency, and the initiator
turns the accumulated cycle count into stalls or events on return.
"""

import copy

from .errors import ConfigError, StructuralError

REQUIRED = object()

STATUS_OK = "ok"
STATUS_ERR = "error"

MAX_REQUEST_BYTES = 4096


class Request:
    """A latency-accumulating message between components.

    Word-or-smaller transfers carry their payload in `value`; larger ones
    use `data` (bytes for writes, a bytearray the handler fills for reads).
    `latency` only ever grows while the request traverses the platform.
    """

    __slots__ = ("addr", "size", "is_write", "value", "data", "initiator",
                 "latency", "status", "contended", "sleep", "cache_miss")

    def __init__(self):
        self.addr = 0
        self.size = 0
        self.is_write = False
        self.value = 0
        self.data = None
        self.initiator = None
        self.latency = 0
        self.status = STATUS_OK
        self.contended = False
        self.sleep = False
        self.cache_miss = False

    def setup(self, addr, size, is_write, value=0, data=None, initiator=None):
        if data is not None and len(data) > MAX_REQUEST_BYTES:
            raise StructuralError("request exceeds %d bytes; split it" % MAX_REQUEST_BYTES)
        self.addr = addr
        self.size = size
        self.is_write = is_write
        self.value = value
        self.data = data
        self.initiator = initiator
        self.reset()
        return self

    def reset(self):
        """Clear the response fields before the request is sent (again)."""
        self.latency = 0
        self.status = STATUS_OK
        self.contended = False
        self.sleep = False
        self.cache_miss = False

    def __repr__(self):
        kind = "W" if self.is_write else "R"
        return "<Request %s 0x%08x size=%d lat=%d %s>" % (
            kind, self.addr, self.size, self.latency, self.status)


class Port:
    __slots__ = ("owner", "name", "direction", "binding", "handler")

    def __init__(self, owner, name, direction, handler=None):
        self.owner = owner
        self.name = name
        self.direction = direction      # "master" | "slave"
        self.binding = None             # master: the bound slave Port
        self.handler = handler          # slave: callable(Request) -> None

    @property
    def path(self):
        return "%s.%s" % (self.owner.path, self.name)

    def send(self, req):
        """Forward a request to the bound slave (master ports only)."""
        target = self.binding
        if target is None:
            raise StructuralError("send on unbound port %s" % self.path)
        target.handler(req)

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
    """Check `given` against cls.PARAMS and fill in the defaults.

    Names must be declared, REQUIRED ones present and every value of its
    declared type; int params also take 0x strings.  A dict param with a
    dict default is a nested group: it takes a subset of the default's
    keys and the rest is filled from the default.  Container defaults are
    copied; values the caller gave are not.
    """
    merged = {}
    given = dict(given or {})
    for name, (ptype, default) in cls.PARAMS.items():
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

    Subclasses declare `kind` and a PARAMS map of name -> (type, default);
    REQUIRED as the default marks mandatory parameters.  Every instance,
    whether named in the descriptor or added by a composite at build time,
    runs its params through fill_params() and keeps the result in
    self.params.  Router mappings are resolved and checked for overlaps by
    the interconnect module, at parse time and again in Router.build().
    """

    kind = "abstract"
    PARAMS = {}

    def __init__(self, platform, path, params, domain):
        self.platform = platform
        self.path = path
        self.domain = domain
        self.params = fill_params(type(self), path, params)
        self.ports = {}
        self.build()

    # -- construction hooks --------------------------------------------

    def build(self):
        """Create ports and internal state; overridden by subclasses."""

    def finalize(self):
        """Called once after all bindings are made, before reset."""

    def reset(self):
        """Return to power-on state (counters, registers, schedules)."""

    def positive_param(self, name, least=1):
        """The int param `name`, which must be at least `least`: 1 for a
        count or a size, 0 for a latency or a cycle count."""
        value = self.params[name]
        if value < least:
            raise ConfigError("components.%s: %s must be %s, got %d" % (
                self.path, name, "positive" if least == 1 else "at least %d" % least,
                value))
        return value

    # -- ports ----------------------------------------------------------

    def add_master(self, name):
        port = Port(self, name, "master")
        self.ports[name] = port
        return port

    def add_slave(self, name, handler):
        port = Port(self, name, "slave", handler)
        self.ports[name] = port
        return port

    def port(self, name):
        try:
            return self.ports[name]
        except KeyError:
            raise ConfigError("%s has no port '%s'" % (self.path, name)) from None

    # -- stats / dump -----------------------------------------------------

    def counters(self):
        """Exported performance counters, name -> int."""
        return {}

    def dump_params(self):
        items = sorted(self.params.items())
        return "{%s}" % ", ".join("%s=%r" % kv for kv in items)

    def __repr__(self):
        return "<%s %s>" % (type(self).__name__, self.path)


def bind(master_port, slave_port):
    """Bind a master port to a slave port, validating directions."""
    if master_port.direction != "master" or slave_port.direction != "slave":
        raise ConfigError("direction mismatch binding %s -> %s" % (
            master_port.path, slave_port.path))
    if master_port.binding is not None:
        raise ConfigError("master %s already bound to %s" % (
            master_port.path, master_port.binding.path))
    if slave_port.handler is None:
        raise StructuralError("slave %s has no handler" % slave_port.path)
    master_port.binding = slave_port


# -- component kind registry -------------------------------------------

COMPONENT_KINDS = {}


def register(cls):
    """Class decorator: make a Component subclass available to build()."""
    if cls.kind in COMPONENT_KINDS:
        raise StructuralError("duplicate component kind '%s'" % cls.kind)
    COMPONENT_KINDS[cls.kind] = cls
    return cls
