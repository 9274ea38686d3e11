"""Component abstraction: named instances, typed ports and requests.

Components are plain state machines living in one clock domain.  They talk
through ports: a master port is bound to exactly one slave port, a slave
port may serve many masters.  A Request travels synchronously down such a
chain; every component on the way may add to its latency, and the initiator
turns the accumulated cycle count into stalls or events on return.
"""

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
                 "port_index", "latency", "status", "contended", "sleep",
                 "cache_miss")

    def __init__(self):
        self.addr = 0
        self.size = 0
        self.is_write = False
        self.value = 0
        self.data = None
        self.initiator = None
        self.port_index = 0
        self.latency = 0
        self.status = STATUS_OK
        self.contended = False
        self.sleep = False
        self.cache_miss = False

    def setup(self, addr, size, is_write, value=0, data=None,
              initiator=None, port_index=0):
        if data is not None and len(data) > MAX_REQUEST_BYTES:
            raise StructuralError("request exceeds %d bytes; split it" % MAX_REQUEST_BYTES)
        self.addr = addr
        self.size = size
        self.is_write = is_write
        self.value = value
        self.data = data
        self.initiator = initiator
        self.port_index = port_index
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
        return req.status

    def __repr__(self):
        return "<Port %s %s>" % (self.path, self.direction)


class Component:
    """Base class: a named instance with ports, parameters and a domain.

    Subclasses declare `kind` and a PARAMS map of name -> (type, default);
    REQUIRED as the default marks mandatory parameters.  Parameter values
    land in self.params after validation.
    """

    kind = "abstract"
    PARAMS = {}

    def __init__(self, platform, path, params, domain):
        self.platform = platform
        self.path = path
        self.domain = domain
        self.params = self._check_params(params)
        self.ports = {}
        self.build()

    # -- construction hooks --------------------------------------------

    def build(self):
        """Create ports and internal state; overridden by subclasses."""

    def finalize(self):
        """Called once after all bindings are made, before reset."""

    def reset(self):
        """Return to power-on state (counters, registers, schedules)."""

    def _check_params(self, given):
        merged = {}
        given = dict(given or {})
        for name, (ptype, default) in self.PARAMS.items():
            if name in given:
                value = given.pop(name)
                if ptype is int and isinstance(value, str):
                    value = int(value, 0)
                if ptype is not None and not isinstance(value, ptype):
                    raise ConfigError("%s: param '%s' expects %s, got %r" % (
                        self.path, name, getattr(ptype, "__name__", ptype), value))
                merged[name] = value
            elif default is REQUIRED:
                raise ConfigError("%s: missing required param '%s'" % (self.path, name))
            else:
                merged[name] = default
        if given:
            raise ConfigError("%s: unknown params %s for kind '%s'" % (
                self.path, sorted(given), self.kind))
        return merged

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
