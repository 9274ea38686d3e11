"""Host-time spans around the simulator's layer boundaries.

A `Tracer` installs timing wrappers, from outside the simulator, on the
entry points other modules call: every slave-port handler (through
`Component.add_slave`), every Event callback (through `Event.__init__`),
`ClockDomain.execute_cycle` and `TimeEngine.run`.  The wrappers go onto
the classes before `build()`, because cores cache their bound port
handlers in `finalize`.

Each call records one span (name, start, end, parent) in flat arrays.
A layer's self time is the time of its spans minus the time of their
child spans, minus the wrappers' own cost (see `wrapper_cost_ns`).  The
clock is `time.perf_counter_ns`, which is wall time: a span also counts
time in which the process was descheduled.
"""

import functools
import time
from array import array

import numpy as np

from pulpsim import component, engine

# component class name -> layer, for modules that hold more than one layer
_CLASS_LAYERS = {
    "Router": "interconnect.router",
    "Interleaver": "interconnect.interleaver",
    "ClockCrossing": "interconnect.crossing",
}
# module -> layer
_MODULE_LAYERS = {
    "pulpsim.engine": "engine",
    "pulpsim.core": "core",
    "pulpsim.icache": "icache",
    "pulpsim.memory": "memory",
    "pulpsim.event_unit": "event_unit",
    "pulpsim.dma": "dma",
    "pulpsim.accel": "accel",
    "pulpsim.periph": "periph",
}
PROBE_CALLS = 20000     # empty wrapped calls per trial in wrapper_cost_ns
PROBE_TRIALS = 5
LAYERS = ("engine", "core", "icache", "interconnect.router", "interconnect.interleaver",
          "interconnect.crossing", "memory", "event_unit", "dma", "accel", "periph")


def layer_of(cls):
    layer = _CLASS_LAYERS.get(cls.__name__) or _MODULE_LAYERS.get(cls.__module__)
    return layer or cls.__module__.rpartition(".")[2]


@functools.lru_cache(maxsize=None)
def wrapper_cost_ns():
    """(inner, outer): host ns that one wrapper adds inside its own span and,
    outside it, to its parent's time.

    Timed once per process on an empty callee.  `inner` is the median
    recorded duration of an empty span; `outer` is the rest of the wrapper's
    cost over a bare call, the fastest of several trials.
    """
    probe = Tracer()
    noop = lambda: None                 # noqa: E731
    spanned = probe.wrap(noop, 0)
    clock = time.perf_counter_ns
    extra = []
    for _ in range(PROBE_TRIALS):
        t0 = clock()
        for _ in range(PROBE_CALLS):
            noop()
        t1 = clock()
        for _ in range(PROBE_CALLS):
            spanned()
        t2 = clock()
        extra.append((t2 - t1 - (t1 - t0)) / PROBE_CALLS)
    inner = float(np.median(np.frombuffer(probe.end, dtype=np.int64) -
                            np.frombuffer(probe.start, dtype=np.int64)))
    return inner, max(0.0, min(extra) - inner)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.names = []             # span name id -> "Class.method"
        self.kinds = []             # span name id -> "port" | "event" | "engine"
        self.layers = []            # span name id -> layer
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._saved = []

    def _id(self, cls, method, kind):
        key = "%s.%s" % (cls.__name__, method)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
            self.kinds.append(kind)
            self.layers.append(layer_of(cls))
        return nid

    def wrap(self, fn, nid):
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, \
            self._stack
        clock = time.perf_counter_ns

        def spanned(*args):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            stack.append(i)
            end.append(0)
            start.append(clock())
            try:
                return fn(*args)
            finally:
                end[i] = clock()
                stack.pop()
        return spanned

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        """Patch the classes; call before building the platform."""
        tracer = self
        add_slave = component.Component.add_slave
        event_init = engine.Event.__init__

        def traced_add_slave(comp, name, handler):
            nid = tracer._id(type(comp), getattr(handler, "__name__", name), "port")
            return add_slave(comp, name, tracer.wrap(handler, nid))

        def traced_event_init(ev, owner, callback, payload=None):
            target = getattr(callback, "__self__", callback)
            nid = tracer._id(type(target), getattr(callback, "__name__", "callback"), "event")
            event_init(ev, owner, tracer.wrap(callback, nid), payload)

        self._patch(component.Component, "add_slave", traced_add_slave)
        self._patch(engine.Event, "__init__", traced_event_init)
        for cls, method in ((engine.TimeEngine, "run"), (engine.ClockDomain, "execute_cycle")):
            fn = cls.__dict__[method]
            self._patch(cls, method, self.wrap(fn, self._id(cls, method, "engine")))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def clear(self):
        """Drop recorded spans; the wrappers keep recording into the same arrays."""
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]

    def summary(self):
        """Self time (s) per layer and call count per span name, for the spans so far.

        A span's self time is its duration less its children's durations and
        less the wrapper cost: `inner` once, and `outer` per direct child.
        """
        inner, outer = wrapper_cost_ns()
        names = np.frombuffer(self.name, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        dur = (np.frombuffer(self.end, dtype=np.int64) -
               np.frombuffer(self.start, dtype=np.int64)).astype(np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        children = np.bincount(parent[nested], minlength=len(dur))
        self_ns = np.bincount(names, weights=dur - child - inner - outer * children,
                              minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        self_s = {}
        for nid, layer in enumerate(self.layers):
            self_s[layer] = self_s.get(layer, 0.0) + self_ns[nid] / 1e9
        return self_s, {self.names[i]: int(c) for i, c in enumerate(calls)}

    def calls_of(self, calls, layer, kind):
        """Total calls of the `kind` spans of one layer."""
        return sum(calls.get(n, 0) for n, k, l in zip(self.names, self.kinds, self.layers)
                   if k == kind and l == layer)

    def save(self, path):
        """Write the recorded spans and the name table to an .npz file."""
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64),
                 names=np.array(self.names), layers=np.array(self.layers))
