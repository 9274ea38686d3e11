"""System traces, VCD waveforms and the end-of-run statistics report.

Trace lines are `<ps>ps <domain>:<cycle> [<component path>] <message>`,
emitted only for paths matching an enabled glob, whose answer the sink
caches per path.  `<cycle>` is the first cycle of `<domain>` at or after
`<ps>`, the rule `ClockDomain.enqueue` counts from: the executing cycle
when that domain runs, and not its stale counter when a component is
traced from another domain's callback.  Cores trace each instruction on
`<core>/insn`, and `RegisterDevice.log` traces the cluster DMA's, the
accelerator's and the micro-DMA's job starts and ends on their own paths.

The VCD dump covers activity-level signals with a 1 ps timescale, which
each component class declares in `SIGNALS` and drives through
`Component.signal` as `<path>/<name>`: a core's `pc` and `active`, a
job device's (cluster DMA, accelerator, micro-DMA) `busy`.
"""

import fnmatch
import re
import sys


class TraceSink:
    def __init__(self, patterns, stream=None):
        self.regexes = [re.compile(fnmatch.translate(p)) for p in patterns]
        self.stream = stream if stream is not None else sys.stderr
        self._cache = {}
        self.lines = 0

    def enabled(self, path):
        hit = self._cache.get(path)
        if hit is None:
            hit = any(r.match(path) for r in self.regexes)
            self._cache[path] = hit
        return hit

    def emit(self, time_ps, domain, path, message):
        self.stream.write("%dps %s:%d [%s] %s\n" % (
            time_ps, domain.name, domain.cycle_at_or_after(time_ps), path, message))
        self.lines += 1

    def flush(self):
        self.stream.flush()


class VcdWriter:
    """Minimal VCD dump: header, initial values, timestamped changes."""

    def __init__(self, stream):
        self.stream = stream
        self.signals = []           # (name, width, sid)
        self.values = {}            # sid -> last value
        self._sid = {}              # signal name -> sid
        self.time = -1
        self.started = False

    def register(self, name, width):
        sid = self._make_id(len(self.signals))
        self.signals.append((name, width, sid))
        self._sid[name] = (sid, width)
        self.values[sid] = 0
        return sid

    @staticmethod
    def _make_id(n):
        chars = ""
        n += 1
        while n:
            n, r = divmod(n - 1, 94)
            chars = chr(33 + r) + chars
        return chars

    def start(self):
        w = self.stream.write
        w("$timescale 1ps $end\n")
        w("$scope module platform $end\n")
        for name, width, sid in self.signals:
            safe = name.replace("/", ".")
            if width > 1:
                safe = "%s[%d:0]" % (safe, width - 1)
            w("$var wire %d %s %s $end\n" % (width, sid, safe))
        w("$upscope $end\n$enddefinitions $end\n")
        w("#0\n$dumpvars\n")
        for name, width, sid in self.signals:
            self._write_value(sid, self.values[sid], width)
        w("$end\n")
        self.time = 0
        self.started = True

    def change(self, name, value, time_ps):
        sid, width = self._sid[name]
        if not self.started:
            self.values[sid] = value    # folded into the $dumpvars block
            return
        if self.values[sid] == value:
            return
        if time_ps > self.time:
            self.stream.write("#%d\n" % time_ps)
            self.time = time_ps
        self.values[sid] = value
        self._write_value(sid, value, width)

    def _write_value(self, sid, value, width):
        if width == 1:
            self.stream.write("%d%s\n" % (value & 1, sid))
        else:
            self.stream.write("b%s %s\n" % (bin(value)[2:], sid))

    def close(self, time_ps):
        if time_ps > self.time:
            self.stream.write("#%d\n" % time_ps)
        self.stream.flush()

    def attach(self, platform):
        """Register each component's SIGNALS in path order; hook into the platform."""
        for comp in sorted(platform.components.values(), key=lambda c: c.path):
            for name, width in comp.SIGNALS:
                self.register(comp.path + "/" + name, width)
        platform.vcd = self


def stats_report(platform, exit_status=None):
    """Collect every exported counter into one JSON-friendly document,
    each component's under its class's `SECTION`."""
    doc = {
        "exit_status": exit_status,
        "global_time_ps": platform.engine.now_ps,
        "wall_clock_s": platform.wall_seconds,
        "domains": {},
        "engine": platform.engine.stats(),
        "console": platform.console.decode("latin-1"),
    }
    for name, dom in platform.domains.items():
        doc["domains"][name] = {
            "frequency_hz": dom.frequency_hz,
            "cycles": dom.cycle,
            "events_executed": dom.events_executed,
        }
    for comp in platform.components.values():
        counters = comp.counters()
        if counters:
            doc.setdefault(comp.SECTION, {})[comp.path] = counters
    total_instr = sum(c["instr_retired"] for c in doc.get("cores", {}).values())
    doc["instructions_total"] = total_instr
    wall = platform.wall_seconds
    doc["simulated_mips"] = (total_instr / wall / 1e6) if wall > 0 else 0.0
    return doc


# fields that vary run-to-run and are excluded from determinism comparisons
VOLATILE_STATS = ("wall_clock_s", "simulated_mips")


def stable_stats(doc):
    """Copy of a stats document without host-timing fields."""
    out = dict(doc)
    for key in VOLATILE_STATS:
        out.pop(key, None)
    return out
