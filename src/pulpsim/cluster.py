"""The compute cluster as a composite component.

One descriptor entry of kind "cluster" expands at build time into the
processing elements with their private instruction caches, the shared
second-level cache, the TCDM, the cluster crossbar, peripherals (event
unit, DMA, accelerator) and the clock crossings toward the SoC domain.
The crossbar, the DMA and the accelerator bind straight to the TCDM's
slave port, which does its own per-bank accounting.  Everything is
parameterized, so a single `cluster.nb_cores=16` override regrows the whole
subtree.

The `tcdm`, `core`, `event_unit`, `dma`, `accel`, `xbar` and `bridge`
groups go whole to their child as its params.  Their keys, like the L1
icache and crossing defaults, take the child kind's defaults unless the
cluster wants another value: the core's `isa`, and the crossbar and bridge
timing.

The composite exposes two of its children's ports for top-level bindings:
    <path>.in   in_xing's slave, requests from the SoC side
    <path>.out  out_xing's master, requests toward the SoC interconnect
out_xing lives in the domain of the component that <path>.out is bound to.
"""

from .accel import ConvAccelerator
from .component import Component, as_int, register
from .core import RiscvCore
from .dma import ClusterDma
from .errors import ConfigError
from .event_unit import EventUnit
from .icache import InstructionCache
from .interconnect import ClockCrossing
from .memory import BankedMemory


def _defaults(cls, *names):
    """The params `names` of kind `cls` with their defaults, in that order."""
    return {name: cls.PARAMS[name][1] for name in names}


@register
class Cluster(Component):
    kind = "cluster"
    PARAMS = {
        "nb_cores": (int, 8, 1),
        "boot_addr": (int, 0x1C000000),
        "tcdm": (dict, dict(base=0x10000000, size=0x20000, **_defaults(BankedMemory, "banks"))),
        "periph_base": (int, 0x10200000),
        "external_ranges": (list, [
            {"base": 0x1A100000, "size": 0x10000},
            {"base": 0x1C000000, "size": 0x80000},
            {"base": 0x20000000, "size": 0x800000},
        ]),
        "core": (dict, dict(_defaults(RiscvCore, "isa", "branch_penalty", "trap_vector"),
                            isa=["rv32im", "xdemo"])),
        "icache": (dict, {"l1_size": InstructionCache.PARAMS["size"][1],
                          "l1_ways": InstructionCache.PARAMS["ways"][1],
                          "line_bytes": InstructionCache.PARAMS["line_bytes"][1],
                          "l15_size": 4096, "l15_ways": 4, "l15_latency": 1}),
        "xbar": (dict, {"latency": 0}),
        "bridge": (dict, {"latency": 5, "bandwidth_bytes_per_cycle": 8}),
        "crossing": (dict, dict.fromkeys(("in_latency", "out_latency"),
                                         ClockCrossing.PARAMS["crossing_latency"][1])),
        "event_unit": (dict, _defaults(EventUnit, "n_lines")),
        "dma": (dict, _defaults(ClusterDma, "max_burst", "channels", "event_line",
                                "program_latency", "burst_latency")),
        "accel": (dict, _defaults(ConvAccelerator, "ports", "macs_per_cycle", "setup_cycles",
                                  "weight_load_per_cycle", "chunk_cycles", "event_line")),
    }

    def build(self):
        plat = self.platform
        p = self.params
        me = self.path
        cl_domain = self.domain.name
        nb = p["nb_cores"]
        periph = p["periph_base"]
        icp = p["icache"]

        pe_paths = []
        for i in range(nb):
            pe = "%s/pe%d" % (me, i)
            pe_paths.append(pe)
            plat.add_component(pe, "riscv-core", dict(
                p["core"], hart_id=i, boot_addr=p["boot_addr"]), cl_domain)
            plat.add_component("%s_icache" % pe, "icache", {
                "size": icp["l1_size"], "ways": icp["l1_ways"],
                "line_bytes": icp["line_bytes"],
            }, cl_domain)

        plat.add_component("%s/l15" % me, "icache", {
            "size": icp["l15_size"], "ways": icp["l15_ways"],
            "line_bytes": icp["line_bytes"], "hit_latency": icp["l15_latency"],
        }, cl_domain)

        # the TCDM's own validated params, so 0x strings in the group become ints
        tcdm = plat.add_component("%s/tcdm" % me, "banked-memory", p["tcdm"], cl_domain).params

        # the peripherals' register blocks follow each other from periph_base,
        # each as wide as its kind's `size`
        eu = "%s/event_unit" % me
        periph_map = []
        at = periph
        for port, name, kind, params in [
                ("eu", "event_unit", "event-unit", dict(p["event_unit"], cores=pe_paths)),
                ("dma", "dma", "cluster-dma", dict(p["dma"], event_unit=eu)),
                ("accel", "accel", "conv-accel", dict(p["accel"], event_unit=eu))]:
            comp = plat.add_component("%s/%s" % (me, name), kind, dict(params, base=at), cl_domain)
            periph_map.append({"base": at, "size": comp.params["size"], "port": port})
            at += comp.params["size"]

        mappings = [
            {"base": tcdm["base"], "size": tcdm["size"], "port": "tcdm"},
            {"base": periph, "size": at - periph, "port": "periph"},
        ]
        ext = []
        for i, r in enumerate(p["external_ranges"]):
            where = "components.%s.params.external_ranges[%d]" % (me, i)
            if not isinstance(r, dict) or r.keys() != {"base", "size"}:
                raise ConfigError('%s: expected {"base", "size"}, got %r' % (where, r))
            ext.append((as_int(r["base"], where + ".base"), as_int(r["size"], where + ".size")))
        mappings += [{"base": base, "size": size, "port": "ext"} for base, size in ext]
        plat.add_component("%s/xbar" % me, "router", dict(p["xbar"], mappings=mappings),
                           cl_domain)

        plat.add_component("%s/periph_bus" % me, "router",
                           {"latency": 0, "mappings": periph_map}, cl_domain)

        ext_mappings = [{"base": base, "size": size, "port": "out"} for base, size in ext]
        plat.add_component("%s/bridge" % me, "router", dict(p["bridge"], mappings=ext_mappings),
                           cl_domain)

        # out_xing lives in the domain of the component <path>.out is bound
        # to; unbound, in the cluster's, and the platform refuses the port
        desc = plat.descriptor
        out_domain = next((desc["components"][s.rpartition(".")[0]]["domain"]
                           for m, s in desc["bindings"] if m == me + ".out"), cl_domain)
        in_xing = plat.add_component("%s/in_xing" % me, "clock-crossing", {
            "crossing_latency": p["crossing"]["in_latency"]}, cl_domain)
        out_xing = plat.add_component("%s/out_xing" % me, "clock-crossing", {
            "crossing_latency": p["crossing"]["out_latency"]}, out_domain)

        # internal wiring, master -> slave, by paths below the cluster's
        wires = []
        for i in range(nb):
            wires += [("pe%d.fetch" % i, "pe%d_icache.in" % i),
                      ("pe%d_icache.refill" % i, "l15.in"), ("pe%d.data" % i, "xbar.in")]
        wires += [("l15.refill", "bridge.in"), ("xbar.tcdm", "tcdm.in"),
                  ("xbar.periph", "periph_bus.in"), ("xbar.ext", "bridge.in"),
                  ("periph_bus.eu", "event_unit.in"), ("periph_bus.dma", "dma.in"),
                  ("periph_bus.accel", "accel.in"), ("dma.tcdm", "tcdm.in"),
                  ("dma.ext", "bridge.in"), ("accel.tcdm", "tcdm.in"),
                  ("bridge.out", "out_xing.in"), ("in_xing.out", "xbar.in")]
        for master, slave in wires:
            plat.bind_paths("%s/%s" % (me, master), "%s/%s" % (me, slave))
        self.ports["in"] = in_xing.ports["in"]
        self.ports["out"] = out_xing.ports["out"]
