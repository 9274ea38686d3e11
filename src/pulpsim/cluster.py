"""The compute cluster as a composite component.

One descriptor entry of kind "cluster" expands at build time into the
processing elements with their private instruction caches, the shared
second-level cache, the TCDM, the cluster crossbar, peripherals (event
unit, DMA, accelerator) and the clock crossings toward the SoC domain.
The crossbar, the DMA and every accelerator port bind straight to the
TCDM's slave port, which does its own per-bank accounting.  Everything is parameterized, so a
single `cluster.nb_cores=16` override regrows the whole subtree.

The composite exposes two port aliases for top-level bindings:
    <path>.in   slave, requests from the SoC side
    <path>.out  master, requests toward the SoC interconnect
"""

from .component import Component, as_int, register

PERIPH_SPAN = 0x3000    # event unit + DMA + accelerator register blocks


@register
class Cluster(Component):
    kind = "cluster"
    PARAMS = {
        "nb_cores": (int, 8),
        "soc_domain": (str, "soc"),
        "boot_addr": (int, 0x1C000000),
        "tcdm": (dict, {"base": 0x10000000, "size": 0x20000, "banks": 16}),
        "periph_base": (int, 0x10200000),
        "external_ranges": (list, [
            {"base": 0x1A100000, "size": 0x10000},
            {"base": 0x1C000000, "size": 0x80000},
            {"base": 0x20000000, "size": 0x800000},
        ]),
        "core": (dict, {"isa": ["rv32im", "xdemo"], "branch_penalty": 2,
                        "trap_vector": 0}),
        "icache": (dict, {"l1_size": 512, "l1_ways": 2, "line_bytes": 16,
                          "l15_size": 4096, "l15_ways": 4, "l15_latency": 1}),
        "xbar": (dict, {"latency": 0}),
        "bridge": (dict, {"latency": 5, "bandwidth_bytes_per_cycle": 8}),
        "crossing": (dict, {"in_latency": 0, "out_latency": 0}),
        "event_unit": (dict, {"n_lines": 16}),
        "dma": (dict, {"max_burst": 256, "channels": 4, "event_line": 1,
                       "program_latency": 1, "burst_latency": 1}),
        "accel": (dict, {"ports": 4, "macs_per_cycle": 27, "setup_cycles": 100,
                         "weight_load_per_cycle": 4, "chunk_cycles": 128,
                         "event_line": 2}),
    }

    def build(self):
        plat = self.platform
        p = self.params
        me = self.path
        cl_domain = self.domain.name
        soc_domain = p["soc_domain"]
        nb = self.positive_param("nb_cores")
        periph = p["periph_base"]
        icp = p["icache"]

        pe_paths = []
        for i in range(nb):
            pe = "%s/pe%d" % (me, i)
            pe_paths.append(pe)
            plat.add_component(pe, "riscv-core", {
                "hart_id": i,
                "boot_addr": p["boot_addr"],
                "isa": p["core"]["isa"],
                "branch_penalty": p["core"]["branch_penalty"],
                "trap_vector": p["core"]["trap_vector"],
            }, cl_domain)
            plat.add_component("%s_icache" % pe, "icache", {
                "size": icp["l1_size"], "ways": icp["l1_ways"],
                "line_bytes": icp["line_bytes"],
            }, cl_domain)

        plat.add_component("%s/l15" % me, "icache", {
            "size": icp["l15_size"], "ways": icp["l15_ways"],
            "line_bytes": icp["line_bytes"], "hit_latency": icp["l15_latency"],
            "serialize_refills": True,
        }, cl_domain)

        # the TCDM's own validated params, so 0x strings in the group become ints
        tcdm = plat.add_component("%s/tcdm" % me, "banked-memory", {
            "base": p["tcdm"]["base"], "size": p["tcdm"]["size"], "banks": p["tcdm"]["banks"],
        }, cl_domain).params

        mappings = [
            {"base": tcdm["base"], "size": tcdm["size"], "port": "tcdm"},
            {"base": periph, "size": PERIPH_SPAN, "port": "periph"},
        ]
        where = "components.%s.params.external_ranges" % me
        ext = [(as_int(r["base"], where), as_int(r["size"], where))
               for r in p["external_ranges"]]
        mappings += [{"base": base, "size": size, "port": "ext"} for base, size in ext]
        plat.add_component("%s/xbar" % me, "router", {
            "latency": p["xbar"]["latency"],
            "mappings": mappings,
        }, cl_domain)

        plat.add_component("%s/periph_bus" % me, "router", {
            "latency": 0,
            "mappings": [
                {"base": periph, "size": 0x1000, "port": "eu"},
                {"base": periph + 0x1000, "size": 0x1000, "port": "dma"},
                {"base": periph + 0x2000, "size": 0x1000, "port": "accel"},
            ],
        }, cl_domain)

        plat.add_component("%s/event_unit" % me, "event-unit", {
            "base": periph, "n_lines": p["event_unit"]["n_lines"],
            "cores": pe_paths,
        }, cl_domain)

        plat.add_component("%s/dma" % me, "cluster-dma", {
            "base": periph + 0x1000,
            "max_burst": p["dma"]["max_burst"],
            "channels": p["dma"]["channels"],
            "program_latency": p["dma"]["program_latency"],
            "burst_latency": p["dma"]["burst_latency"],
            "tcdm_base": tcdm["base"], "tcdm_size": tcdm["size"],
            "event_unit": "%s/event_unit" % me,
            "event_line": p["dma"]["event_line"],
        }, cl_domain)

        plat.add_component("%s/accel" % me, "conv-accel", {
            "base": periph + 0x2000,
            "ports": p["accel"]["ports"],
            "macs_per_cycle": p["accel"]["macs_per_cycle"],
            "setup_cycles": p["accel"]["setup_cycles"],
            "weight_load_per_cycle": p["accel"]["weight_load_per_cycle"],
            "chunk_cycles": p["accel"]["chunk_cycles"],
            "tcdm_base": tcdm["base"], "tcdm_size": tcdm["size"],
            "event_unit": "%s/event_unit" % me,
            "event_line": p["accel"]["event_line"],
        }, cl_domain)

        ext_mappings = [{"base": base, "size": size, "port": "out"} for base, size in ext]
        plat.add_component("%s/bridge" % me, "router", {
            "latency": p["bridge"]["latency"],
            "bandwidth_bytes_per_cycle": p["bridge"]["bandwidth_bytes_per_cycle"],
            "mappings": ext_mappings,
        }, cl_domain)

        plat.add_component("%s/in_xing" % me, "clock-crossing", {
            "source_domain": soc_domain,
            "crossing_latency": p["crossing"]["in_latency"],
        }, cl_domain)
        plat.add_component("%s/out_xing" % me, "clock-crossing", {
            "source_domain": cl_domain,
            "crossing_latency": p["crossing"]["out_latency"],
        }, soc_domain)

        # internal wiring
        for i, pe in enumerate(pe_paths):
            plat.bind_paths("%s.fetch" % pe, "%s_icache.in" % pe)
            plat.bind_paths("%s_icache.refill" % pe, "%s/l15.in" % me)
            plat.bind_paths("%s.data" % pe, "%s/xbar.in" % me)
        plat.bind_paths("%s/l15.refill" % me, "%s/bridge.in" % me)
        plat.bind_paths("%s/xbar.tcdm" % me, "%s/tcdm.in" % me)
        plat.bind_paths("%s/xbar.periph" % me, "%s/periph_bus.in" % me)
        plat.bind_paths("%s/xbar.ext" % me, "%s/bridge.in" % me)
        plat.bind_paths("%s/periph_bus.eu" % me, "%s/event_unit.in" % me)
        plat.bind_paths("%s/periph_bus.dma" % me, "%s/dma.in" % me)
        plat.bind_paths("%s/periph_bus.accel" % me, "%s/accel.in" % me)
        plat.bind_paths("%s/dma.tcdm" % me, "%s/tcdm.in" % me)
        plat.bind_paths("%s/dma.ext" % me, "%s/bridge.in" % me)
        for i in range(p["accel"]["ports"]):
            plat.bind_paths("%s/accel.mem%d" % (me, i), "%s/tcdm.in" % me)
        plat.bind_paths("%s/bridge.out" % me, "%s/out_xing.in" % me)
        plat.bind_paths("%s/in_xing.out" % me, "%s/xbar.in" % me)

        plat.alias_port("%s.in" % me, plat.lookup("%s/in_xing" % me).ports["in"])
        plat.alias_port("%s.out" % me, plat.lookup("%s/out_xing" % me).ports["out"])
