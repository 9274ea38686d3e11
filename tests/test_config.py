"""Descriptor parsing, validation, overrides and platform elaboration."""

import json

import pytest

import pulpsim
from pulpsim import parse, serialize, apply_overrides, build
from pulpsim.errors import ConfigError

from conftest import MINIMAL_PLATFORM, pulp_descriptor, build_pulp


def test_minimal_platform_parses():
    desc = parse(json.dumps(MINIMAL_PLATFORM))
    assert len(desc["components"]) == 2
    assert desc["components"]["cpu"]["params"]["branch_penalty"] == 2  # default filled


def test_bad_json_reported():
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse("{nope")


def test_unknown_kind_reported_with_path():
    doc = json.loads(json.dumps(MINIMAL_PLATFORM))
    doc["components"]["cpu"]["kind"] = "quantum-core"
    with pytest.raises(ConfigError, match="components.cpu"):
        parse(json.dumps(doc))


def test_missing_required_param():
    doc = json.loads(json.dumps(MINIMAL_PLATFORM))
    del doc["components"]["ram"]["params"]["size"]
    with pytest.raises(ConfigError, match="ram.*size"):
        parse(json.dumps(doc))


def test_overlapping_ranges_name_both_paths():
    doc = {
        "clock_domains": {"main": {"frequency_hz": 200000000}},
        "components": {
            "m1": {"kind": "banked-memory", "domain": "main",
                   "params": {"base": "0x1C000000", "size": "0x80000"}},
            "m2": {"kind": "banked-memory", "domain": "main",
                   "params": {"base": "0x1C040000", "size": "0x80000"}},
            "ic": {"kind": "router", "domain": "main",
                   "params": {"mappings": [{"target": "m1"}, {"target": "m2"}]}},
        },
        "bindings": [],
    }
    with pytest.raises(ConfigError) as err:
        parse(json.dumps(doc))
    assert "m1" in str(err.value) and "m2" in str(err.value)


def test_non_integral_period_rejected_with_path():
    doc = json.loads(json.dumps(MINIMAL_PLATFORM))
    doc["clock_domains"]["main"]["frequency_hz"] = 333333333
    with pytest.raises(ConfigError, match="clock_domains.main"):
        parse(json.dumps(doc))


@pytest.mark.parametrize("where,value,message", [
    (("name",), 5, "name: expected string, got 5"),
    (("clock_domains",), [1], "clock_domains: expected object, got [1]"),
    (("components",), ["fc"], "components: expected object, got ['fc']"),
    (("bindings",), 5, "bindings: expected array, got 5"),
    (("components", "ram", "params"), [1, 2],
     "components.ram.params: expected object, got [1, 2]"),
    (("components", "ram", "params"), "x", "components.ram.params: expected object, got 'x'"),
    (("components", "ram", "kind"), ["x"], "components.ram: unknown component kind ['x']"),
    (("components", "ram", "domain"), ["x"], "components.ram: unknown clock domain ['x']"),
    (("bindings", 0, 1), 1, "bindings[0]: expected a 'component.port' string, got 1"),
], ids=["name", "clock-domains", "components", "bindings", "params-list", "params-string",
        "kind", "domain", "binding-end"])
def test_malformed_description_is_refused(where, value, message):
    with pytest.raises(ConfigError) as err:
        parse(_replaced(json.dumps(MINIMAL_PLATFORM), where, value))
    assert message in str(err.value)


def _replaced(text, where, value):
    """The JSON `text` with the value at key path `where` replaced by `value`."""
    doc = node = json.loads(text)
    for part in where[:-1]:
        node = node[part]
    node[where[-1]] = value
    return json.dumps(doc)


# one value of each JSON type, and containers of the wrong contents
JSON_VALUES = [None, 1, -1, 1.5, True, "x", [], [1], ["x"], [[1]], {}, {"a": 1}]


def _value_paths(node, prefix=()):
    """The key path of every value inside `node`, containers included."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _value_paths(value, prefix + (key,))


def test_any_value_of_the_wrong_type_builds_or_is_refused():
    # every value of pulp-open's full description, defaults included,
    # replaced in turn by each of JSON_VALUES
    text = serialize(pulp_descriptor())
    for where in _value_paths(json.loads(text)):
        for value in JSON_VALUES:
            try:
                build(parse(_replaced(text, where, value)))
            except ConfigError:
                pass
            except Exception as e:      # any other error: name the edit that raised it
                pytest.fail("%s = %r raised %r" % (".".join(map(str, where)), value, e))


def test_clock_domain_accepts_only_frequency():
    doc = json.loads(json.dumps(MINIMAL_PLATFORM))
    doc["clock_domains"]["main"]["event_window"] = 64
    with pytest.raises(ConfigError, match="clock_domains.main.*event_window"):
        parse(json.dumps(doc))


def test_serialize_roundtrip():
    desc = pulp_descriptor()
    again = parse(serialize(desc))
    assert again == desc


def test_override_scalar_and_nested():
    desc = pulp_descriptor()
    out = apply_overrides(desc, ["cluster.nb_cores=16",
                                 "cluster/tcdm.banks=64",
                                 "hyper.bandwidth_bits_per_sec=3000000000"])
    assert out["components"]["cluster"]["params"]["nb_cores"] == 16
    assert out["components"]["cluster"]["params"]["tcdm"]["banks"] == 64
    assert out["components"]["hyper"]["params"]["bandwidth_bits_per_sec"] == 3000000000
    # original untouched
    assert desc["components"]["cluster"]["params"]["nb_cores"] == 8


def test_override_equals_textual_edit():
    text = serialize(pulp_descriptor())
    desc_a = apply_overrides(parse(text), ["cluster.nb_cores=4"])
    edited = json.loads(text)
    edited["components"]["cluster"]["params"]["nb_cores"] = 4
    desc_b = parse(json.dumps(edited))
    assert desc_a == desc_b


def test_override_errors():
    desc = pulp_descriptor()
    with pytest.raises(ConfigError, match="no component"):
        apply_overrides(desc, ["nosuch.thing=1"])
    with pytest.raises(ConfigError,
                       match=r"components\.cluster: unknown params \['warp_drive'\]"):
        apply_overrides(desc, ["cluster.warp_drive=1"])
    with pytest.raises(ConfigError, match="components.cluster.params.nb_cores: expected integer"):
        apply_overrides(desc, ["cluster.nb_cores=fast"])


def test_override_sets_clock_frequency():
    desc = pulp_descriptor()
    out = apply_overrides(desc, ["clock_domains.cluster.frequency_hz=200000000"])
    assert out["clock_domains"]["cluster"] == {"frequency_hz": 200000000}
    assert desc["clock_domains"]["cluster"] == {"frequency_hz": 400000000}
    assert pulpsim.build(out).domains["cluster"].period_ps == 5000


@pytest.mark.parametrize("override,message", [
    ("clock_domains.cluster.frequency_hz=0", "clock_domains.cluster: frequency_hz must be positive"),
    ("clock_domains.cluster.frequency_hz=333333333", "clock_domains.cluster: frequency 333333333 Hz"
                                                     " has a non-integral period"),
    ("clock_domains.cluster.frequency_hz=fast", "clock_domains.cluster.frequency_hz: expected integer"),
    ("clock_domains.gpu.frequency_hz=100000000", "unknown clock domain 'gpu'"),
    ("clock_domains.cluster.voltage=1", "clock_domains.cluster: unknown keys ['voltage']"),
])
def test_clock_override_errors(override, message):
    with pytest.raises(ConfigError) as err:
        apply_overrides(pulp_descriptor(), [override])
    assert message in str(err.value)


def test_override_changes_instance_count():
    import re
    plat = build_pulp(["cluster.nb_cores=16"])
    pes = [p for p in plat.components if re.fullmatch(r"cluster/pe\d+", p)]
    assert len(pes) == 16


def test_build_twice_identical_dump():
    assert build_pulp().dump() == build_pulp().dump()


def test_unbound_port_reported():
    doc = json.loads(json.dumps(MINIMAL_PLATFORM))
    doc["bindings"] = [["cpu.fetch", "ram.in"]]     # data port dangles
    with pytest.raises(ConfigError, match="cpu.data"):
        build(parse(json.dumps(doc)))


def test_bind_direction_and_duplicate_errors():
    doc = json.loads(json.dumps(MINIMAL_PLATFORM))
    doc["bindings"].append(["cpu.data", "ram.in"])  # duplicate master
    with pytest.raises(ConfigError, match="already bound"):
        build(parse(json.dumps(doc)))

    doc = json.loads(json.dumps(MINIMAL_PLATFORM))
    doc["bindings"][0] = ["cpu.fetch", "cpu.fetch"]
    with pytest.raises(ConfigError, match="direction mismatch"):
        build(parse(json.dumps(doc)))

    doc = json.loads(json.dumps(MINIMAL_PLATFORM))
    doc["bindings"][0] = ["cpu.fetch", "ghost.in"]
    with pytest.raises(ConfigError, match="ghost"):
        parse(json.dumps(doc))


def test_elaborated_dump_matches_golden(tmp_path):
    import pathlib
    golden = pathlib.Path(__file__).parent / "data" / "pulp_open_dump.txt"
    dump = build_pulp().dump()
    assert dump == golden.read_text()


def _pulp_doc_with_cluster(**params):
    doc = json.loads(serialize(pulp_descriptor()))
    doc["components"]["cluster"]["params"].update(params)
    return json.dumps(doc)


def test_nested_group_rejects_unknown_key():
    with pytest.raises(ConfigError, match="tcdm.*bnks"):
        parse(_pulp_doc_with_cluster(tcdm={"bnks": 64}))


def test_nested_group_filled_from_default():
    desc = parse(_pulp_doc_with_cluster(tcdm={"banks": 32}))
    assert desc["components"]["cluster"]["params"]["tcdm"] == {
        "base": 0x10000000, "size": 0x20000, "banks": 32}


@pytest.mark.parametrize("banks", [True, "x"])
def test_composite_children_validated(banks):
    with pytest.raises(ConfigError, match="cluster/tcdm"):
        build(parse(_pulp_doc_with_cluster(tcdm={"banks": banks})))


def test_target_mapping_follows_override():
    plat = build_pulp(["hyper.size=0x400000"])
    ranges = {out.name: (base, size) for base, size, out in plat.lookup("soc_ic").mappings}
    assert ranges["hyper"] == (0x20000000, 0x400000)
    assert plat.lookup("soc_ic").ports["hyper"].binding.owner.path == "hyper"


def _given_required(cls):
    """Legal values for the REQUIRED params of `cls`: an int param's least,
    an empty str or list."""
    from pulpsim.component import REQUIRED
    return {name: ptype(*bounds[:1]) for name, (ptype, default, *bounds) in cls.PARAMS.items()
            if default is REQUIRED}


def test_param_defaults_satisfy_declared_types():
    from pulpsim.component import COMPONENT_KINDS, REQUIRED, fill_params
    for kind, cls in COMPONENT_KINDS.items():
        defaults = {name: default for name, (_, default, *_) in cls.PARAMS.items()
                    if default is not REQUIRED}
        filled = fill_params(cls, kind, dict(defaults, **_given_required(cls)))
        for name, default in defaults.items():
            assert filled[name] == default and type(filled[name]) is type(default), \
                (kind, name)
        for name, (ptype, default, *bounds) in cls.PARAMS.items():
            assert len(bounds) <= 2 and (ptype is int or not bounds), (kind, name)
            if ptype is int and default is not REQUIRED:
                assert (bounds or [0])[0] <= default, (kind, name)
                assert len(bounds) < 2 or default <= bounds[1], (kind, name)


def _out_of_range_cases():
    """(kind, param, value, message) for every int param of the library's
    kinds: one below its least, and one above its most where it has one."""
    from pulpsim.component import COMPONENT_KINDS
    cases = []
    for kind, cls in sorted(COMPONENT_KINDS.items()):
        if not cls.__module__.startswith("pulpsim."):
            continue                        # kinds that tests register
        for name, (ptype, _, *bounds) in cls.PARAMS.items():
            if ptype is not int:
                continue
            least = bounds[0] if bounds else 0
            refused = [(least - 1, "positive" if least == 1 else "at least %d" % least)]
            if len(bounds) == 2:
                refused.append((bounds[1] + 1, "at most %d" % bounds[1]))
            cases += [pytest.param(kind, name, value, "components.%s: %s must be %s, got %d" % (
                kind, name, rule, value), id="%s.%s=%d" % (kind, name, value))
                for value, rule in refused]
    return cases


@pytest.mark.parametrize("kind,name,value,message", _out_of_range_cases())
def test_every_int_param_refuses_values_outside_its_declared_range(kind, name, value, message):
    from pulpsim.component import COMPONENT_KINDS, fill_params
    cls = COMPONENT_KINDS[kind]
    given = dict(_given_required(cls), **{name: value})
    with pytest.raises(ConfigError) as err:
        fill_params(cls, kind, given)
    assert str(err.value) == message


def test_negative_top_level_size_is_refused_by_the_override():
    with pytest.raises(ConfigError, match="^components.l2: size must be positive, got -16$"):
        apply_overrides(pulp_descriptor(), ["l2.size=-16"])


def test_negative_group_size_is_refused_when_the_child_is_built():
    desc = apply_overrides(pulp_descriptor(), ["cluster/tcdm.size=-512"])
    with pytest.raises(ConfigError,
                       match="^components.cluster/tcdm: size must be positive, got -512$"):
        build(desc)


def test_register_window_must_cover_the_last_register():
    with pytest.raises(ConfigError, match="^components.sim_ctrl: size must be at least 8, got 4$"):
        apply_overrides(pulp_descriptor(), ["sim_ctrl.size=4"])


@pytest.mark.parametrize("override,message", [
    ("cluster/accel.ports=0", "cluster/accel: ports must be positive, got 0"),
    ("cluster.nb_cores=0", "cluster: nb_cores must be positive, got 0"),
    ("cluster/dma.channels=0", "cluster/dma: channels must be positive, got 0"),
    ("cluster/dma.max_burst=0", "cluster/dma: max_burst must be positive, got 0"),
    ("cluster.nb_cores=33", "fc and cluster/pe32 share hart id 32"),
    ("cluster/icache.line_bytes=0", "cluster/pe0_icache: line_bytes must be at least 4, got 0"),
    ("cluster/icache.line_bytes=1", "cluster/pe0_icache: line_bytes must be at least 4, got 1"),
    ("fc_icache.line_bytes=2", "fc_icache: line_bytes must be at least 4, got 2"),
    ("cluster/icache.l1_ways=0", "cluster/pe0_icache: ways must be positive, got 0"),
    ("cluster/icache.l15_ways=0", "cluster/l15: ways must be positive, got 0"),
    ("cluster/icache.l1_size=0", "cluster/pe0_icache: size must be positive, got 0"),
    ("cluster/accel.macs_per_cycle=0", "cluster/accel: macs_per_cycle must be positive, got 0"),
    ("cluster/accel.weight_load_per_cycle=0",
     "cluster/accel: weight_load_per_cycle must be positive, got 0"),
    ("cluster/accel.chunk_cycles=0", "cluster/accel: chunk_cycles must be positive, got 0"),
    ("hyper.bandwidth_bits_per_sec=0", "hyper: bandwidth_bits_per_sec must be positive, got 0"),
    ("udma.beat_bytes=0", "udma: beat_bytes must be positive, got 0"),
    ("cluster/dma.max_burst=8192", "cluster/dma: max_burst must be at most 4096, got 8192"),
    ("fc_icache.line_bytes=8192 fc_icache.size=16384",
     "components.fc_icache: line_bytes must be at most 4096, got 8192"),
    ("cluster/icache.line_bytes=8192 cluster/icache.l1_size=16384 cluster/icache.l15_size=32768",
     "components.cluster/pe0_icache: line_bytes must be at most 4096, got 8192"),
    ("cluster/icache.l15_latency=-5", "cluster/l15: hit_latency must be at least 0, got -5"),
    ("cluster/xbar.latency=-3", "cluster/xbar: latency must be at least 0, got -3"),
    ("cluster/bridge.latency=-10", "cluster/bridge: latency must be at least 0, got -10"),
    ("cluster/core.branch_penalty=-5", "cluster/pe0: branch_penalty must be at least 0, got -5"),
    ("cluster/dma.program_latency=-4",
     "cluster/dma: program_latency must be at least 0, got -4"),
    ("cluster/dma.burst_latency=-1", "cluster/dma: burst_latency must be at least 0, got -1"),
    ("cluster/accel.setup_cycles=-1", "cluster/accel: setup_cycles must be at least 0, got -1"),
    ("soc_ic.bandwidth_bytes_per_cycle=-1",
     "soc_ic: bandwidth_bytes_per_cycle must be at least 0, got -1"),
    ("udma_xing.crossing_latency=-2", "udma_xing: crossing_latency must be at least 0, got -2"),
    ("l2.access_latency=-2", "l2: access_latency must be at least 0, got -2"),
    ("hyper.setup_ns=-1", "hyper: setup_ns must be at least 0, got -1"),
    ("cluster/event_unit.n_lines=0", "cluster/event_unit: n_lines must be positive, got 0"),
    ("cluster/event_unit.n_lines=1",
     "cluster/dma: event_line must be a line of cluster/event_unit (0 to 0), got 1"),
    ("cluster/dma.event_line=40",
     "cluster/dma: event_line must be a line of cluster/event_unit (0 to 15), got 40"),
    ("cluster/accel.event_line=16",
     "cluster/accel: event_line must be a line of cluster/event_unit (0 to 15), got 16"),
    ("udma.itc_line=99", "udma: itc_line must be a line of fc_itc (0 to 15), got 99"),
    ("udma.device=l2",
     "components.udma.params.device: 'l2' has kind 'banked-memory', expected 'hyperram'"),
    ("udma.device=nosuch", "components.udma.params.device: unknown component 'nosuch'"),
    ("udma.itc=hyper",
     "components.udma.params.itc: 'hyper' has kind 'hyperram', expected 'event-unit'"),
    ("fc.boot_addr=0x1C000002",
     "components.fc: boot_addr must be a multiple of 4, got 0x1c000002"),
    ("cluster.boot_addr=0x1C000001",
     "components.cluster/pe0: boot_addr must be a multiple of 4, got 0x1c000001"),
    ("fc.trap_vector=0x1C000106",
     "components.fc: trap_vector must be a multiple of 4, got 0x1c000106"),
    ("cluster/core.trap_vector=2",
     "components.cluster/pe0: trap_vector must be a multiple of 4, got 0x2"),
    ('fc_itc.cores=["fc","fc"]', "components.fc_itc.params.cores: 'fc' is listed twice"),
])
def test_override_that_builds_a_broken_platform_is_rejected(override, message):
    with pytest.raises(ConfigError) as err:
        build_pulp(override.split())
    assert message in str(err.value)


def test_largest_cluster_with_distinct_hart_ids_builds():
    plat = build_pulp(["cluster.nb_cores=32"])
    assert sorted(c.hart_id for c in plat.cores()) == list(range(33))


def _peripheral_platform(kind, params, bindings):
    """One peripheral of `kind` beside a TCDM, an L2 and an event unit."""
    return {
        "clock_domains": {"main": {"frequency_hz": 200000000}},
        "components": {
            "tcdm": {"kind": "banked-memory", "domain": "main",
                     "params": {"base": "0x10000000", "size": "0x10000"}},
            "l2": {"kind": "banked-memory", "domain": "main",
                   "params": {"base": "0x1C000000", "size": "0x10000"}},
            "eu": {"kind": "event-unit", "domain": "main",
                   "params": {"base": "0x10200000", "cores": []}},
            "dev": {"kind": kind, "domain": "main",
                    "params": dict({"base": "0x10201000", "event_unit": "eu"}, **params)},
        },
        "bindings": bindings,
    }


DMA_BINDINGS = [["dev.tcdm", "tcdm.in"], ["dev.ext", "l2.in"]]
ACCEL_BINDINGS = [["dev.tcdm", "tcdm.in"]]


@pytest.mark.parametrize("kind,params,bindings,message", [
    ("cluster-dma", {"event_unit": "l2"}, DMA_BINDINGS,
     "components.dev.params.event_unit: 'l2' has kind 'banked-memory', expected 'event-unit'"),
    ("cluster-dma", {}, [["dev.tcdm", "eu.in"], ["dev.ext", "l2.in"]],
     "components.dev: port tcdm must be bound to the 'in' port of one banked-memory"),
    ("conv-accel", {"ports": 2, "event_unit": "tcdm"}, ACCEL_BINDINGS,
     "components.dev.params.event_unit: 'tcdm' has kind 'banked-memory', expected 'event-unit'"),
    ("conv-accel", {"ports": 2}, [["dev.tcdm", "dev.in"]],
     "components.dev: port tcdm must be bound to the 'in' port of one banked-memory"),
    ("conv-accel", {"ports": 1}, [["dev.tcdm", "eu.in"]],
     "components.dev: port tcdm must be bound to the 'in' port of one banked-memory"),
], ids=["dma-event-unit", "dma-tcdm-not-a-memory", "accel-event-unit", "accel-own-registers",
        "accel-not-a-memory"])
def test_peripheral_references_are_checked_by_kind(kind, params, bindings, message):
    text = json.dumps(_peripheral_platform(kind, params, bindings))
    with pytest.raises(ConfigError) as err:
        build(parse(text))
    assert message in str(err.value)


@pytest.mark.parametrize("kind,params,bindings", [
    ("cluster-dma", {}, DMA_BINDINGS),
    ("conv-accel", {"ports": 2}, ACCEL_BINDINGS),
])
def test_peripheral_platform_builds(kind, params, bindings):
    plat = build(parse(json.dumps(_peripheral_platform(kind, params, bindings))))
    assert plat.lookup("dev").event_unit is plat.lookup("eu")


def test_event_unit_cores_must_be_cores():
    doc = json.loads(json.dumps(MINIMAL_PLATFORM))
    doc["components"]["eu"] = {"kind": "event-unit", "domain": "main",
                               "params": {"base": "0x200000", "cores": ["cpu", "ram"]}}
    with pytest.raises(ConfigError) as err:
        build(parse(json.dumps(doc)))
    assert "components.eu.params.cores: 'ram' has kind 'banked-memory', expected 'riscv-core'" \
        in str(err.value)


def test_group_override_equals_textual_edit():
    text = serialize(pulp_descriptor())
    desc_a = apply_overrides(parse(text), ['cluster.tcdm={"banks":32}'])
    edited = json.loads(text)
    edited["components"]["cluster"]["params"]["tcdm"] = {"banks": 32}
    assert desc_a == parse(json.dumps(edited))
    assert desc_a["components"]["cluster"]["params"]["tcdm"]["size"] == 0x20000


@pytest.mark.parametrize("overrides,message", [
    (['cluster.tcdm={"bnks":1}'], "components.cluster.params.tcdm: unknown keys ['bnks']"),
    (["l2.base=0x1C040000", "hyper.base=0x1C000000"],
     "components.soc_ic: address ranges of 'l2' [0x1c040000,0x1c0c0000) and 'hyper' "
     "[0x1c000000,0x1c800000) overlap"),
    (['soc_ic.mappings=[{"target":"nosuch"}]'],
     "components.soc_ic.params.mappings[0]: unknown target 'nosuch'"),
    (['soc_ic.mappings=[{"target":"l2","size":16}]'],
     "components.soc_ic.params.mappings[0]: unknown keys ['size'] (a mapping takes only target)"),
    (['soc_ic.mappings=[{"base":0,"size":16,"port":"l2","target_":"l2"}]'],
     "components.soc_ic.params.mappings[0]: unknown keys ['target_'] "
     "(a mapping takes base, size and port)"),
], ids=["misspelt-group-key", "overlapping-targets", "unknown-target", "target-with-size",
        "explicit-with-extra-key"])
def test_overrides_are_checked_like_the_file(overrides, message):
    with pytest.raises(ConfigError) as err:
        apply_overrides(pulp_descriptor(), overrides)
    assert message in str(err.value)
