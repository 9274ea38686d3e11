"""Descriptor parsing, validation, overrides and platform elaboration."""

import json

import pytest

import pulpsim
from pulpsim import parse, serialize, apply_overrides, build
from pulpsim.errors import ConfigError

from conftest import MINIMAL_PLATFORM, pulp_descriptor, build_pulp


def test_minimal_platform_parses():
    desc = parse(json.dumps(MINIMAL_PLATFORM))
    assert len(desc.components) == 2
    assert desc.components["cpu"]["params"]["branch_penalty"] == 2  # default filled


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
    assert out.components["cluster"]["params"]["nb_cores"] == 16
    assert out.components["cluster"]["params"]["tcdm"]["banks"] == 64
    assert out.components["hyper"]["params"]["bandwidth_bits_per_sec"] == 3000000000
    # original untouched
    assert desc.components["cluster"]["params"]["nb_cores"] == 8


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
    with pytest.raises(ConfigError, match="unknown parameter"):
        apply_overrides(desc, ["cluster.warp_drive=1"])
    with pytest.raises(ConfigError, match="type mismatch"):
        apply_overrides(desc, ["cluster.nb_cores=fast"])


def test_override_sets_clock_frequency():
    desc = pulp_descriptor()
    out = apply_overrides(desc, ["clock_domains.cluster.frequency_hz=200000000"])
    assert out.clock_domains["cluster"] == {"frequency_hz": 200000000}
    assert desc.clock_domains["cluster"] == {"frequency_hz": 400000000}
    assert pulpsim.build(out).domain("cluster").period_ps == 5000


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
    assert desc.components["cluster"]["params"]["tcdm"] == {
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


def test_param_defaults_satisfy_declared_types():
    from pulpsim.component import COMPONENT_KINDS, REQUIRED, fill_params
    for kind, cls in COMPONENT_KINDS.items():
        defaults = {name: default for name, (_, default) in cls.PARAMS.items()
                    if default is not REQUIRED}
        given = dict(defaults)
        given.update({name: ptype() for name, (ptype, default) in cls.PARAMS.items()
                      if default is REQUIRED})
        filled = fill_params(cls, kind, given)
        for name, default in defaults.items():
            assert filled[name] == default and type(filled[name]) is type(default), \
                (kind, name)


@pytest.mark.parametrize("override,message", [
    ("cluster/accel.ports=0", "cluster/accel: ports must be positive, got 0"),
    ("cluster.nb_cores=0", "cluster: nb_cores must be positive, got 0"),
    ("cluster/dma.channels=0", "cluster/dma: channels must be positive, got 0"),
    ("cluster/dma.max_burst=0", "cluster/dma: max_burst must be positive, got 0"),
    ("cluster.nb_cores=33", "fc and cluster/pe32 share hart id 32"),
    ("cluster/icache.line_bytes=0", "cluster/pe0_icache: line_bytes must be positive, got 0"),
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
])
def test_override_that_builds_a_broken_platform_is_rejected(override, message):
    with pytest.raises(ConfigError) as err:
        build_pulp([override])
    assert message in str(err.value)


def test_largest_cluster_with_distinct_hart_ids_builds():
    plat = build_pulp(["cluster.nb_cores=32"])
    assert sorted(c.hart_id for c in plat.cores()) == list(range(33))
