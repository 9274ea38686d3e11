"""ISA table loading: atomic `extend` and the once-per-process table memo."""

import json

import pytest

import pulpsim
from pulpsim import isa
from pulpsim.errors import ConfigError
from pulpsim.isa import IsaEntry, IsaTable

from conftest import pulp_descriptor

FRESH = {"mnemonic": "fresh", "mask": "0x0000007F", "match": "0x0000000B", "fmt": "I"}
CLASH_ADD = {"mnemonic": "clash", "mask": "0xFE00707F", "match": "0x00000033", "fmt": "R"}


@pytest.fixture
def count_conflicts(monkeypatch):
    """Counts IsaEntry.conflicts calls, starting from an empty table memo."""
    monkeypatch.setattr(isa, "_LOADED", {})
    calls = [0]
    check = IsaEntry.conflicts

    def counted(self, other):
        calls[0] += 1
        return check(self, other)

    monkeypatch.setattr(IsaEntry, "conflicts", counted)
    return calls


def test_extend_is_all_or_nothing():
    table = IsaTable.load(["rv32im"])
    before = list(table.entries)
    with pytest.raises(ConfigError, match="'clash' \\(bad\\) overlaps 'add' \\(rv32im\\)"):
        table.extend({"name": "bad", "entries": [FRESH, CLASH_ADD]}, "bad")
    assert table.entries == before and len(before) == 56
    assert table.tables == ["rv32im"]
    assert table.decode(0xB) is None


def test_extend_checks_new_entries_against_each_other():
    table = IsaTable.load(["rv32im"])
    twin = dict(FRESH, mnemonic="twin")
    with pytest.raises(ConfigError, match="'twin' \\(pair\\) overlaps 'fresh' \\(pair\\)"):
        table.extend({"name": "pair", "entries": [FRESH, twin]}, "pair")
    assert len(table.entries) == 56


def test_second_build_and_more_cores_run_no_more_checks(count_conflicts):
    pulpsim.build(pulp_descriptor())
    first = count_conflicts[0]
    assert first > 0
    pulpsim.build(pulp_descriptor())
    assert count_conflicts[0] == first

    isa._LOADED.clear()
    count_conflicts[0] = 0
    plat = pulpsim.build(pulp_descriptor(["cluster.nb_cores=16"]))
    assert len(plat.cores()) == 17
    assert count_conflicts[0] == first


def test_loads_are_independent():
    table = IsaTable.load(["rv32im", "xdemo"])
    table.extend({"name": "more", "entries": [dict(FRESH, match="0x0000005B")]}, "more")
    assert table.decode(0x5B).mnemonic == "fresh"
    again = IsaTable.load(["rv32im", "xdemo"])
    assert len(again.entries) == 58 and again.tables == ["rv32im", "xdemo"]
    assert again.decode(0x5B) is None


def test_conflicting_set_fails_on_every_load():
    for _ in range(2):
        with pytest.raises(ConfigError, match="ISA conflict"):
            IsaTable.load(["rv32im", "rv32im"])


def test_edited_table_file_is_read_again(tmp_path):
    path = tmp_path / "ext.json"
    path.write_text(json.dumps({"name": "ext", "entries": [FRESH]}))
    assert IsaTable.load(["rv32im", str(path)]).decode(0xB).mnemonic == "fresh"
    path.write_text(json.dumps({"name": "ext", "entries": [dict(FRESH, mnemonic="newer")]}))
    assert IsaTable.load(["rv32im", str(path)]).decode(0xB).mnemonic == "newer"


def test_packaged_table_is_read_once_per_process(monkeypatch):
    desc = pulp_descriptor()
    monkeypatch.setattr(isa, "_LOADED", {})
    isa._packaged_text.cache_clear()
    opened = []
    files = isa.importlib.resources.files

    def counted(package):
        opened.append(package)
        return files(package)

    monkeypatch.setattr(isa.importlib.resources, "files", counted)
    for _ in range(3):
        pulpsim.build(desc)
    assert len(opened) == 2                     # rv32im and xdemo


def test_every_packaged_format_has_a_row():
    for name in isa.packaged_tables():
        doc = json.loads(isa._packaged_text(name))
        for entry in doc["entries"]:
            assert entry["fmt"] in isa.FORMATS, (name, entry["mnemonic"])
