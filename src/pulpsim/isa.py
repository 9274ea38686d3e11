"""Table-driven instruction decoding.

The ISA is described by JSON tables (one per extension) listing binary
encodings plus metadata: operand format, instruction class, extra execute
latency and write-back latency.  New extensions are additional tables; the
loader rejects any encoding that conflicts with an already-registered one.

The class is a timing contract with the core: an instruction of class
`load` or `store` makes exactly one data access (unless it traps before
it), and an instruction of any other class makes none.  The core charges
the latency of that one access from its data request after the step.

Packaged tables are read once per process and tables given as file paths
on every load.  Tables are parsed and conflict-checked once per process per
table set (the set's table texts and labels, so an edited table file is
checked again); `IsaTable.load` returns an independent table each time,
which the caller may `extend` without affecting later loads.
"""

import functools
import json
import importlib.resources

from .errors import ConfigError

FORMATS = ("R", "I", "IS", "S", "B", "U", "J", "CSR", "CSRI", "N")


def sext(value, bits):
    m = 1 << (bits - 1)
    return (value ^ m) - m


class IsaEntry:
    __slots__ = ("mnemonic", "mask", "match", "fmt", "semantics", "klass",
                 "latency", "writeback_latency", "table")

    def __init__(self, d, table_name):
        try:
            self.mnemonic = d["mnemonic"]
            self.mask = int(d["mask"], 0) if isinstance(d["mask"], str) else d["mask"]
            self.match = int(d["match"], 0) if isinstance(d["match"], str) else d["match"]
            self.fmt = d["fmt"]
            self.semantics = d.get("semantics", d["mnemonic"])
            self.klass = d.get("class", "alu")
        except KeyError as e:
            raise ConfigError("ISA table %s: entry %r missing %s" % (table_name, d, e))
        if self.fmt not in FORMATS:
            raise ConfigError("ISA table %s: %s has unknown format %r" % (
                table_name, self.mnemonic, self.fmt))
        self.latency = int(d.get("latency", 0))
        self.writeback_latency = int(d.get("writeback_latency", 0))
        self.table = table_name

    def conflicts(self, other):
        common = self.mask & other.mask
        return (self.match & common) == (other.match & common)


class Instruction:
    """One decoded instruction: operands plus the table metadata."""

    __slots__ = ("entry", "word", "rd", "rs1", "rs2", "imm", "csr")

    def __init__(self, entry, word):
        self.entry = entry
        self.word = word
        self.rd = (word >> 7) & 31
        self.rs1 = (word >> 15) & 31
        self.rs2 = (word >> 20) & 31
        self.imm = 0
        self.csr = 0
        fmt = entry.fmt
        if fmt == "I":
            self.imm = sext(word >> 20, 12)
            self.rs2 = 0
        elif fmt == "IS":
            self.imm = (word >> 20) & 31
            self.rs2 = 0
        elif fmt == "S":
            self.imm = sext(((word >> 25) << 5) | ((word >> 7) & 31), 12)
            self.rd = 0
        elif fmt == "B":
            v = (((word >> 31) & 1) << 12) | (((word >> 7) & 1) << 11) | \
                (((word >> 25) & 0x3F) << 5) | (((word >> 8) & 0xF) << 1)
            self.imm = sext(v, 13)
            self.rd = 0
        elif fmt == "U":
            self.imm = sext(word & 0xFFFFF000, 32)
            self.rs1 = 0
            self.rs2 = 0
        elif fmt == "J":
            v = (((word >> 31) & 1) << 20) | (((word >> 12) & 0xFF) << 12) | \
                (((word >> 20) & 1) << 11) | (((word >> 21) & 0x3FF) << 1)
            self.imm = sext(v, 21)
            self.rs1 = 0
            self.rs2 = 0
        elif fmt == "CSR":
            self.csr = (word >> 20) & 0xFFF
            self.rs2 = 0
        elif fmt == "CSRI":
            self.csr = (word >> 20) & 0xFFF
            self.imm = (word >> 15) & 31
            self.rs1 = 0
            self.rs2 = 0
        elif fmt == "N":
            self.rd = self.rs1 = self.rs2 = 0

    @property
    def mnemonic(self):
        return self.entry.mnemonic

    def text(self):
        """Assembly-style rendering, used by instruction traces."""
        e = self.entry
        f = e.fmt
        if f == "R":
            return "%s x%d, x%d, x%d" % (e.mnemonic, self.rd, self.rs1, self.rs2)
        if f == "I":
            if e.klass == "load":
                return "%s x%d, %d(x%d)" % (e.mnemonic, self.rd, self.imm, self.rs1)
            return "%s x%d, x%d, %d" % (e.mnemonic, self.rd, self.rs1, self.imm)
        if f == "IS":
            return "%s x%d, x%d, %d" % (e.mnemonic, self.rd, self.rs1, self.imm)
        if f == "S":
            return "%s x%d, %d(x%d)" % (e.mnemonic, self.rs2, self.imm, self.rs1)
        if f == "B":
            return "%s x%d, x%d, %d" % (e.mnemonic, self.rs1, self.rs2, self.imm)
        if f == "U":
            return "%s x%d, 0x%x" % (e.mnemonic, self.rd, (self.imm >> 12) & 0xFFFFF)
        if f == "J":
            return "%s x%d, %d" % (e.mnemonic, self.rd, self.imm)
        if f == "CSR":
            return "%s x%d, 0x%x, x%d" % (e.mnemonic, self.rd, self.csr, self.rs1)
        if f == "CSRI":
            return "%s x%d, 0x%x, %d" % (e.mnemonic, self.rd, self.csr, self.imm)
        return e.mnemonic

    def __repr__(self):
        return "<Instruction %s word=0x%08x>" % (self.mnemonic, self.word)


def _table_text(name):
    """Load a table by short name from package data, or by file path."""
    if "/" in name or name.endswith(".json"):
        with open(name) as fh:
            return fh.read(), name
    return _packaged_text(name), name


@functools.lru_cache(maxsize=None)
def _packaged_text(name):
    """A table shipped with the package: it cannot change, so read it once."""
    return importlib.resources.files("pulpsim").joinpath("isa/%s.json" % name).read_text()


# (text, label) pairs of a table set -> the IsaTable that passed the conflict
# check; loads copy its lists and share its IsaEntry objects, never mutated
_LOADED = {}


class IsaTable:
    def __init__(self):
        self.entries = []
        self.tables = []

    @classmethod
    def load(cls, names):
        sources = tuple(_table_text(name) for name in names)
        checked = _LOADED.get(sources)
        if checked is None:
            checked = cls()
            for text, label in sources:
                checked.extend(json.loads(text), label)
            _LOADED[sources] = checked
        table = cls()
        table.entries = list(checked.entries)
        table.tables = list(checked.tables)
        return table

    def extend(self, doc, label):
        """Register a table fragment, rejecting encoding conflicts.

        Every new entry is checked against the registered ones and against
        the fragment's earlier entries; on a conflict nothing is added."""
        new = [IsaEntry(d, doc.get("name", label)) for d in doc["entries"]]
        for i, e in enumerate(new):
            for old in self.entries + new[:i]:
                if e.conflicts(old):
                    raise ConfigError(
                        "ISA conflict: '%s' (%s) overlaps '%s' (%s)" % (
                            e.mnemonic, e.table, old.mnemonic, old.table))
        self.entries.extend(new)
        self.tables.append(doc.get("name", label))

    def decode(self, word):
        """Linear mask/match scan; callers cache the result per word."""
        for e in self.entries:
            if word & e.mask == e.match:
                return Instruction(e, word)
        return None
