"""Table-driven instruction decoding and encoding.

The ISA is described by JSON tables (one per extension) listing binary
encodings plus metadata: operand format, instruction class, extra execute
latency and write-back latency.  New extensions are additional tables; the
loader rejects any encoding that conflicts with an already-registered one.

The format owns the bit layout of the operands.  `Instruction.__init__`
reads them out of a word; `encode` is its inverse and ORs them into an
entry's `match`, which is how the assembler builds every instruction, so a
table entry that decodes also assembles.

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


def _check(value, low, high, what, step=1):
    if value % step:
        raise ConfigError("%s %d misaligned" % (what, value))
    if not low <= value <= high:
        raise ConfigError("%s %d out of range" % (what, value))


def encode(entry, rd=0, rs1=0, rs2=0, imm=0, csr=0):
    """The word of `entry` with these operands, which `Instruction` decodes
    back; a register field the format lacks must be 0, as it decodes.  A U
    immediate is a multiple of 0x1000 whose upper 20 bits may be read as
    signed or unsigned.  Raises ConfigError for an immediate or CSR number
    the format cannot hold."""
    fmt = entry.fmt
    word = entry.match | rd << 7 | rs1 << 15 | rs2 << 20
    if fmt == "R" or fmt == "N":
        return word
    if fmt == "I":
        _check(imm, -2048, 2047, "I-immediate")
        word |= (imm & 0xFFF) << 20
    elif fmt == "IS":
        _check(imm, 0, 31, "shift amount")
        word |= imm << 20
    elif fmt == "S":
        _check(imm, -2048, 2047, "S-immediate")
        word |= ((imm >> 5) & 0x7F) << 25 | (imm & 31) << 7
    elif fmt == "B":
        _check(imm, -4096, 4094, "branch offset", 2)
        word |= ((imm >> 12) & 1) << 31 | ((imm >> 5) & 0x3F) << 25 | \
            ((imm >> 1) & 0xF) << 8 | ((imm >> 11) & 1) << 7
    elif fmt == "U":
        _check(imm >> 12, -(1 << 19), (1 << 20) - 1, "U-immediate")
        _check(imm & 0xFFF, 0, 0, "U-immediate low 12 bits")
        word |= imm & 0xFFFFF000
    elif fmt == "J":
        _check(imm, -(1 << 20), (1 << 20) - 2, "jump offset", 2)
        word |= ((imm >> 20) & 1) << 31 | ((imm >> 1) & 0x3FF) << 21 | \
            ((imm >> 11) & 1) << 20 | ((imm >> 12) & 0xFF) << 12
    elif fmt in ("CSR", "CSRI"):
        _check(csr, 0, 0xFFF, "CSR number")
        word |= csr << 20
        if fmt == "CSRI":
            _check(imm, 0, 31, "CSR immediate")
            word |= imm << 15
    return word


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


def packaged_tables():
    """Short names of the tables shipped with the package."""
    folder = importlib.resources.files("pulpsim").joinpath("isa")
    return sorted(f.name[:-5] for f in folder.iterdir() if f.name.endswith(".json"))


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
