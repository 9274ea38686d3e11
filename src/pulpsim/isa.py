"""Table-driven instruction decoding and encoding.

The ISA is described by JSON tables (one per extension) listing binary
encodings plus metadata: operand format, instruction class, extra execute
latency and write-back latency.  New extensions are additional tables; the
loader rejects any encoding that conflicts with an already-registered one.

Each operand format is one row of `FORMATS`, and all else about it is read
from the row: its fields (`LAYOUT`), how `Instruction.__init__` takes them
out of a word and how `encode`, its inverse, checks them and ORs them into
an entry's `match`, the trace text and the assembler's operand syntax; so
a table entry that decodes also assembles.  Beside the rows stand two
rules: a load is written `rd, imm(rs1)` (`LOAD`), and an I-format jump may
be too.

The class is a timing contract with the core: an instruction of class
`load` or `store` makes exactly one data access (unless it traps before
it), and an instruction of any other class makes none.  The core charges
that one access's `at` past its issue cycle after the step.

Packaged tables are read once per process and tables given as file paths
on every load.  Tables are parsed and conflict-checked once per process per
table set (the set's table texts and labels, so an edited table file is
checked again); `IsaTable.load` returns an independent table each time,
which the caller may `extend` without affecting later loads.
"""

import functools
import json
import importlib.resources
import re

from .component import as_int
from .errors import ConfigError

# format -> (written operands, immediate).  An operand is a field name,
# "imm(rs1)" (an offset from a base register) or "pc+imm" (an address, for
# its offset from the pc; traces print the offset).  An immediate is (its
# name in errors, signed, its (word bit, width, immediate bit) slices),
# which give its range and alignment; U's, with signedness None, is written
# and printed (in hex) as its upper bits, read as signed or unsigned.
FORMATS = {
    "R": (("rd", "rs1", "rs2"), None),
    "I": (("rd", "rs1", "imm"), ("I-immediate", True, ((20, 12, 0),))),
    "IS": (("rd", "rs1", "imm"), ("shift amount", False, ((20, 5, 0),))),
    "S": (("rs2", "imm(rs1)"), ("S-immediate", True, ((7, 5, 0), (25, 7, 5)))),
    "B": (("rs1", "rs2", "pc+imm"), ("branch offset", True,
                                     ((8, 4, 1), (25, 6, 5), (7, 1, 11), (31, 1, 12)))),
    "U": (("rd", "imm"), ("U-immediate", None, ((12, 20, 12),))),
    "J": (("rd", "pc+imm"), ("jump offset", True,
                             ((21, 10, 1), (20, 1, 11), (12, 8, 12), (31, 1, 20)))),
    "CSR": (("rd", "csr", "rs1"), None),
    "CSRI": (("rd", "csr", "imm"), ("CSR immediate", False, ((15, 5, 0),))),
    "N": ((), None),
}
# the fields every format places alike: an immediate's shape, then the text form
FIXED = {
    "rd": ("rd", False, ((7, 5, 0),), "x%d"),
    "rs1": ("rs1", False, ((15, 5, 0),), "x%d"),
    "rs2": ("rs2", False, ((20, 5, 0),), "x%d"),
    "csr": ("CSR number", False, ((20, 12, 0),), "0x%x"),
}
REGISTERS = ("rd", "rs1", "rs2")
FIELDS = REGISTERS + ("imm", "csr")     # the order of encode's operands
LOAD = ("rd", "imm(rs1)")               # how a load is written, whatever its format
_NAMES = re.compile(r"[a-z]+\d?")     # the names in a written operand


def sext(value, bits):
    m = 1 << (bits - 1)
    return (value ^ m) - m


class Field:
    """An operand field: read from a word's slices, packed back after a
    check of its range and alignment, and printed."""

    __slots__ = ("what", "signed", "parts", "top", "step", "low", "high", "scale", "form")

    def __init__(self, what, signed, slices, form="%d"):
        lsb = min(at for _, _, at in slices)
        self.top = top = max(at + width for _, width, at in slices)
        self.what, self.signed, self.step = what, signed, 1 << lsb
        self.parts = tuple((bit, at, (1 << width) - 1) for bit, width, at in slices)
        self.low = 0 if signed is False else -(1 << top - 1)
        self.high = (1 << top - (signed is True)) - self.step
        self.scale, self.form = (lsb, "0x%x") if signed is None else (0, form)

    def decode(self, word):
        value = sum((word >> bit & mask) << at for bit, at, mask in self.parts)
        return value if self.signed is False else sext(value, self.top)

    def pack(self, value):
        """The word bits of `value`; raises ConfigError if the field cannot hold it."""
        if value % self.step or not self.low <= value <= self.high:
            what, shown = self.what, value >> self.scale
            if self.scale and self.low >> self.scale <= shown <= self.high >> self.scale:
                # U's upper bits fit, so its low bits are not 0
                what, shown = "%s low %d bits" % (what, self.scale), value % self.step
            elif value % self.step and not self.scale:
                raise ConfigError("%s %d misaligned" % (what, value))
            raise ConfigError("%s %d out of range" % (what, shown))
        bits = 0
        for bit, at, mask in self.parts:
            bits |= (value >> at & mask) << bit
        return bits

    def text(self, value):
        if self.scale:
            value = value >> self.scale & (1 << self.top - self.scale) - 1
        return self.form % value


# format -> name -> Field, for the fields that its written operands name
LAYOUT = {fmt: {f: Field(*spec) for f, spec in dict(FIXED, imm=imm).items()
                if f in _NAMES.findall(" ".join(operands))}
          for fmt, (operands, imm) in FORMATS.items()}
_RD, _RS1, _RS2 = (FIXED[r][2][0][0] for r in REGISTERS)     # each register's word bit
_CHECKED = {fmt: (fields.get("csr"), fields.get("imm")) for fmt, fields in LAYOUT.items()}


class IsaEntry:
    """One table entry.  Its mask and match are ints or int strings, its
    latencies non-negative ints and its other fields strings; otherwise it
    raises ConfigError naming the table and the entry."""

    __slots__ = ("mnemonic", "mask", "match", "fmt", "semantics", "klass",
                 "latency", "writeback_latency", "table", "operands", "text_form")

    def __init__(self, d, table_name):
        try:
            self.mnemonic = d["mnemonic"]
            self.mask = as_int(d["mask"], "ISA table %s: %s mask" % (table_name, self.mnemonic))
            self.match = as_int(d["match"], "ISA table %s: %s match" % (table_name, self.mnemonic))
            self.fmt = d["fmt"]
            self.semantics = d.get("semantics", d["mnemonic"])
            self.klass = d.get("class", "alu")
        except KeyError as e:
            raise ConfigError("ISA table %s: entry %r missing %s" % (table_name, d, e))
        if not all(isinstance(v, str) for v in (self.mnemonic, self.fmt, self.klass,
                                                self.semantics)):
            raise ConfigError("ISA table %s: entry %r: mnemonic, fmt, class and semantics "
                              "must be strings" % (table_name, d))
        if self.fmt not in FORMATS:
            raise ConfigError("ISA table %s: %s has unknown format %r" % (
                table_name, self.mnemonic, self.fmt))
        for key in ("latency", "writeback_latency"):
            value = d.get(key, 0)
            if type(value) is not int or value < 0:
                raise ConfigError("ISA table %s: %s %s must be a non-negative integer, got %r" % (
                    table_name, self.mnemonic, key, value))
            setattr(self, key, value)
        self.table = table_name
        self.operands = LOAD if self.klass == "load" else FORMATS[self.fmt][0]
        written = ", ".join(self.operands).replace("pc+", "")
        self.text_form = ((self.mnemonic + " " + _NAMES.sub("%s", written)).rstrip(),
                          _NAMES.findall(written))

    def conflicts(self, other):
        common = self.mask & other.mask
        return (self.match & common) == (other.match & common)


class Instruction:
    """One decoded instruction: operands plus the table metadata."""

    __slots__ = ("entry", "word", "rd", "rs1", "rs2", "imm", "csr")

    def __init__(self, entry, word):
        self.entry = entry
        self.word = word
        self.rd = self.rs1 = self.rs2 = self.imm = self.csr = 0
        for name, field in LAYOUT[entry.fmt].items():
            setattr(self, name, field.decode(word))

    @property
    def mnemonic(self):
        return self.entry.mnemonic

    def text(self):
        """Assembly-style rendering, used by instruction traces: the written
        operands, each field name standing for its text, "pc+" dropped."""
        form, names = self.entry.text_form
        fields = LAYOUT[self.entry.fmt]
        return form % tuple(fields[n].text(getattr(self, n)) for n in names)

    def __repr__(self):
        return "<Instruction %s word=0x%08x>" % (self.mnemonic, self.word)


def encode(entry, rd=0, rs1=0, rs2=0, imm=0, csr=0):
    """The word of `entry` with these operands, which `Instruction` decodes
    back; a register field the format lacks must be 0, as it decodes.
    Raises ConfigError for a register number outside 0..31 (a negative one
    too) or an immediate or CSR number the format cannot hold."""
    if (rd | rs1 | rs2) >> 5:
        raise ConfigError("%s: register numbers must be 0..31, got x%d, x%d, x%d" % (
            entry.mnemonic, rd, rs1, rs2))
    word = entry.match | rd << _RD | rs1 << _RS1 | rs2 << _RS2
    csr_field, imm_field = _CHECKED[entry.fmt]
    if csr_field is not None:
        word |= csr_field.pack(csr)
    if imm_field is not None:
        word |= imm_field.pack(imm)
    return word


def _table_text(name):
    """Load a table by short name from package data, or by file path."""
    if not isinstance(name, str):
        raise ConfigError("ISA table %r: expected a table name or a file path" % (name,))
    if "/" in name or name.endswith(".json"):
        try:
            with open(name) as fh:
                return fh.read(), name
        except OSError as e:
            raise ConfigError("ISA table '%s': %s" % (name, e.strerror)) from None
    try:
        return _packaged_text(name), name
    except FileNotFoundError:
        raise ConfigError("unknown ISA table '%s' (packaged: %s)" % (
            name, ", ".join(packaged_tables()))) from None


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
                try:
                    doc = json.loads(text)
                except json.JSONDecodeError as e:
                    raise ConfigError("ISA table '%s': invalid JSON: %s" % (label, e)) from None
                checked.extend(doc, label)
            _LOADED[sources] = checked
        table = cls()
        table.entries = list(checked.entries)
        table.tables = list(checked.tables)
        return table

    def extend(self, doc, label):
        """Register a table fragment, rejecting encoding conflicts.

        Every new entry is checked against the registered ones and against
        the fragment's earlier entries; on a conflict nothing is added."""
        if not (isinstance(doc, dict) and isinstance(doc.get("entries"), list)
                and all(isinstance(d, dict) for d in doc["entries"])):
            raise ConfigError("ISA table '%s': expected an object with a list of "
                              "entry objects in 'entries'" % label)
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
