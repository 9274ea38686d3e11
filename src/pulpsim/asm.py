"""A small two-pass assembler for the packaged ISA tables.

Exists so the bundled guest programs (and the test suite) can be built
without a cross toolchain.  Supports labels, `.org`, `.word`, `.space`,
`.equ`/`.set`, every instruction of the tables in `pulpsim/isa` and the
usual pseudo-instructions.

Encodings come from those tables alone: a mnemonic names a table entry, its
format's row in `isa.FORMATS` gives its written operands, and `isa.encode`
ORs their values into its `match`.  This module knows only how each kind of
operand is read and the pseudo-instructions, each a rewrite to one table
instruction (`mv rd, rs` is `addi rd, rs, 0`, `bgt a, b, t` is `blt b, a,
t`, `jal t` is `jal ra, t`).  `li`/`la` evaluate their value once and always
expand to lui+addi, so instruction addresses are known in the first pass.

A name is either a label, defined once, or an `.equ`/`.set` symbol, which
later `.equ`/`.set` lines may rebind; neither may be `hi` or `lo`, the
helpers that split a value for `lui`+`addi`.

Words lie on the 4-byte grid, each placed once: the origin and every
`.org` must be multiples of 4, and a word placed over another is refused.
Output is a mapping of word addresses to instruction words, plus the entry
point (the `_start` label when defined), convertible to the memory-image
format the loader reads.
"""

import functools
import keyword

from .errors import ConfigError
from .isa import FIELDS, LAYOUT, LOAD, REGISTERS, IsaTable, encode, packaged_tables

ABI_REGS = ("zero ra sp gp tp t0 t1 t2 s0 s1 a0 a1 a2 a3 a4 a5 "
            "a6 a7 s2 s3 s4 s5 s6 s7 s8 s9 s10 s11 t3 t4 t5 t6").split()
REGS = {name: i for i, name in enumerate(ABI_REGS)}
REGS.update({"x%d" % i: i for i in range(32)})
REGS["fp"] = 8
IMM, RS1 = FIELDS.index("imm"), FIELDS.index("rs1")

# names that `eval` does not look up in the symbol table
_NOT_SYMBOLS = frozenset(keyword.kwlist) | {"__debug__"}
_HELPERS = ("hi", "lo")     # functions every expression may call


class AsmError(ConfigError):
    pass


def _hi(v):
    return ((v + 0x800) >> 12) & 0xFFFFF


def _lo(v):
    lo = v & 0xFFF
    return lo - 0x1000 if lo & 0x800 else lo


def _reg(tok):
    try:
        return REGS[tok.strip()]
    except KeyError:
        raise AsmError("unknown register %r" % tok) from None


# (pseudo-instruction, operand count) -> the table instruction it stands for
# and that instruction's operands, made from the pseudo's operands `o`
_PSEUDOS = {
    ("nop", 0): ("addi", lambda o: ("x0", "x0", "0")),
    ("mv", 2): ("addi", lambda o: (o[0], o[1], "0")),
    ("not", 2): ("xori", lambda o: (o[0], o[1], "-1")),
    ("j", 1): ("jal", lambda o: ("x0", o[0])),
    ("call", 1): ("jal", lambda o: ("ra", o[0])),
    ("jal", 1): ("jal", lambda o: ("ra", o[0])),
    ("jr", 1): ("jalr", lambda o: ("x0", o[0], "0")),
    ("jalr", 1): ("jalr", lambda o: ("ra", o[0], "0")),
    ("ret", 0): ("jalr", lambda o: ("x0", "ra", "0")),
    ("beqz", 2): ("beq", lambda o: (o[0], "x0", o[1])),
    ("bnez", 2): ("bne", lambda o: (o[0], "x0", o[1])),
    ("bgt", 3): ("blt", lambda o: (o[1], o[0], o[2])),
    ("ble", 3): ("bge", lambda o: (o[1], o[0], o[2])),
    ("csrr", 2): ("csrrs", lambda o: (o[0], o[1], "x0")),
    ("csrw", 2): ("csrrw", lambda o: ("x0", o[0], o[1])),
}
_LOAD_IMMEDIATE = {("li", 2), ("la", 2)}     # lui + addi of an evaluated value


@functools.lru_cache(maxsize=None)
def _instructions():
    """(mnemonic, operand count) -> (entry, operand reader) for every
    instruction of the packaged tables; an I-format jump may also be written
    as a load is."""
    forms = {}
    for e in IsaTable.load(packaged_tables()).entries:
        forms[e.mnemonic, len(e.operands)] = e, _reader(e.fmt, e.operands)
        if e.klass == "jump" and e.fmt == "I":
            forms[e.mnemonic, len(LOAD)] = e, _reader(e.fmt, LOAD)
    return forms


@functools.lru_cache(maxsize=None)
def _reader(fmt, operands):
    """A function of (operand texts, pc, evaluate) that returns `isa.encode`'s
    operands for `fmt` written as `operands`.  It reads an offset and base
    register first and the rest in `isa.FIELDS` order, which decides the
    error of a line with two bad operands."""
    where = {op: k for k, op in enumerate(operands)}
    memory, offset = where.get("imm(rs1)"), where.get("pc+imm")
    named = [(where[f], i, None if f in REGISTERS else LAYOUT[fmt][f].scale)
             for i, f in enumerate(FIELDS) if f in where]

    def read(texts, pc, ev):
        out = [0, 0, 0, 0, 0]
        if memory is not None:
            out[IMM], out[RS1] = _mem_operand(texts[memory], ev)
        for k, i, scale in named:       # an immediate written as its upper bits moves up
            out[i] = _reg(texts[k]) if scale is None else ev(texts[k]) << scale
        if offset is not None:
            out[IMM] = ev(texts[offset]) - pc
        return out
    return read


def _split_operands(text):
    """The comma-separated operands; a comma inside parentheses does not
    split, and an empty last operand is dropped."""
    ops = text.split(",")
    if "(" in text or ")" in text:
        pieces, ops = ops, []
        for piece in pieces:
            if ops and ops[-1].count("(") != ops[-1].count(")"):
                ops[-1] += "," + piece
            else:
                ops.append(piece)
    ops = [op.strip() for op in ops]
    if not ops[-1]:
        ops.pop()
    return ops


def _mem_operand(tok, evaluate):
    """Parse 'imm(reg)' or '(reg)'."""
    tok = tok.strip()
    if not tok.endswith(")") or "(" not in tok:
        raise AsmError("expected imm(reg), got %r" % tok)
    off_text, _, reg_text = tok[:-1].partition("(")
    off = evaluate(off_text) if off_text.strip() else 0
    return off, _reg(reg_text)


class Program:
    def __init__(self, words, entry, symbols):
        self.words = words          # addr -> 32-bit word
        self.entry = entry
        self.symbols = symbols

    def to_image(self):
        lines = ["@entry %08X" % self.entry]
        for addr in sorted(self.words):
            lines.append("@%08X %08X" % (addr, self.words[addr]))
        return "\n".join(lines) + "\n"


def assemble(source, origin=0x1C000000, defines=None):
    """Assemble text into a Program; raises AsmError with line numbers."""
    if origin % 4:
        raise AsmError("origin 0x%x is not a multiple of 4" % origin)
    symbols = dict(defines or {})
    symbols.setdefault("hi", _hi)
    symbols.setdefault("lo", _lo)

    # pass 1: tokenize, place labels
    stmts = []      # (lineno, addr, mnemonic, operand_text)
    labels = {}     # label -> line it is defined on
    equs = {}       # .equ/.set symbol -> line it is first defined on
    addr = origin
    for lineno, raw in enumerate(source.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        while line:
            head = line.split(None, 1)[0]
            if not head.endswith(":"):
                break
            label = head[:-1]
            if not label.isidentifier():
                raise AsmError("line %d: bad label %r" % (lineno, label))
            if label in labels:
                raise AsmError("line %d: label %r already defined on line %d" % (
                    lineno, label, labels[label]))
            if label in equs:
                raise AsmError("line %d: label %r already defined by .equ/.set on line %d" % (
                    lineno, label, equs[label]))
            _check_not_helper("label", label, lineno)
            labels[label] = lineno
            symbols[label] = addr
            line = line[len(head):].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        mnem = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        if mnem == ".org":
            addr = _eval_static(rest, symbols, lineno)
            if addr % 4:
                raise AsmError("line %d: .org 0x%x is not a multiple of 4" % (lineno, addr))
            continue
        if mnem == ".equ" or mnem == ".set":
            name, _, expr = rest.partition(",")
            name = name.strip()
            if name in labels:
                raise AsmError("line %d: %s %r already defined as a label on line %d" % (
                    lineno, mnem, name, labels[name]))
            _check_not_helper(mnem, name, lineno)
            equs.setdefault(name, lineno)
            symbols[name] = _eval_static(expr.strip(), symbols, lineno)
            continue
        stmts.append((lineno, addr, mnem, rest))
        addr += _size_of(mnem, rest, lineno)

    # pass 2: encode
    def make_eval(lineno):
        def evaluate(expr):
            return _eval_static(expr, symbols, lineno)
        return evaluate

    words = {}
    for lineno, addr, mnem, rest in stmts:
        evaluate = make_eval(lineno)
        try:
            encoded = _encode(mnem, rest, addr, evaluate)
        except ConfigError as e:
            if str(e).startswith("line %d: " % lineno):     # _eval_static's own
                raise
            raise AsmError("line %d: %s" % (lineno, e)) from None
        for i, w in enumerate(encoded):
            at = addr + 4 * i
            if at in words:
                first = next(n for n, a, m, r in stmts if a <= at < a + _size_of(m, r, n))
                raise AsmError("line %d: 0x%x already holds the word of line %d" % (
                    lineno, at, first))
            words[at] = w

    entry = symbols.get("_start", origin)
    return Program(words, entry, symbols)


def _check_not_helper(kind, name, lineno):
    if name in _HELPERS:
        raise AsmError("line %d: %s %r would hide the built-in %s()" % (lineno, kind, name, name))


def _eval_static(expr, symbols, lineno):
    """Value of an operand expression.

    A literal (`12`, `-3`, `0x1f`, `0b101`, `1_000`) is read with `int(expr, 0)`
    and a bare name bound to an `int` (a label or `.equ` symbol) by a dict
    lookup; only other expressions (`hi(sym)`, `a + 4`, ...) go to `eval`.
    The fast paths take only what `eval` would read as the same int, so
    words and error messages do not depend on them."""
    if expr.isascii():
        try:
            return int(expr, 0)
        except ValueError:
            pass
        name = expr.strip()
        value = symbols.get(name)
        if type(value) is int and name not in _NOT_SYMBOLS:
            return value
    try:
        value = eval(expr, {"__builtins__": {}}, symbols)     # trusted input
    except Exception as e:
        raise AsmError("line %d: cannot evaluate %r: %s" % (lineno, expr, e)) from None
    if callable(value):
        raise AsmError("line %d: %r is not a value" % (lineno, expr))
    if not isinstance(value, int):      # bools pass, as 0 and 1
        raise AsmError("line %d: %r is not an integer" % (lineno, expr))
    return int(value)


def _size_of(mnem, rest, lineno):
    if mnem == ".word":
        return 4 * len(_split_operands(rest))
    if mnem == ".space":
        try:
            n = int(rest, 0)
        except ValueError:
            raise AsmError("line %d: .space needs a literal byte count" % lineno) from None
        if n < 0 or n % 4:
            raise AsmError("line %d: .space must be a non-negative multiple of 4" % lineno)
        return n
    if mnem in ("li", "la"):
        return 8
    return 4


def _encode(mnem, rest, addr, ev):
    ops = _split_operands(rest)
    if mnem == ".word":
        return [ev(o) & 0xFFFFFFFF for o in ops]
    if mnem == ".space":
        return [0] * (int(rest, 0) // 4)

    forms = _instructions()
    key = (mnem, len(ops))
    if key in _PSEUDOS:
        mnem, rewrite = _PSEUDOS[key]
        ops = rewrite(ops)
        key = (mnem, len(ops))
    elif key in _LOAD_IMMEDIATE:
        rd, value = _reg(ops[0]), ev(ops[1])
        lo = _lo(value)     # addi adds lo(value) to what lui loads: the rest of the word
        return [encode(forms["lui", 2][0], rd, 0, 0, (value - lo) & 0xFFFFFFFF),
                encode(forms["addi", 3][0], rd, rd, 0, lo)]
    form = forms.get(key)
    if form is None:
        counts = sorted(n for m, n in (*forms, *_PSEUDOS, *_LOAD_IMMEDIATE) if m == mnem)
        if not counts:
            raise AsmError("unknown mnemonic %r" % mnem)
        raise AsmError("%s takes %s operands, got %d" % (
            mnem, " or ".join(map(str, counts)), len(ops)))
    entry, read = form
    return [encode(entry, *read(ops, addr, ev))]
