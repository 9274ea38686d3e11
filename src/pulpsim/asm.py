"""A small two-pass RV32IM assembler.

Exists so the bundled guest programs (and the test suite) can be built
without a cross toolchain.  Supports labels, `.org`, `.word`, `.space`,
`.equ`, the usual pseudo-instructions (li/la/mv/j/call/ret/nop/beqz/...)
and the demo extension (`p.mac`, `p.lwpost`).  `li`/`la` always expand to
lui+addi so instruction addresses are known in the first pass.

Output is a mapping of word addresses to instruction words, plus the entry
point (the `_start` label when defined), convertible to the memory-image
format the loader reads.
"""

import keyword

from .errors import ConfigError

ABI_REGS = ("zero ra sp gp tp t0 t1 t2 s0 s1 a0 a1 a2 a3 a4 a5 "
            "a6 a7 s2 s3 s4 s5 s6 s7 s8 s9 s10 s11 t3 t4 t5 t6").split()
REGS = {name: i for i, name in enumerate(ABI_REGS)}
REGS.update({"x%d" % i: i for i in range(32)})
REGS["fp"] = 8

# names that `eval` does not look up in the symbol table
_NOT_SYMBOLS = frozenset(keyword.kwlist) | {"__debug__"}


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


def _enc_r(funct7, rs2, rs1, funct3, rd, opcode):
    return (funct7 << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) | \
        (rd << 7) | opcode


def _enc_i(imm, rs1, funct3, rd, opcode):
    if not -2048 <= imm <= 2047:
        raise AsmError("I-immediate %d out of range" % imm)
    return ((imm & 0xFFF) << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode


def _enc_s(imm, rs2, rs1, funct3, opcode):
    if not -2048 <= imm <= 2047:
        raise AsmError("S-immediate %d out of range" % imm)
    imm &= 0xFFF
    return ((imm >> 5) << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) | \
        (((imm & 0x1F)) << 7) | opcode


def _enc_b(offset, rs2, rs1, funct3):
    if offset % 2:
        raise AsmError("branch target misaligned")
    if not -4096 <= offset <= 4094:
        raise AsmError("branch offset %d out of range" % offset)
    v = offset & 0x1FFF
    return (((v >> 12) & 1) << 31) | (((v >> 5) & 0x3F) << 25) | (rs2 << 20) | \
        (rs1 << 15) | (funct3 << 12) | (((v >> 1) & 0xF) << 8) | \
        (((v >> 11) & 1) << 7) | 0x63


def _enc_u(imm20, rd, opcode):
    return ((imm20 & 0xFFFFF) << 12) | (rd << 7) | opcode


def _enc_j(offset, rd):
    if offset % 2:
        raise AsmError("jump target misaligned")
    if not -(1 << 20) <= offset < (1 << 20):
        raise AsmError("jump offset %d out of range" % offset)
    v = offset & 0x1FFFFF
    return (((v >> 20) & 1) << 31) | (((v >> 1) & 0x3FF) << 21) | \
        (((v >> 11) & 1) << 20) | (((v >> 12) & 0xFF) << 12) | (rd << 7) | 0x6F


_OP_R = {
    "add": (0, 0), "sub": (0x20, 0), "sll": (0, 1), "slt": (0, 2),
    "sltu": (0, 3), "xor": (0, 4), "srl": (0, 5), "sra": (0x20, 5),
    "or": (0, 6), "and": (0, 7),
    "mul": (1, 0), "mulh": (1, 1), "mulhsu": (1, 2), "mulhu": (1, 3),
    "div": (1, 4), "divu": (1, 5), "rem": (1, 6), "remu": (1, 7),
}
_OP_I = {"addi": 0, "slti": 2, "sltiu": 3, "xori": 4, "ori": 6, "andi": 7}
_OP_LOAD = {"lb": 0, "lh": 1, "lw": 2, "lbu": 4, "lhu": 5}
_OP_STORE = {"sb": 0, "sh": 1, "sw": 2}
_OP_BRANCH = {"beq": 0, "bne": 1, "blt": 4, "bge": 5, "bltu": 6, "bgeu": 7}
_OP_SHIFT = {"slli": (0, 1), "srli": (0, 5), "srai": (0x20, 5)}
_OP_CSR = {"csrrw": 1, "csrrs": 2, "csrrc": 3, "csrrwi": 5, "csrrsi": 6, "csrrci": 7}


def _split_operands(text):
    out = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == "," and depth == 0:
            out.append(cur.strip())
            cur = ""
        else:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            cur += ch
    if cur.strip():
        out.append(cur.strip())
    return out


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
    symbols = dict(defines or {})
    symbols.setdefault("hi", _hi)
    symbols.setdefault("lo", _lo)

    # pass 1: tokenize, place labels
    stmts = []      # (lineno, addr, mnemonic, operand_text)
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
            symbols[label] = addr
            line = line[len(head):].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        mnem = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        if mnem == ".org":
            addr = _eval_static(rest, symbols, lineno)
            continue
        if mnem == ".equ" or mnem == ".set":
            name, _, expr = rest.partition(",")
            symbols[name.strip()] = _eval_static(expr, symbols, lineno)
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
        except AsmError as e:
            if str(e).startswith("line %d: " % lineno):     # _eval_static's own
                raise
            raise AsmError("line %d: %s" % (lineno, e)) from None
        for i, w in enumerate(encoded):
            words[addr + 4 * i] = w & 0xFFFFFFFF

    entry = symbols.get("_start", origin)
    return Program(words, entry, symbols)


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
    return int(value)


def _size_of(mnem, rest, lineno):
    if mnem == ".word":
        return 4 * len(_split_operands(rest))
    if mnem == ".space":
        try:
            n = int(rest, 0)
        except ValueError:
            raise AsmError("line %d: .space needs a literal byte count" % lineno) from None
        if n % 4:
            raise AsmError("line %d: .space must be word-aligned" % lineno)
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

    # pseudo-instructions
    if mnem == "nop":
        return [_enc_i(0, 0, 0, 0, 0x13)]
    if mnem == "li" or mnem == "la":
        rd = _reg(ops[0])
        value = ev(ops[1])
        hi, lo = _hi(value), _lo(value)
        return [_enc_u(hi, rd, 0x37), _enc_i(lo, rd, 0, rd, 0x13)]
    if mnem == "mv":
        return [_enc_i(0, _reg(ops[1]), 0, _reg(ops[0]), 0x13)]
    if mnem == "not":
        return [_enc_i(-1, _reg(ops[1]), 4, _reg(ops[0]), 0x13)]
    if mnem == "j":
        return [_enc_j(ev(ops[0]) - addr, 0)]
    if mnem == "call":
        return [_enc_j(ev(ops[0]) - addr, 1)]
    if mnem == "jr":
        return [_enc_i(0, _reg(ops[0]), 0, 0, 0x67)]
    if mnem == "ret":
        return [_enc_i(0, 1, 0, 0, 0x67)]
    if mnem == "beqz":
        return [_enc_b(ev(ops[1]) - addr, 0, _reg(ops[0]), 0)]
    if mnem == "bnez":
        return [_enc_b(ev(ops[1]) - addr, 0, _reg(ops[0]), 1)]
    if mnem == "bgt":
        return [_enc_b(ev(ops[2]) - addr, _reg(ops[0]), _reg(ops[1]), 4)]
    if mnem == "ble":
        return [_enc_b(ev(ops[2]) - addr, _reg(ops[0]), _reg(ops[1]), 5)]
    if mnem == "csrr":
        return [((ev(ops[1]) & 0xFFF) << 20) | (0 << 15) | (2 << 12) |
                (_reg(ops[0]) << 7) | 0x73]
    if mnem == "csrw":
        return [((ev(ops[0]) & 0xFFF) << 20) | (_reg(ops[1]) << 15) | (1 << 12) | 0x73]

    # real instructions
    if mnem in _OP_R:
        f7, f3 = _OP_R[mnem]
        return [_enc_r(f7, _reg(ops[2]), _reg(ops[1]), f3, _reg(ops[0]), 0x33)]
    if mnem in _OP_I:
        return [_enc_i(ev(ops[2]), _reg(ops[1]), _OP_I[mnem], _reg(ops[0]), 0x13)]
    if mnem in _OP_SHIFT:
        f7, f3 = _OP_SHIFT[mnem]
        sh = ev(ops[2])
        if not 0 <= sh < 32:
            raise AsmError("shift amount %d out of range" % sh)
        return [_enc_r(f7, sh, _reg(ops[1]), f3, _reg(ops[0]), 0x13)]
    if mnem in _OP_LOAD:
        off, base = _mem_operand(ops[1], ev)
        return [_enc_i(off, base, _OP_LOAD[mnem], _reg(ops[0]), 0x03)]
    if mnem in _OP_STORE:
        off, base = _mem_operand(ops[1], ev)
        return [_enc_s(off, _reg(ops[0]), base, _OP_STORE[mnem], 0x23)]
    if mnem in _OP_BRANCH:
        return [_enc_b(ev(ops[2]) - addr, _reg(ops[1]), _reg(ops[0]),
                       _OP_BRANCH[mnem])]
    if mnem == "lui":
        return [_enc_u(ev(ops[1]), _reg(ops[0]), 0x37)]
    if mnem == "auipc":
        return [_enc_u(ev(ops[1]), _reg(ops[0]), 0x17)]
    if mnem == "jal":
        if len(ops) == 1:
            return [_enc_j(ev(ops[0]) - addr, 1)]
        return [_enc_j(ev(ops[1]) - addr, _reg(ops[0]))]
    if mnem == "jalr":
        if len(ops) == 1:
            return [_enc_i(0, _reg(ops[0]), 0, 1, 0x67)]
        if len(ops) == 2 and "(" in ops[1]:
            off, base = _mem_operand(ops[1], ev)
            return [_enc_i(off, base, 0, _reg(ops[0]), 0x67)]
        return [_enc_i(ev(ops[2]), _reg(ops[1]), 0, _reg(ops[0]), 0x67)]
    if mnem in _OP_CSR:
        f3 = _OP_CSR[mnem]
        csr = ev(ops[1]) & 0xFFF
        if mnem.endswith("i"):
            src = ev(ops[2]) & 31
        else:
            src = _reg(ops[2])
        return [(csr << 20) | (src << 15) | (f3 << 12) | (_reg(ops[0]) << 7) | 0x73]
    if mnem == "ecall":
        return [0x00000073]
    if mnem == "ebreak":
        return [0x00100073]
    if mnem == "mret":
        return [0x30200073]
    if mnem == "fence":
        return [0x0000000F]
    if mnem == "fence.i":
        return [0x0000100F]
    if mnem == "p.mac":
        return [_enc_r(1, _reg(ops[2]), _reg(ops[1]), 0, _reg(ops[0]), 0x0B)]
    if mnem == "p.lwpost":
        off, base = _mem_operand(ops[1], ev)
        return [_enc_i(off, base, 2, _reg(ops[0]), 0x0B)]

    raise AsmError("unknown mnemonic %r" % mnem)
