"""Assembler operand evaluation: the literal and symbol fast path of
`_eval_static` gives the same words and errors as evaluating every operand
with `eval`."""

import pytest

from pulpsim import asm
from pulpsim.asm import AsmError, assemble

# operand expressions, each used as a .word, a li and an .equ value
EXPRESSIONS = [
    "12", "-7", "+3", " 42 ", "0", "00", "0x1F", "-0x10", "0X1f", "0b1011",
    "0B11", "0o17", "1_000", "0x_FF", "(3)", "start", "data_end", "K", "-K",
    "K+4", "NEG", "hi(start)", "lo(start)", "hi(K)", "lo(0x12345)", "FLAG",
    "True", "WIDE",
]


def source(expr):
    return """
.equ K, 0x40
.equ NEG, -5
start:
    .word %(e)s
    li a0, %(e)s
    lw a1, K(a0)
    sw a1, -4(a0)
    addi a1, a1, lo(V)
True:
data_end:
    .word V
.equ V, %(e)s
""" % {"e": expr}


def eval_only(expr, symbols, lineno):
    """Operand evaluation without the fast path."""
    try:
        value = eval(expr, {"__builtins__": {}}, symbols)
    except Exception as e:
        raise AsmError("line %d: cannot evaluate %r: %s" % (lineno, expr, e)) from None
    if callable(value):
        raise AsmError("line %d: %r is not a value" % (lineno, expr))
    return int(value)


def assemble_both(text, monkeypatch, **kwargs):
    fast = assemble(text, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(asm, "_eval_static", eval_only)
        slow = assemble(text, **kwargs)
    return fast, slow


@pytest.mark.parametrize("expr", EXPRESSIONS)
def test_fast_path_matches_eval(expr, monkeypatch):
    defines = {"FLAG": True, "WIDE": 0x12345678}
    fast, slow = assemble_both(source(expr), monkeypatch, origin=0x1000, defines=defines)
    assert fast.words == slow.words
    assert fast.symbols["V"] == slow.symbols["V"]
    assert type(fast.symbols["V"]) is int


@pytest.mark.parametrize("expr", ["nosuch", "hi", "010", "start +", "1e", "\u0661\u0662"])
def test_fast_path_errors_match_eval(expr, monkeypatch):
    text = "start:\n    .word %s\n" % expr
    with pytest.raises(AsmError) as fast:
        assemble(text)
    with monkeypatch.context() as m:
        m.setattr(asm, "_eval_static", eval_only)
        with pytest.raises(AsmError) as slow:
            assemble(text)
    assert str(fast.value) == str(slow.value)


def test_error_text():
    with pytest.raises(AsmError, match="line 1: cannot evaluate 'nosuch': name 'nosuch' is not defined"):
        assemble(".word nosuch")
    with pytest.raises(AsmError, match="line 1: 'hi' is not a value"):
        assemble(".word hi")


@pytest.mark.parametrize("text,message", [
    (".word nosuch", "line 1: cannot evaluate 'nosuch': name 'nosuch' is not defined"),
    (".word hi", "line 1: 'hi' is not a value"),
    ("nop\n    addi x1, x0, 5000", "line 2: I-immediate 5000 out of range"),
    ("nop\nnop\n    addi x1, x0, nosuch", "line 3: cannot evaluate 'nosuch': "
                                         "name 'nosuch' is not defined"),
])
def test_error_text_carries_one_line_prefix(text, message):
    with pytest.raises(AsmError) as err:
        assemble(text)
    assert str(err.value) == message
