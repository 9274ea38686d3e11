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
    (".org 0x1000\naddi a0, a0, 1\naddi a0, a0, 2\n.org 0x1004\naddi a1, x0, 5",
     "line 5: 0x1004 already holds the word of line 3"),
    (".org 0x1000\n.space 8\n.org 0x1004\nli a0, 5",
     "line 4: 0x1004 already holds the word of line 2"),
    ("nop\n.org 0x1006\nnop", "line 2: .org 0x1006 is not a multiple of 4"),
])
def test_error_text_carries_one_line_prefix(text, message):
    with pytest.raises(AsmError) as err:
        assemble(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text,message", [
    (".word (1, 2)", "line 1: '(1, 2)' is not an integer"),
    ('.word "abc"', "line 1: '\"abc\"' is not an integer"),
    ("nop\n    addi a0, a0, 2.7", "line 2: '2.7' is not an integer"),
    ('.equ K, "7"', "line 1: '\"7\"' is not an integer"),
])
def test_operand_must_be_an_integer(text, message):
    with pytest.raises(AsmError) as err:
        assemble(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text,message", [
    ("nop\n    add a0, a1", "line 2: add takes 3 operands, got 2"),
    ("beq a0, a1", "line 1: beq takes 3 operands, got 2"),
    ("addi a0, a1, 1, 2", "line 1: addi takes 3 operands, got 4"),
    ("ecall a0", "line 1: ecall takes 0 operands, got 1"),
    ("mv a0", "line 1: mv takes 2 operands, got 1"),
    ("jal a0, 0, 4", "line 1: jal takes 1 or 2 operands, got 3"),
])
def test_operand_count_is_checked(text, message):
    with pytest.raises(AsmError) as err:
        assemble(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text,message", [
    ("lui a0, 0x100000", "line 1: U-immediate 1048576 out of range"),
    ("auipc a0, -0x80001", "line 1: U-immediate -524289 out of range"),
    ("csrrw a0, 0x1305, a1", "line 1: CSR number 4869 out of range"),
    ("csrr a0, -1", "line 1: CSR number -1 out of range"),
    ("csrrwi a0, 0x305, 40", "line 1: CSR immediate 40 out of range"),
    ("csrrsi a0, 0x305, -1", "line 1: CSR immediate -1 out of range"),
])
def test_fields_are_range_checked(text, message):
    with pytest.raises(AsmError) as err:
        assemble(text)
    assert str(err.value) == message


def test_origin_off_the_word_grid_is_refused():
    with pytest.raises(AsmError) as err:
        assemble("nop", origin=0x1002)
    assert str(err.value) == "origin 0x1002 is not a multiple of 4"


def test_word_keeps_twos_complement():
    assert assemble(".word -1, -0x80000000", origin=0).words == {0: 0xFFFFFFFF, 4: 0x80000000}


def test_label_defined_twice_is_rejected():
    with pytest.raises(AsmError) as err:
        assemble("a: nop\nj a\na: addi a0, a0, 1")
    assert str(err.value) == "line 3: label 'a' already defined on line 1"


@pytest.mark.parametrize("text,message", [
    ("a: nop\n.equ a, 0x40\nj a", "line 2: .equ 'a' already defined as a label on line 1"),
    ("a: nop\n.set a, 0x40", "line 2: .set 'a' already defined as a label on line 1"),
    (".equ K, 4\nK: nop", "line 2: label 'K' already defined by .equ/.set on line 1"),
    ("lo: nop\nli a0, lo(5)", "line 1: label 'lo' would hide the built-in lo()"),
    ("hi: nop", "line 1: label 'hi' would hide the built-in hi()"),
    (".equ hi, 1", "line 1: .equ 'hi' would hide the built-in hi()"),
    (".set lo, 2", "line 1: .set 'lo' would hide the built-in lo()"),
])
def test_labels_and_symbols_do_not_rebind_each_other(text, message):
    with pytest.raises(AsmError) as err:
        assemble(text)
    assert str(err.value) == message


def test_equ_and_set_rebind_their_own_names():
    prog = assemble(".equ K, 4\n.set K, K + 1\n.equ K, K * 2\nli a0, K", origin=0)
    assert prog.symbols["K"] == 10
    assert prog.words == assemble("li a0, 10", origin=0).words


def test_negative_space_is_rejected():
    with pytest.raises(AsmError) as err:
        assemble("nop\n.space -4\nb: nop")
    assert str(err.value) == "line 2: .space must be a non-negative multiple of 4"
