"""The assembler builds every word from the packaged ISA tables: each
entry, with drawn operands, decodes back to itself and the same fields, and
one line per mnemonic and per pseudo-instruction keeps its word and the
trace text of that word.  Going the other way, any word of an entry
encodes back from its decoded fields."""

import random

import pytest

from pulpsim.asm import assemble
from pulpsim.errors import ConfigError
from pulpsim.isa import Instruction, IsaTable, encode, packaged_tables, sext

ORIGIN = 0x100000      # a J target 1 MiB back is address 0
TABLE = IsaTable.load(packaged_tables())


def pick(rng, low, high):
    return rng.choice((low, high, rng.randint(low, high)))


def drawn(entry, rng):
    """Operand text for `entry` and the (rd, rs1, rs2, imm, csr) it decodes to."""
    rd, rs1, rs2 = (rng.randrange(32) for _ in range(3))
    csr = pick(rng, 0, 0xFFF)
    fmt = entry.fmt
    if fmt == "R":
        return "x%d, x%d, x%d" % (rd, rs1, rs2), (rd, rs1, rs2, 0, 0)
    if fmt in ("I", "IS"):
        imm = pick(rng, -2048, 2047) if fmt == "I" else pick(rng, 0, 31)
        if entry.klass == "load":
            return "x%d, %d(x%d)" % (rd, imm, rs1), (rd, rs1, 0, imm, 0)
        return "x%d, x%d, %d" % (rd, rs1, imm), (rd, rs1, 0, imm, 0)
    if fmt == "S":
        imm = pick(rng, -2048, 2047)
        return "x%d, %d(x%d)" % (rs2, imm, rs1), (0, rs1, rs2, imm, 0)
    if fmt == "B":
        imm = 2 * pick(rng, -2048, 2047)
        return "x%d, x%d, %d" % (rs1, rs2, ORIGIN + imm), (0, rs1, rs2, imm, 0)
    if fmt == "U":
        upper = pick(rng, 0, 0xFFFFF)
        return "x%d, %#x" % (rd, upper), (rd, 0, 0, sext(upper << 12, 32), 0)
    if fmt == "J":
        imm = 2 * pick(rng, -(1 << 19), (1 << 19) - 1)
        return "x%d, %d" % (rd, ORIGIN + imm), (rd, 0, 0, imm, 0)
    if fmt == "CSR":
        return "x%d, %#x, x%d" % (rd, csr, rs1), (rd, rs1, 0, 0, csr)
    if fmt == "CSRI":
        imm = pick(rng, 0, 31)
        return "x%d, %#x, %d" % (rd, csr, imm), (rd, 0, 0, imm, csr)
    return "", (0, 0, 0, 0, 0)


@pytest.mark.parametrize("entry", TABLE.entries, ids=lambda e: e.mnemonic)
def test_drawn_operands_decode_back(entry):
    rng = random.Random(entry.mnemonic)
    for _ in range(60):
        ops, fields = drawn(entry, rng)
        word = assemble("%s %s" % (entry.mnemonic, ops), origin=ORIGIN).words[ORIGIN]
        ins = TABLE.decode(word)
        assert ins.mnemonic == entry.mnemonic, ops
        assert (ins.rd, ins.rs1, ins.rs2, ins.imm, ins.csr) == fields, ops


# one line per table mnemonic (jalr in both forms) and per pseudo-instruction,
# assembled at 0x1000, with the words the assembler has always given them
PINNED = [
    ('add a0, a1, a2', 0x00C58533),
    ('sub s0, s1, t0', 0x40548433),
    ('sll t1, t2, a3', 0x00D39333),
    ('slt a4, a5, a6', 0x0107A733),
    ('sltu a7, s2, s3', 0x013938B3),
    ('xor s4, s5, s6', 0x016ACA33),
    ('srl s7, s8, s9', 0x019C5BB3),
    ('sra s10, s11, t3', 0x41CDDD33),
    ('or t4, t5, t6', 0x01FF6EB3),
    ('and x1, x2, x3', 0x003170B3),
    ('mul x4, x5, x6', 0x02628233),
    ('mulh x7, x8, x9', 0x029413B3),
    ('mulhsu x10, x11, x12', 0x02C5A533),
    ('mulhu x13, x14, x15', 0x02F736B3),
    ('div x16, x17, x18', 0x0328C833),
    ('divu x19, x20, x21', 0x035A59B3),
    ('rem x22, x23, x24', 0x038BEB33),
    ('remu x25, x26, x27', 0x03BD7CB3),
    ('p.mac x28, x29, x30', 0x03EE8E0B),
    ('addi a0, a1, -2048', 0x80058513),
    ('slti a0, a1, 2047', 0x7FF5A513),
    ('sltiu t0, t1, 1', 0x00133293),
    ('xori a2, a3, -1', 0xFFF6C613),
    ('ori a4, a5, 0x7F0', 0x7F07E713),
    ('andi a6, a7, 255', 0x0FF8F813),
    ('slli a0, a1, 31', 0x01F59513),
    ('srli a2, a3, 1', 0x0016D613),
    ('srai a4, a5, 17', 0x4117D713),
    ('lb a0, -4(sp)', 0xFFC10503),
    ('lh a1, 2(gp)', 0x00219583),
    ('lw a2, 2047(tp)', 0x7FF22603),
    ('lbu a3, (s0)', 0x00044683),
    ('lhu a4, -2048(fp)', 0x80045703),
    ('p.lwpost a5, 4(a6)', 0x0048278B),
    ('sb a0, -1(sp)', 0xFEA10FA3),
    ('sh a1, 6(s1)', 0x00B49323),
    ('sw a2, 2044(t0)', 0x7EC2AE23),
    ('beq a0, a1, 0x1010', 0x00B50863),
    ('bne a0, x0, 0x0FF0', 0xFE0518E3),
    ('blt t0, t1, 0x1FFE', 0x7E62CFE3),
    ('bge t2, s0, 0', 0x8083D063),
    ('bltu a0, a1, 0x1002', 0x00B56163),
    ('bgeu s1, s2, 0x1800', 0x0124F0E3),
    ('lui a0, 0x12345', 0x12345537),
    ('auipc t0, 0xFFFFF', 0xFFFFF297),
    ('jal ra, 0x1100', 0x100000EF),
    ('jal a0, 0x100FFE', 0x7FFFF56F),
    ('jalr ra, 0(t0)', 0x000280E7),
    ('jalr t1, t2, -8', 0xFF838367),
    ('csrrw a0, 0x305, a1', 0x30559573),
    ('csrrs t0, 0xF14, x0', 0xF14022F3),
    ('csrrc a2, 0x300, a3', 0x3006B673),
    ('csrrwi a0, 0x305, 31', 0x305FD573),
    ('csrrsi x0, 0x300, 8', 0x30046073),
    ('csrrci a1, 0x344, 0', 0x344075F3),
    ('fence', 0x0000000F),
    ('fence.i', 0x0000100F),
    ('ecall', 0x00000073),
    ('ebreak', 0x00100073),
    ('mret', 0x30200073),
    ('nop', 0x00000013),
    ('li a0, 0x12345678', 0x12345537, 0x67850513),
    ('li t0, -1', 0x000002B7, 0xFFF28293),
    ('la a1, 0x1C000800', 0x1C0015B7, 0x80058593),
    ('mv a0, a1', 0x00058513),
    ('not t0, t1', 0xFFF34293),
    ('j 0x1040', 0x0400006F),
    ('call 0x0F00', 0xF01FF0EF),
    ('jal 0x1008', 0x008000EF),
    ('jalr t0', 0x000280E7),
    ('jr ra', 0x00008067),
    ('ret', 0x00008067),
    ('beqz a0, 0x1020', 0x02050063),
    ('bnez a1, 0x0FE0', 0xFE0590E3),
    ('bgt a0, a1, 0x1010', 0x00A5C863),
    ('ble t0, t1, 0x1004', 0x00535263),
    ('csrr a0, 0xF14', 0xF1402573),
    ('csrw 0x305, t0', 0x30529073),
]


def test_every_mnemonic_is_pinned():
    pinned = {line.split()[0] for line, *_ in PINNED}
    assert {e.mnemonic for e in TABLE.entries} <= pinned


@pytest.mark.parametrize("line,words", [(line, words) for line, *words in PINNED],
                         ids=[row[0] for row in PINNED])
def test_pinned_words(line, words):
    prog = assemble(line, origin=0x1000)
    assert [prog.words[a] for a in sorted(prog.words)] == words


# the decoded `Instruction.text()` of each PINNED line's words, as
# instruction traces print them ("; " between the two words of li and la)
PINNED_TEXT = {
    'add a0, a1, a2': 'add x10, x11, x12',
    'sub s0, s1, t0': 'sub x8, x9, x5',
    'sll t1, t2, a3': 'sll x6, x7, x13',
    'slt a4, a5, a6': 'slt x14, x15, x16',
    'sltu a7, s2, s3': 'sltu x17, x18, x19',
    'xor s4, s5, s6': 'xor x20, x21, x22',
    'srl s7, s8, s9': 'srl x23, x24, x25',
    'sra s10, s11, t3': 'sra x26, x27, x28',
    'or t4, t5, t6': 'or x29, x30, x31',
    'and x1, x2, x3': 'and x1, x2, x3',
    'mul x4, x5, x6': 'mul x4, x5, x6',
    'mulh x7, x8, x9': 'mulh x7, x8, x9',
    'mulhsu x10, x11, x12': 'mulhsu x10, x11, x12',
    'mulhu x13, x14, x15': 'mulhu x13, x14, x15',
    'div x16, x17, x18': 'div x16, x17, x18',
    'divu x19, x20, x21': 'divu x19, x20, x21',
    'rem x22, x23, x24': 'rem x22, x23, x24',
    'remu x25, x26, x27': 'remu x25, x26, x27',
    'p.mac x28, x29, x30': 'p.mac x28, x29, x30',
    'addi a0, a1, -2048': 'addi x10, x11, -2048',
    'slti a0, a1, 2047': 'slti x10, x11, 2047',
    'sltiu t0, t1, 1': 'sltiu x5, x6, 1',
    'xori a2, a3, -1': 'xori x12, x13, -1',
    'ori a4, a5, 0x7F0': 'ori x14, x15, 2032',
    'andi a6, a7, 255': 'andi x16, x17, 255',
    'slli a0, a1, 31': 'slli x10, x11, 31',
    'srli a2, a3, 1': 'srli x12, x13, 1',
    'srai a4, a5, 17': 'srai x14, x15, 17',
    'lb a0, -4(sp)': 'lb x10, -4(x2)',
    'lh a1, 2(gp)': 'lh x11, 2(x3)',
    'lw a2, 2047(tp)': 'lw x12, 2047(x4)',
    'lbu a3, (s0)': 'lbu x13, 0(x8)',
    'lhu a4, -2048(fp)': 'lhu x14, -2048(x8)',
    'p.lwpost a5, 4(a6)': 'p.lwpost x15, 4(x16)',
    'sb a0, -1(sp)': 'sb x10, -1(x2)',
    'sh a1, 6(s1)': 'sh x11, 6(x9)',
    'sw a2, 2044(t0)': 'sw x12, 2044(x5)',
    'beq a0, a1, 0x1010': 'beq x10, x11, 16',
    'bne a0, x0, 0x0FF0': 'bne x10, x0, -16',
    'blt t0, t1, 0x1FFE': 'blt x5, x6, 4094',
    'bge t2, s0, 0': 'bge x7, x8, -4096',
    'bltu a0, a1, 0x1002': 'bltu x10, x11, 2',
    'bgeu s1, s2, 0x1800': 'bgeu x9, x18, 2048',
    'lui a0, 0x12345': 'lui x10, 0x12345',
    'auipc t0, 0xFFFFF': 'auipc x5, 0xfffff',
    'jal ra, 0x1100': 'jal x1, 256',
    'jal a0, 0x100FFE': 'jal x10, 1048574',
    'jalr ra, 0(t0)': 'jalr x1, x5, 0',
    'jalr t1, t2, -8': 'jalr x6, x7, -8',
    'csrrw a0, 0x305, a1': 'csrrw x10, 0x305, x11',
    'csrrs t0, 0xF14, x0': 'csrrs x5, 0xf14, x0',
    'csrrc a2, 0x300, a3': 'csrrc x12, 0x300, x13',
    'csrrwi a0, 0x305, 31': 'csrrwi x10, 0x305, 31',
    'csrrsi x0, 0x300, 8': 'csrrsi x0, 0x300, 8',
    'csrrci a1, 0x344, 0': 'csrrci x11, 0x344, 0',
    'fence': 'fence',
    'fence.i': 'fence.i',
    'ecall': 'ecall',
    'ebreak': 'ebreak',
    'mret': 'mret',
    'nop': 'addi x0, x0, 0',
    'li a0, 0x12345678': 'lui x10, 0x12345; addi x10, x10, 1656',
    'li t0, -1': 'lui x5, 0x0; addi x5, x5, -1',
    'la a1, 0x1C000800': 'lui x11, 0x1c001; addi x11, x11, -2048',
    'mv a0, a1': 'addi x10, x11, 0',
    'not t0, t1': 'xori x5, x6, -1',
    'j 0x1040': 'jal x0, 64',
    'call 0x0F00': 'jal x1, -256',
    'jal 0x1008': 'jal x1, 8',
    'jalr t0': 'jalr x1, x5, 0',
    'jr ra': 'jalr x0, x1, 0',
    'ret': 'jalr x0, x1, 0',
    'beqz a0, 0x1020': 'beq x10, x0, 32',
    'bnez a1, 0x0FE0': 'bne x11, x0, -32',
    'bgt a0, a1, 0x1010': 'blt x11, x10, 16',
    'ble t0, t1, 0x1004': 'bge x6, x5, 4',
    'csrr a0, 0xF14': 'csrrs x10, 0xf14, x0',
    'csrw 0x305, t0': 'csrrw x0, 0x305, x5',
}


@pytest.mark.parametrize("line", [row[0] for row in PINNED])
def test_pinned_trace_text(line):
    prog = assemble(line, origin=0x1000)
    texts = [TABLE.decode(prog.words[a]).text() for a in sorted(prog.words)]
    assert "; ".join(texts) == PINNED_TEXT[line]


# format -> the word bits its operand fields occupy (rd 7-11, rs1 15-19,
# rs2 20-24, the CSR number 20-31 and each immediate's bits)
FIELD_BITS = {
    "R": 0x01FFFF80, "I": 0xFFFFFF80, "IS": 0x01FFFF80, "S": 0xFFFF8F80,
    "B": 0xFFFF8F80, "U": 0xFFFFFF80, "J": 0xFFFFFF80, "CSR": 0xFFFF8F80,
    "CSRI": 0xFFFF8F80, "N": 0,
}


@pytest.mark.parametrize("entry", TABLE.entries, ids=lambda e: e.mnemonic)
def test_random_words_encode_back_from_their_fields(entry):
    rng = random.Random("words " + entry.mnemonic)
    kept = entry.mask | FIELD_BITS[entry.fmt]
    for _ in range(300):
        word = rng.getrandbits(32) & ~entry.mask | entry.match
        assert TABLE.decode(word).entry is entry
        ins = Instruction(entry, word)
        again = encode(entry, ins.rd, ins.rs1, ins.rs2, ins.imm, ins.csr)
        assert again & kept == word & kept, hex(word)


@pytest.mark.parametrize("regs", [(32, 1, 2), (1, -1, 2), (1, 2, 33)], ids=str)
def test_register_numbers_outside_the_file_are_refused(regs):
    # unchecked, x32 in rd spilled into funct3: add x32 became sll x0
    add = next(e for e in TABLE.entries if e.mnemonic == "add")
    with pytest.raises(ConfigError, match="register numbers must be 0..31"):
        encode(add, *regs)
