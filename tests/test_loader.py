"""Guest loading: memory images from `Program.to_image()` and ELF32 files
built here with `struct`, on the minimal platform (RAM at 0..0x100000)."""

import struct

import pytest

from pulpsim.asm import assemble
from pulpsim.errors import ConfigError
from pulpsim.loader import EM_RISCV, PT_LOAD, load_binary

from conftest import build_minimal

PT_NOTE = 4
EM_ARM = 40


def elf32(entry, segments, machine=EM_RISCV, ei_class=1):
    """An ELF32 little-endian executable; `segments` holds
    (p_type, p_vaddr, p_paddr, data, p_memsz) and the data follows the
    program headers."""
    phoff, phentsize = 52, 32
    data_off = phoff + phentsize * len(segments)
    headers, blobs = b"", b""
    for p_type, vaddr, paddr, data, memsz in segments:
        headers += struct.pack("<IIIIIIII", p_type, data_off + len(blobs), vaddr, paddr,
                               len(data), memsz, 5, 4)
        blobs += data
    ident = b"\x7fELF" + bytes([ei_class, 1, 1]) + bytes(9)
    header = ident + struct.pack("<HHIIIIIHHHHHH", 2, machine, 1, entry, phoff, 0, 0,
                                 52, phentsize, len(segments), 40, 0, 0)
    return header + headers + blobs


def write(tmp_path, name, blob):
    path = tmp_path / name
    path.write_bytes(blob)
    return str(path)


def test_image_from_program_loads_and_runs(tmp_path):
    prog = assemble("""
        li   x5, 20
        li   x6, 22
        add  x10, x5, x6
        ebreak
    """, origin=0x1000)
    plat = build_minimal()
    path = tmp_path / "prog.img"
    path.write_text(prog.to_image())
    assert load_binary(plat, str(path)) == prog.entry == 0x1000
    for addr, word in prog.words.items():
        assert plat.peek(addr, 4) == word.to_bytes(4, "little")
    cpu = plat.lookup("cpu")
    assert cpu.boot_pc == 0x1000
    plat.reset()
    plat.run(max_cycles=1000)
    assert cpu.regs[10] == 42


def test_image_without_entry_starts_at_its_first_word(tmp_path):
    plat = build_minimal()
    path = write(tmp_path, "w.img", b"# two words\n@00002000 DEADBEEF\n@00002004 00000013\n")
    assert load_binary(plat, path) == 0x2000
    assert plat.peek(0x2000, 8) == bytes.fromhex("efbeadde13000000")


def test_elf_segments_are_placed_and_zero_filled(tmp_path):
    text = bytes(range(1, 13))
    blob = elf32(0x3004, [
        (PT_LOAD, 0x80003000, 0x3000, text, 16),    # p_paddr wins; 4 bytes of bss
        (PT_NOTE, 0x5000, 0x5000, b"note", 4),      # not loaded
        (PT_LOAD, 0x6000, 0, b"\xaa\xbb", 2),       # p_paddr 0: placed at p_vaddr
        (PT_LOAD, 0x7000, 0x7000, b"", 0),          # empty: skipped
    ])
    plat = build_minimal()
    plat.poke(0x300C, b"\xff" * 4)
    assert load_binary(plat, write(tmp_path, "a.elf", blob)) == 0x3004
    assert plat.peek(0x3000, 16) == text + bytes(4)
    assert plat.peek(0x5000, 4) == bytes(4)
    assert plat.peek(0x6000, 2) == b"\xaa\xbb"
    assert plat.lookup("cpu").boot_pc == 0x3004


@pytest.mark.parametrize("name,blob,message", [
    ("far.elf", elf32(0x1000, [(PT_LOAD, 0x0FFFFC, 0x0FFFFC, bytes(8), 8)]),
     "segment 0 at 0x000ffffc+0x8 lies outside every mapped memory"),
    ("bss.elf", elf32(0x1000, [(PT_LOAD, 0x1000, 0x1000, b"", 0x100000)]),
     "segment 0 at 0x00001000+0x100000 lies outside every mapped memory"),
    ("arm.elf", elf32(0x1000, [], machine=EM_ARM), "machine type 40 is not RISC-V (243)"),
    ("wide.elf", elf32(0x1000, [], ei_class=2), "not a 32-bit ELF (class 2)"),
    ("big.elf", elf32(0x1000, [])[:5] + b"\x02" + elf32(0x1000, [])[6:], "not little-endian"),
    ("short.elf", b"\x7fELF" + bytes(20), "truncated ELF header"),
    ("far.img", b"@00001000 00000013\n@00100000 00000013\n",
     "far.img:2: address 0x00100000 lies outside every mapped memory"),
    ("bad.img", b"@1000 zz\n", "bad.img:1: bad hex value"),
    ("bare.img", b"1000 00000013\n", "bare.img:1: expected '@<hexaddr> <hexword>'"),
    ("entry.img", b"@entry\n", "entry.img:1: malformed @entry line"),
    ("empty.img", b"# nothing\n", "empty memory image"),
    ("blob.bin", b"\xff\xfe", "neither ELF nor ASCII memory image"),
])
def test_load_errors(tmp_path, name, blob, message):
    plat = build_minimal()
    with pytest.raises(ConfigError) as err:
        load_binary(plat, write(tmp_path, name, blob))
    assert message in str(err.value)
