"""Guest binary loading: ELF32 executables and text memory images.

ELF segments (PT_LOAD) are poked straight into whichever mapped memory
covers them.  The memory-image format is one word per line:

    # comment
    @entry 1C000000
    @1C000000 00500093

Each address and word is 1 to 8 hex digits.  Words are stored
little-endian.  Loading sets every core's boot pc to the entry point;
programs dispatch on the hart id CSR.  A malformed file, an ELF whose
program headers or segment bytes run past its end included, raises
ConfigError.
"""

import re
import struct

from .errors import ConfigError

ELF_MAGIC = b"\x7fELF"
EM_RISCV = 243
PT_LOAD = 1
PHDR_SIZE = 32      # bytes of an ELF32 program header
HEX_FIELD = re.compile(r"[0-9A-Fa-f]{1,8}")


def load_binary(platform, path):
    """Load an ELF or memory image file; returns the entry pc."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] == ELF_MAGIC:
        entry = _load_elf(platform, blob, path)
    else:
        entry = _load_image(platform, blob, path)
    platform.set_entry(entry)
    return entry


def _load_elf(platform, blob, name):
    if len(blob) < 52:
        raise ConfigError("%s: truncated ELF header" % name)
    ei_class, ei_data = blob[4], blob[5]
    if ei_class != 1:
        raise ConfigError("%s: not a 32-bit ELF (class %d)" % (name, ei_class))
    if ei_data != 1:
        raise ConfigError("%s: not little-endian" % name)
    (e_type, e_machine, _ver, e_entry, e_phoff, _shoff, _flags, _ehsize,
     e_phentsize, e_phnum) = struct.unpack_from("<HHIIIIIHHH", blob, 16)
    if e_machine != EM_RISCV:
        raise ConfigError("%s: machine type %d is not RISC-V (%d)" % (
            name, e_machine, EM_RISCV))
    if e_phnum and e_phoff + (e_phnum - 1) * e_phentsize + PHDR_SIZE > len(blob):
        raise ConfigError("%s: truncated program header table" % name)
    for i in range(e_phnum):
        off = e_phoff + i * e_phentsize
        p_type, p_offset, p_vaddr, p_paddr, p_filesz, p_memsz, _pflags, _align = \
            struct.unpack_from("<IIIIIIII", blob, off)
        if p_type != PT_LOAD or p_memsz == p_filesz == 0:
            continue
        if p_filesz > p_memsz:
            raise ConfigError("%s: segment %d's file size exceeds its memory size" % (name, i))
        if p_offset + p_filesz > len(blob):
            raise ConfigError("%s: segment %d's file bytes run past the end of the file"
                              % (name, i))
        dest = p_paddr if p_paddr else p_vaddr
        data = bytearray(blob[p_offset:p_offset + p_filesz])
        data.extend(b"\x00" * (p_memsz - p_filesz))
        if platform.backing_for(dest, len(data)) is None:
            raise ConfigError(
                "%s: segment %d at 0x%08x+0x%x lies outside every mapped memory"
                % (name, i, dest, len(data)))
        platform.poke(dest, bytes(data))
    return e_entry


def _load_image(platform, blob, name):
    try:
        text = blob.decode("ascii")
    except UnicodeDecodeError:
        raise ConfigError("%s: neither ELF nor ASCII memory image" % name) from None
    entry = None
    first = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0].lower() == "@entry":
            if len(parts) != 2:
                raise ConfigError("%s:%d: malformed @entry line" % (name, lineno))
            entry = _hex(parts[1], name, lineno)
            continue
        if len(parts) != 2 or not parts[0].startswith("@"):
            raise ConfigError("%s:%d: expected '@<hexaddr> <hexword>'" % (name, lineno))
        addr = _hex(parts[0][1:], name, lineno)
        word = _hex(parts[1], name, lineno)
        if platform.backing_for(addr, 4) is None:
            raise ConfigError("%s:%d: address 0x%08x lies outside every mapped memory"
                              % (name, lineno, addr))
        platform.poke(addr, word.to_bytes(4, "little"))
        if first is None:
            first = addr
    if entry is None:
        if first is None:
            raise ConfigError("%s: empty memory image" % name)
        entry = first
    return entry


def _hex(field, name, lineno):
    """The value of hex field `field` on line `lineno` of image `name`."""
    if not HEX_FIELD.fullmatch(field):
        raise ConfigError("%s:%d: bad hex value" % (name, lineno))
    return int(field, 16)
