"""Guest programs of the benchmark: generators, inputs and reference checks.

Every guest is RV32IM assembly text generated here and assembled with
`pulpsim.asm`.  The seed picks registers, immediates and data.  The
instruction-class mix and the memory footprint depend only on the workload
and its size, so run length does not depend on the seed.

Each guest also computes its expected results from an independent
reference, once per process, and checks a finished platform against them.
"""

import importlib.util
import random
from pathlib import Path

import numpy as np

# pulp-open memory map (platforms/pulp-open.json and the cluster defaults)
L2 = 0x1C000000
L2_SIZE = 0x80000
TCDM = 0x10000000
CL_EU = 0x10200000
CL_DMA = 0x10201000
CL_ACCEL = 0x10202000
FC_ITC = 0x1A101000
UDMA = 0x1A102000
SIMCTL = 0x1A104000
HYPER = 0x20000000
FC_HART = 32

# event unit registers
EVT_MASK, EVT_WAIT, EVT_SET, BARRIER_TRIG = 0x00, 0x04, 0x08, 0x18
# cluster DMA registers
DMA_SRC, DMA_DST, DMA_LEN, DMA_STRIDE, DMA_COUNT, DMA_CFG, DMA_STATUS = \
    0x00, 0x04, 0x08, 0x0C, 0x10, 0x14, 0x18
# accelerator registers
ACC_IN, ACC_W, ACC_OUT, ACC_CH_IN, ACC_CH_OUT, ACC_H, ACC_W_DIM, ACC_K, ACC_TRIGGER = \
    0x00, 0x04, 0x08, 0x0C, 0x10, 0x14, 0x18, 0x1C, 0x20
# micro-DMA registers
UDMA_L2, UDMA_EXT, UDMA_LEN, UDMA_CFG = 0x00, 0x04, 0x08, 0x0C

ALL_REGS = ["x%d" % i for i in range(1, 32)]


def _load_refcore():
    """The repository's independent RV32IM interpreter (tests/reference_rv32im.py)."""
    path = Path(__file__).resolve().parent.parent / "tests" / "reference_rv32im.py"
    spec = importlib.util.spec_from_file_location("reference_rv32im", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.RefCore


def _dispatch(other_label, fc_first):
    """Entry code: harts branch on mhartid to the FC or the cluster path."""
    branch = "beq" if fc_first else "bne"
    return [
        "_start:",
        "    csrr t0, 0xF14",
        "    li t1, %d" % FC_HART,
        "    %s t0, t1, %s" % (branch, other_label),
    ]


def _park(label, unit):
    """Sleep forever in an EVT_WAIT on line 0 of `unit` (never raised).

    Uses t0 and t1 whatever the seeded register allocation: parking is the
    last thing a hart does.
    """
    return [
        "%s:" % label,
        "    li t0, 0x%X" % unit,
        "    addi t1, zero, 1",
        "    sw t1, %d(t0)" % EVT_MASK,
        "    lw t1, %d(t0)" % EVT_WAIT,
        "    j %s" % label,
    ]


class Guest:
    """One seeded guest program on pulp-open, with its reference check.

    `size` scales run length linearly: passes, repetitions or tiles.
    """

    name = None

    def __init__(self, seed, size):
        self.seed = seed
        self.size = size
        self.rng = random.Random("%s:%d" % (self.name, seed))
        self.source, self.pokes = self.generate()
        self._expected = None

    def generate(self):
        """Returns (assembly text, [(addr, bytes)] initial data)."""
        raise NotImplementedError

    def max_cycles(self):
        """Simulated-time cap, in cycles of the fastest domain."""
        raise NotImplementedError

    def reference(self, program):
        """Returns {"windows": {name: (addr, bytes)}, "regs": {core: regs}}."""
        raise NotImplementedError

    def load(self, platform, program):
        for addr, word in program.words.items():
            platform.poke(addr, word.to_bytes(4, "little"))
        for addr, data in self.pokes:
            platform.poke(addr, data)
        platform.set_entry(program.entry)

    def expected(self, program):
        if self._expected is None:
            self._expected = self.reference(program)
        return self._expected

    def check(self, platform, status, program):
        """Returns a list of failures; empty when the run is correct."""
        errors = []
        if status != 0:
            errors.append("exit status %r" % (status,))
        errors.extend("diagnostic: %s" % d for d in platform.diagnostics)
        exp = self.expected(program)
        for name, (addr, data) in exp["windows"].items():
            got = platform.peek(addr, len(data))
            if got != data:
                first = next(i for i in range(len(data)) if got[i] != data[i])
                errors.append("%s differs from the reference at byte %d" % (name, first))
        for path, regs in exp.get("regs", {}).items():
            got = platform.lookup(path).regs
            bad = [i for i in range(1, 32) if got[i] != regs[i]]
            if bad:
                errors.append("%s registers differ from the reference: %s" % (
                    path, ", ".join("x%d" % i for i in bad)))
        return errors


class FcControl(Guest):
    """FC-only loop over a seeded straight-line RV32IM body.

    The body is three times the FC's 512 B L1 icache, so every pass
    refills through soc_ic from L2.  The PEs park in an EVT_WAIT at start.
    """

    name = "fc_control"
    BODY = 384                  # instructions: 1536 B of code per pass
    DATA = L2 + 0x40000
    WINDOW = 1024
    # class -> (weight, mnemonics); drawn from a fixed stream, not the seed
    CLASSES = {
        "alu": (30, ["add", "sub", "xor", "or", "and", "sll", "srl", "sra", "slt", "sltu"]),
        "alui": (22, ["addi", "xori", "ori", "andi", "slti", "sltiu", "slli", "srli",
                      "srai", "lui"]),
        "mul": (8, ["mul", "mulh", "mulhu", "mulhsu"]),
        "div": (4, ["div", "divu", "rem", "remu"]),
        "load": (16, ["lw", "lh", "lhu", "lb", "lbu"]),
        "store": (12, ["sw", "sh", "sb"]),
        "branch": (8, ["beq", "bne", "blt", "bge", "bltu", "bgeu"]),
    }
    REG_OPS = set(CLASSES["alu"][1] + CLASSES["mul"][1] + CLASSES["div"][1])
    SIZES = {"lw": 4, "lh": 2, "lhu": 2, "lb": 1, "lbu": 1, "sw": 4, "sh": 2, "sb": 1}
    RESERVED = {"s9": "x25", "s10": "x26", "s11": "x27"}    # counter, data, exit

    def shape(self):
        """The seed-independent instruction sequence: (mnemonic, skip)."""
        fixed = random.Random("fc_control-shape")
        names = list(self.CLASSES)
        weights = [self.CLASSES[n][0] for n in names]
        out = []
        for _ in range(self.BODY):
            klass = fixed.choices(names, weights)[0]
            mnem = fixed.choice(self.CLASSES[klass][1])
            out.append((mnem, fixed.randint(1, 3) if klass == "branch" else 0))
        return out

    def generate(self):
        rng = self.rng
        pool = [r for r in ALL_REGS if r not in self.RESERVED.values()]
        body = []
        labels = {}
        for i, (mnem, skip) in enumerate(self.shape()):
            rd, rs1, rs2 = (rng.choice(pool) for _ in range(3))
            if mnem in self.REG_OPS:
                text = "%s %s, %s, %s" % (mnem, rd, rs1, rs2)
            elif mnem == "lui":
                text = "lui %s, 0x%X" % (rd, rng.getrandbits(20))
            elif mnem in ("slli", "srli", "srai"):
                text = "%s %s, %s, %d" % (mnem, rd, rs1, rng.randrange(32))
            elif mnem in self.CLASSES["alui"][1]:
                text = "%s %s, %s, %d" % (mnem, rd, rs1, rng.randint(-2048, 2047))
            elif mnem in self.SIZES:
                size = self.SIZES[mnem]
                off = rng.randrange(0, self.WINDOW, size)
                reg = rd if mnem.startswith("l") else rs2
                text = "%s %s, %d(s10)" % (mnem, reg, off)
            else:
                labels.setdefault(i + 1 + skip, []).append("f%d" % i)
                text = "%s %s, %s, f%d" % (mnem, rs1, rs2, i)
            body.append(text)
        lines = _dispatch("fc_main", fc_first=True)
        lines += _park("pe_park", CL_EU)
        lines.append("fc_main:")
        lines += ["    li %s, 0x%08X" % (r, rng.getrandbits(32)) for r in pool]
        lines += ["    li s9, %d" % self.size,
                  "    li s10, 0x%X" % self.DATA,
                  "    li s11, 0x%X" % SIMCTL,
                  "fc_loop:"]
        for i, text in enumerate(body):
            lines.append("%s    %s" % ("".join(l + ": " for l in labels.get(i, [])), text))
        lines += ["%s    addi s9, s9, -1" % "".join(
                      l + ": " for l in labels.get(len(body), [])),
                  "    bnez s9, fc_loop",
                  "fc_done:",
                  "    sw zero, 0(s11)",
                  "    j fc_done"]
        return "\n".join(lines) + "\n", [(self.DATA, rng.randbytes(self.WINDOW))]

    def max_cycles(self):
        return 20000 * self.size + 100000

    def reference(self, program):
        ref = _load_refcore()(L2, L2_SIZE)
        for addr, word in program.words.items():
            ref.store(addr, 4, word)
        for addr, data in self.pokes:
            ref.mem[addr - L2:addr - L2 + len(data)] = data
        ref.pc = program.symbols["fc_main"]
        done = program.symbols["fc_done"]
        limit = (self.BODY + 2) * self.size + 100
        while ref.pc != done:
            if ref.retired > limit:
                raise RuntimeError("reference interpreter did not reach fc_done")
            ref.step()
        off = self.DATA - L2
        return {"windows": {"l2_data": (self.DATA, bytes(ref.mem[off:off + self.WINDOW]))},
                "regs": {"fc": list(ref.regs)}}


class ClusterMatmul(Guest):
    """8 PEs compute C = A @ B (int32, mod 2**32) in TCDM with p.mac.

    Rows are split by hart id; one barrier ends each repetition.  The
    kernel fits the PE L1 icache.  The FC parks on its interrupt controller.
    """

    name = "cluster_matmul"
    N = 16
    A = TCDM
    B = TCDM + 0x400
    C = TCDM + 0x800

    def generate(self):
        rng = self.rng
        n = self.N
        names = ["hart", "eu", "abase", "bbase", "cbase", "reps", "i", "iend", "pa0",
                 "pc", "pb", "j", "pa", "pbk", "acc", "k", "x", "y"]
        r = dict(zip(names, rng.sample(ALL_REGS, len(names))))
        rows = n // 8
        kernel = """
pe_main:
    mv {hart}, t0
    li {eu}, 0x%(eu)X
    li {abase}, 0x%(a)X
    li {bbase}, 0x%(b)X
    li {cbase}, 0x%(c)X
    li {reps}, %(reps)d
pe_rep:
    slli {i}, {hart}, %(rowshift)d
    addi {iend}, {i}, %(rows)d
pe_row:
    slli {pa0}, {i}, %(rowbytes_log2)d
    add {pc}, {pa0}, {cbase}
    add {pa0}, {pa0}, {abase}
    mv {pb}, {bbase}
    addi {j}, zero, %(n)d
pe_col:
    mv {pa}, {pa0}
    mv {pbk}, {pb}
    mv {acc}, zero
    addi {k}, zero, %(n)d
pe_k:
    p.lwpost {x}, 4({pa})
    p.lwpost {y}, %(rowbytes)d({pbk})
    p.mac {acc}, {x}, {y}
    addi {k}, {k}, -1
    bnez {k}, pe_k
    sw {acc}, 0({pc})
    addi {pc}, {pc}, 4
    addi {pb}, {pb}, 4
    addi {j}, {j}, -1
    bnez {j}, pe_col
    addi {i}, {i}, 1
    bne {i}, {iend}, pe_row
    lw {x}, %(barrier)d({eu})
    addi {reps}, {reps}, -1
    bnez {reps}, pe_rep
    bnez {hart}, pe_park
    li {x}, 0x%(simctl)X
    sw zero, 0({x})
""" % {"eu": CL_EU, "a": self.A, "b": self.B, "c": self.C, "reps": self.size,
       "rowshift": rows.bit_length() - 1, "rows": rows, "n": n,
       "rowbytes": 4 * n, "rowbytes_log2": (4 * n).bit_length() - 1,
       "barrier": BARRIER_TRIG, "simctl": SIMCTL}
        lines = _dispatch("pe_main", fc_first=False)
        lines += _park("fc_park", FC_ITC)
        lines.append(kernel.format(**r))
        lines += _park("pe_park", CL_EU)
        self.a = np.frombuffer(rng.randbytes(4 * n * n), dtype="<u4").reshape(n, n)
        self.b = np.frombuffer(rng.randbytes(4 * n * n), dtype="<u4").reshape(n, n)
        return "\n".join(lines) + "\n", [(self.A, self.a.tobytes()),
                                         (self.B, self.b.tobytes())]

    def max_cycles(self):
        return 200000 * self.size + 100000

    def reference(self, program):
        # uint64 products and sums wrap mod 2**64, which preserves them mod 2**32
        c = (self.a.astype(np.uint64) @ self.b.astype(np.uint64)) & 0xFFFFFFFF
        return {"windows": {"tcdm_c": (self.C, c.astype("<u4").tobytes())}}


def conv_reference(x, w):
    """Direct nested-loop int8 convolution: same padding k//2, stride 1.

    x is [cin][h][w], w is [cout][cin][k][k]; returns int32 [cout][h][w].
    """
    cin, h, wd = len(x), len(x[0]), len(x[0][0])
    cout, k = len(w), len(w[0][0])
    pad = k // 2
    out = np.zeros((cout, h, wd), dtype=np.int32)
    for co in range(cout):
        for oy in range(h):
            for ox in range(wd):
                acc = 0
                for ci in range(cin):
                    for ky in range(k):
                        iy = oy + ky - pad
                        if not 0 <= iy < h:
                            continue
                        row = x[ci][iy]
                        wrow = w[co][ci][ky]
                        for kx in range(k):
                            ix = ox + kx - pad
                            if 0 <= ix < wd:
                                acc += row[ix] * wrow[kx]
                out[co, oy, ox] = acc
    return out


class DmaConvIo(Guest):
    """Double-buffered DMA tiling into conv-accelerator jobs, plus micro-DMA I/O.

    PE0 copies row tiles of a (CIN, H, W) int8 map from L2 into two TCDM
    buffers with 2D DMA, runs one accelerator job per tile (the next job
    waits in the shadow slot) and copies each (COUT, TH, W) int32 result
    back to L2.  Meanwhile the FC streams HyperRAM into L2 with the
    micro-DMA, sleeping on its interrupt controller between transfers, and
    then raises cluster event line 3.  PE0 exits after that line and its
    last tile; the other PEs park.
    """

    name = "dma_conv_io"
    CIN, COUT, TH, W, K = 8, 8, 4, 16, 3
    X_L2 = L2 + 0x8000
    W_L2 = L2 + 0x18000
    Y_L2 = L2 + 0x20000
    IO_L2 = L2 + 0x40000
    W_T = TCDM
    IN = (TCDM + 0x1000, TCDM + 0x1400)
    OUT = (TCDM + 0x2000, TCDM + 0x3000)
    IO_CHUNK = 1024             # bytes per micro-DMA transfer
    FC_JOIN_LINE = 3

    def generate(self):
        rng = self.rng
        cin, cout, th, wd, k = self.CIN, self.COUT, self.TH, self.W, self.K
        t = self.size                       # tiles, one accelerator job each
        if t < 2:
            raise ValueError("dma_conv_io needs at least two tiles")
        h = t * th
        names = ["eu", "dma", "acc", "v", "inb", "outb", "xsrc", "ydst", "left", "ixor",
                 "oxor", "itc", "udma", "l2", "ext", "len", "n"]
        # x1 (ra) holds the dma_wait return address
        r = dict(zip(names, rng.sample([x for x in ALL_REGS if x != "x1"], len(names))))
        tile_in = th * wd                   # bytes per channel row block
        tile_out = th * wd * 4
        p = {"eu": CL_EU, "dma": CL_DMA, "acc": CL_ACCEL, "x_l2": self.X_L2,
             "in0": self.IN[0], "in1": self.IN[1], "out0": self.OUT[0],
             "out1": self.OUT[1], "y_l2": self.Y_L2, "tile_in": tile_in,
             "tile_out": tile_out, "tiles": t, "simctl": SIMCTL,
             "join": 1 << self.FC_JOIN_LINE}

        def dma_start(src, dst, length, stride, count, cfg):
            out = []
            for off, val in ((DMA_SRC, src), (DMA_DST, dst), (DMA_LEN, length),
                             (DMA_STRIDE, stride), (DMA_COUNT, count)):
                if isinstance(val, str):
                    out.append("    sw {%s}, %d({dma})" % (val, off))
                else:
                    out += ["    li {v}, 0x%X" % val, "    sw {v}, %d({dma})" % off]
            out += ["    addi {v}, zero, %d" % cfg, "    sw {v}, %d({dma})" % DMA_CFG]
            return "\n".join(out)

        def trigger(inb, outb):
            return "\n".join(["    sw %s, %d({acc})" % (inb, ACC_IN),
                              "    sw %s, %d({acc})" % (outb, ACC_OUT),
                              "    sw zero, %d({acc})" % ACC_TRIGGER])

        load_tile = lambda src, dst: dma_start(src, dst, tile_in, h * wd, cin, 2)
        pe = """
pe_main:
    bnez t0, pe_park
    li {eu}, 0x%(eu)X
    li {dma}, 0x%(dma)X
    li {acc}, 0x%(acc)X
""" % p
        pe += dma_start(self.W_L2, self.W_T, cout * cin * k * k, 0, 1, 0) + \
            "\n    jal ra, dma_wait\n"
        pe += load_tile(self.X_L2, self.IN[0]) + "\n    jal ra, dma_wait\n"
        pe += load_tile(self.X_L2 + tile_in, self.IN[1]) + "\n    jal ra, dma_wait\n"
        for off, val in ((ACC_W, self.W_T), (ACC_CH_IN, cin), (ACC_CH_OUT, cout),
                         (ACC_H, th), (ACC_W_DIM, wd), (ACC_K, k)):
            pe += "    li {v}, 0x%X\n    sw {v}, %d({acc})\n" % (val, off)
        pe += """    li {inb}, 0x%(in0)X
    li {outb}, 0x%(out0)X
    li {ixor}, 0x%(in0)X ^ 0x%(in1)X
    li {oxor}, 0x%(out0)X ^ 0x%(out1)X
""" % p
        pe += trigger("{inb}", "{outb}") + "\n"
        pe += "    xor {v}, {inb}, {ixor}\n    xor {ydst}, {outb}, {oxor}\n"
        pe += trigger("{v}", "{ydst}") + "\n"
        pe += """    li {xsrc}, 0x%(x_l2)X + 2 * %(tile_in)d
    li {ydst}, 0x%(y_l2)X
    li {left}, %(tiles)d
pe_loop:
    addi {v}, zero, 4
    sw {v}, 0({eu})
    lw {v}, 4({eu})
""" % p
        pe += dma_start("outb", "ydst", tile_out, h * wd * 4, cout, 3) + "\n"
        pe += """    addi {left}, {left}, -1
    slti {v}, {left}, 2
    bnez {v}, pe_drain
"""
        pe += load_tile("xsrc", "inb") + "\n    jal ra, dma_wait\n"
        pe += trigger("{inb}", "{outb}") + "\n    j pe_next\n"
        pe += """pe_drain:
    jal ra, dma_wait
pe_next:
    addi {xsrc}, {xsrc}, %(tile_in)d
    addi {ydst}, {ydst}, %(tile_out)d
    xor {inb}, {inb}, {ixor}
    xor {outb}, {outb}, {oxor}
    bnez {left}, pe_loop
    addi {v}, zero, %(join)d
    sw {v}, 0({eu})
    lw {v}, 4({eu})
    li {v}, 0x%(simctl)X
    sw zero, 0({v})
    j pe_park
dma_wait:
    addi {v}, zero, 2
    sw {v}, 0({eu})
dma_wait_loop:
    lw {v}, 4({eu})
    lw {v}, %(status)d({dma})
    andi {v}, {v}, 255
    bnez {v}, dma_wait_loop
    ret
""" % dict(p, status=DMA_STATUS)
        fc = """
fc_main:
    li {itc}, 0x%(itc)X
    li {udma}, 0x%(udma)X
    addi {v}, zero, 2
    sw {v}, 0({itc})
    li {l2}, 0x%(io_l2)X
    mv {ext}, zero
    li {len}, %(chunk)d
    li {n}, %(xfers)d
fc_xfer:
    sw {l2}, %(r_l2)d({udma})
    sw {ext}, %(r_ext)d({udma})
    sw {len}, %(r_len)d({udma})
    sw zero, %(r_cfg)d({udma})
    lw {v}, 4({itc})
    add {l2}, {l2}, {len}
    add {ext}, {ext}, {len}
    addi {n}, {n}, -1
    bnez {n}, fc_xfer
    li {v}, 0x%(eu)X
    addi {ext}, zero, %(line)d
    sw {ext}, %(set)d({v})
fc_park:
    lw {v}, 4({itc})
    j fc_park
""" % {"itc": FC_ITC, "udma": UDMA, "io_l2": self.IO_L2, "chunk": self.IO_CHUNK,
       "xfers": t, "r_l2": UDMA_L2, "r_ext": UDMA_EXT,
       "r_len": UDMA_LEN, "r_cfg": UDMA_CFG, "eu": CL_EU,
       "line": self.FC_JOIN_LINE, "set": EVT_SET}
        lines = _dispatch("fc_main", fc_first=True)
        source = "\n".join(lines) + "\n" + pe.format(**r) + \
            "\n".join(_park("pe_park", CL_EU)) + "\n" + fc.format(**r)

        self.x = np.frombuffer(rng.randbytes(cin * h * wd), dtype=np.int8).reshape(cin, h, wd)
        self.w = np.frombuffer(rng.randbytes(cout * cin * k * k),
                               dtype=np.int8).reshape(cout, cin, k, k)
        self.io = rng.randbytes(self.IO_CHUNK * t)
        return source, [(self.X_L2, self.x.tobytes()), (self.W_L2, self.w.tobytes()),
                        (HYPER, self.io)]

    def max_cycles(self):
        return 40000 * self.size + 100000

    def reference(self, program):
        t, th = self.size, self.TH
        wl = self.w.tolist()
        y = np.concatenate([conv_reference(self.x[:, i * th:(i + 1) * th, :].tolist(), wl)
                            for i in range(t)], axis=1)
        windows = {
            "l2_conv_out": (self.Y_L2, y.astype("<i4").tobytes()),
            "tcdm_weights": (self.W_T, self.w.tobytes()),
            "l2_io_dest": (self.IO_L2, self.io),
        }
        for i in (t - 2, t - 1):
            windows["tcdm_tile%d" % i] = (self.IN[i % 2],
                                          self.x[:, i * th:(i + 1) * th, :].tobytes())
        return {"windows": windows}


WORKLOADS = {g.name: g for g in (FcControl, ClusterMatmul, DmaConvIo)}
