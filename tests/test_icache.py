"""Instruction cache against the reference LRU model (reference_cache.py).

Seeded address streams mix re-hits on the most recently used line, hits
on older ways, conflict misses (more tags per set than ways) and full
flushes.  The hit/miss sequence must match the reference, and every
served word or line must equal the backing memory.
"""

import json
import random

import pytest

import pulpsim
from pulpsim.asm import assemble
from pulpsim.component import Request

from conftest import build_pulp, outcome
from reference_cache import RefLruCache

MEM_SIZE = 0x10000
# (size, ways, line_bytes, hit_latency): the PE L1, the shared L1.5, 3
# ways, and 30 sets (not a power of two)
GEOMETRIES = [(512, 2, 16, 0), (4096, 4, 16, 1), (768, 3, 16, 0), (480, 2, 8, 2)]


def build_cache(size, ways, line, hit_latency, contents):
    doc = {
        "name": "icache-test",
        "clock_domains": {"main": {"frequency_hz": 400000000}},
        "components": {
            "ic": {"kind": "icache", "domain": "main",
                   "params": {"size": size, "ways": ways, "line_bytes": line,
                              "hit_latency": hit_latency}},
            "ram": {"kind": "banked-memory", "domain": "main",
                    "params": {"base": 0, "size": MEM_SIZE, "banks": 4}},
        },
        "bindings": [["ic.refill", "ram.in"]],
    }
    plat = pulpsim.build(pulpsim.parse(json.dumps(doc)))
    plat.poke(0, contents)
    plat.reset()
    return plat.lookup("ic")


def stream(rng, sets, ways, line, count):
    """Yields byte addresses of lines, or None for a flush."""
    hot = rng.sample(range(sets), min(4, sets))
    pool = [(s + t * sets) * line for s in hot for t in range(ways + 2)]
    recent = [pool[0]]
    for _ in range(count):
        r = rng.random()
        if r < 0.01:
            yield None
            continue
        if r < 0.35:
            base = recent[-1]                   # MRU re-hit
        elif r < 0.5 and len(recent) > 1:
            base = recent[-2]                   # often a non-MRU way
        else:
            base = rng.choice(pool)             # conflicts beyond `ways`
        recent = recent[-1:] + [base]
        yield base


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("geometry", GEOMETRIES, ids=["l1", "l15", "3ways", "30sets"])
def test_icache_matches_reference_lru(geometry, seed):
    size, ways, line, hit_latency = geometry
    rng = random.Random(seed)
    contents = rng.randbytes(MEM_SIZE)
    cache = build_cache(size, ways, line, hit_latency, contents)
    ref = RefLruCache(size, ways, line)
    hits = misses = flushes = 0
    for i, base in enumerate(stream(rng, ref.sets, ways, line, 4000)):
        if base is None:
            cache.flush()
            ref = RefLruCache(size, ways, line)
            flushes += 1
            continue
        if line > 4 and rng.random() < 0.25:
            addr, nbytes = base, line                           # a refill from below
        else:
            addr, nbytes = base + rng.randrange(0, line, 4), 4
        req = Request(addr, nbytes, False)
        req.at = issue = 3 * i
        result = outcome(cache.ports["in"].handler, req)
        hit = ref.access(addr)
        assert result == "ok"
        assert req.cache_miss == (not hit), hex(addr)
        if hit:
            hits += 1
            assert req.at - issue == hit_latency
        else:
            misses += 1
            assert req.at - issue > hit_latency
        want = contents[addr:addr + nbytes]
        assert req.value.to_bytes(nbytes, "little") == want, hex(addr)
    assert (cache.hits, cache.misses) == (hits, misses)
    assert hits > 1000 and misses > 100 and flushes > 0


def test_fetch_straddling_a_line_fails():
    cache = build_cache(512, 2, 16, 0, bytes(MEM_SIZE))
    for addr, nbytes in ((14, 4), (0, 32)):
        req = Request(addr, nbytes, False)
        assert outcome(cache.ports["in"].handler, req) == "error" and not req.cache_miss
    assert (cache.hits, cache.misses) == (0, 0)


def test_failed_refill_reaches_the_core():
    # the FC jumps to an address no router maps: its L1 misses, the refill
    # fails, and the core takes an instruction-access fault there
    plat = build_pulp()
    prog = assemble("""
    _start:
        csrr t0, 0xF14
        li t1, 32
        beq t0, t1, fc_main
    pe_park:
        li t0, 0x10200000
        addi t1, zero, 1
        sw t1, 0(t0)
        lw t1, 4(t0)
        j pe_park
    fc_main:
        li t0, 0x30000000
        jr t0
    """, origin=0x1C000000)
    for addr, word in prog.words.items():
        plat.poke(addr, word.to_bytes(4, "little"))
    plat.set_entry(prog.entry)
    plat.run(max_cycles=100_000)
    assert plat.diagnostics == [
        "fc: unhandled trap cause=1 tval=0x30000000 at pc=0x30000000; core halted"]
    cache = plat.lookup("fc_icache")
    assert cache.misses == cache.refills + 1
