"""Regenerate the golden timing files under tests/data/.

    python tests/regen_golden.py

Rewrites, from the working tree:

- `perfbench_digests.json`: the `stable_stats` digest of every
  `test_timing_identity.CASES` case (the perfbench workloads);
- `pulp_open_golden_stats.json`: the stable stats of the pulp-open guest
  of `test_pulp_open.py`.

Before writing, it prints one row per case: global time, the cores' summed
`total_cycles`, the memories' summed contentions and the accelerators'
summed conflict cycles, each before and after, where "before" is the same
case run on the last commit (git HEAD).  A change that keeps simulated
timing prints an all-equal table and leaves both files byte-identical.  A
deliberate timing change names the rewritten files and gives this table
in CHANGES.md.
"""

import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
DIGESTS = DATA / "perfbench_digests.json"
GOLDEN = DATA / "pulp_open_golden_stats.json"
PULP_OPEN = "pulp_open"
COLUMNS = ("global_time_ps", "core_cycles", "contentions", "conflict_cycles")


def collect(root):
    """Stable stats of every case on the tree at `root`, by case name, and
    the digests of the perfbench cases, by that tree's own code."""
    root = Path(root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import test_timing_identity as identity
    from test_pulp_open import run_guest
    from pulpsim.tracing import stats_report, stable_stats

    stats = {identity.case_key(*case): identity.plain_stats(*case) for case in identity.CASES}
    digests = {name: identity.run.digest(s) for name, s in stats.items()}
    plat, status, _, _ = run_guest()
    stats[PULP_OPEN] = stable_stats(stats_report(plat, status))
    return {"stats": stats, "digests": digests}


def collect_at(root):
    """`collect(root)` in a fresh interpreter, so that each tree imports
    its own modules."""
    out = subprocess.run([sys.executable, __file__, "--collect", str(root)],
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out)


def summary(stats):
    """The table's figures of one case's stats, in COLUMNS order."""
    return (stats["global_time_ps"],
            sum(c["total_cycles"] for c in stats["cores"].values()),
            sum(m["contentions"] for m in stats["memories"].values()),
            sum(a["conflict_cycles"] for a in stats["accelerators"].values()))


def table(before, after):
    """One line per case, each figure as `n` if unchanged, else as
    `old -> new`; `*` marks a case whose stats differ in any field."""
    lines = ["%-28s %s" % ("case", " ".join("%24s" % c for c in COLUMNS))]
    changed = 0
    for name in sorted(after):
        old = summary(before[name]) if name in before else ("-",) * len(COLUMNS)
        cells = [str(n) if o == n else "%s -> %s" % (o, n)
                 for o, n in zip(old, summary(after[name]))]
        differs = before.get(name) != after[name]
        changed += differs
        lines.append("%-28s %s%s" % (name, " ".join("%24s" % c for c in cells),
                                     "  *" if differs else ""))
    lines.append("%d of %d cases changed" % (changed, len(after)) if changed
                 else "all %d cases equal" % len(after))
    return "\n".join(lines)


def rewrite(path, text):
    old = path.read_text() if path.exists() else None
    path.write_text(text)
    print("%s: %s" % (path.relative_to(ROOT), "unchanged" if old == text else "rewritten"))


def main(argv):
    if argv[:1] == ["--collect"]:           # collect_at's child process
        json.dump(collect(argv[1]), sys.stdout)
        return
    if argv:
        raise SystemExit("usage: python tests/regen_golden.py")
    tree = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "HEAD"],
                          check=True, stdout=subprocess.PIPE).stdout
    with tempfile.TemporaryDirectory() as base:
        tarfile.open(fileobj=io.BytesIO(tree)).extractall(base, filter="data")
        before = collect_at(base)["stats"]
    after = collect_at(ROOT)
    print("before: HEAD, after: the working tree")
    print(table(before, after["stats"]))
    rewrite(DIGESTS, json.dumps({
        "note": "stable_stats digests of the perfbench guests; see tests/test_timing_identity.py",
        "digests": after["digests"]}, indent=1, sort_keys=True) + "\n")
    rewrite(GOLDEN, json.dumps(after["stats"][PULP_OPEN], indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
