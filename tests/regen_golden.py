"""Regenerate the golden timing files under tests/data/.

    python tests/regen_golden.py

Rewrites, from the working tree:

- `perfbench_digests.json`: the `stable_stats` digest of every
  `test_timing_identity.CASES` case (the perfbench workloads), and the
  sha256 of the full trace and of the VCD of every `TINY_CASES` case;
- `pulp_open_golden_stats.json`: the stable stats of the pulp-open guest
  of `test_pulp_open.py`.

Before writing, it prints one row per case: global time, the cores' summed
`total_cycles`, the memories' summed contentions and the accelerators'
summed conflict cycles, each before and after, where "before" is the same
case run on the last commit (git HEAD).  Then it prints, per
tiny case, whether the trace and the VCD digests changed, and the line
count of `src/pulpsim/*.py` before and after: every physical line, and
only the code lines (no blank, comment or docstring line), then, for
each of those files whose code-line count changed, that count before and
after.  For each tiny case whose trace changed, it then explains the
change: the first
pair of trace lines that differ, with the number of lines that agree
before them, and every `stable_stats` field that differs, per component
path, as `before -> after`.  The full traces of both sides stay in a temporary
folder, whose path it prints.  A change that keeps simulated timing and
event order prints all-equal tables and leaves both files byte-identical.
A deliberate timing change names the rewritten files and gives the first
table and the explanations in CHANGES.md.
"""

import io
import json
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
DIGESTS = DATA / "perfbench_digests.json"
GOLDEN = DATA / "pulp_open_golden_stats.json"
PULP_OPEN = "pulp_open"
COLUMNS = ("global_time_ps", "core_cycles", "contentions", "conflict_cycles")


def trace_file(folder, name):
    """Where `collect` keeps the full trace of the tiny case `name`."""
    return Path(folder) / (name.replace("/", "-") + ".trace")


def collect(root, traces):
    """Stable stats of every case on the tree at `root`, by case name, and
    the digests of the perfbench cases, by that tree's own code.  Writes
    the full trace of each tiny case to `trace_file(traces, name)`."""
    root = Path(root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import test_timing_identity as identity
    from test_pulp_open import run_guest
    from pulpsim.tracing import stats_report, stable_stats

    stats = {identity.case_key(*case): identity.plain_stats(*case) for case in identity.CASES}
    digests = {name: identity.run.digest(s) for name, s in stats.items()}
    # a tree older than the trace and VCD pins has none to compare
    outputs = {identity.case_key(*case): identity.output_digests(*case)
               for case in identity.TINY_CASES} if hasattr(identity, "output_digests") else {}
    Path(traces).mkdir(parents=True, exist_ok=True)
    for name, seed, size in identity.TINY_CASES:
        trace = identity.traced_run(name, False, seed)[1]
        trace_file(traces, identity.case_key(name, seed, size)).write_text(trace)
    plat, status, _, _ = run_guest()
    stats[PULP_OPEN] = stable_stats(stats_report(plat, status))
    return {"stats": stats, "digests": digests, "outputs": outputs}


def collect_at(root, traces):
    """`collect(root, traces)` in a fresh interpreter, so that each tree
    imports its own modules."""
    out = subprocess.run([sys.executable, __file__, "--collect", str(root), str(traces)],
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


def output_table(before, after):
    """One line per tiny case: whether its trace and its VCD digest
    changed."""
    lines = []
    counts = {"equal": 0, "changed": 0, "new": 0}
    for name in sorted(after):
        old = before.get(name, {})
        cells = []
        for what, digest in sorted(after[name].items()):
            state = "new" if what not in old else "equal" if old[what] == digest else "changed"
            counts[state] += 1
            cells.append("%s %s" % (what, state))
        lines.append("%-28s %s" % (name, "  ".join(cells)))
    lines.append("trace and VCD digests: %(equal)d equal, %(changed)d changed, %(new)d new"
                 % counts)
    return "\n".join(lines)


def fields(stats):
    """A stats document as {field name: value}, a component's fields named
    `section[path].field`."""
    out = {}
    for key, value in stats.items():
        if not isinstance(value, dict):
            out[key] = value
            continue
        for path, entry in value.items():
            if isinstance(entry, dict):
                out.update(("%s[%s].%s" % (key, path, f), v) for f, v in entry.items())
            else:
                out["%s.%s" % (key, path)] = entry
    return out


def explain(name, before, after, traces):
    """Where the tiny case `name`'s trace first differs, and each of its
    stats fields that differs, from the traces kept under `traces`."""
    old = trace_file(traces / "before", name).read_text().splitlines()
    new = trace_file(traces / "after", name).read_text().splitlines()
    agree = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
    lines = ["%s: %d trace lines agree, then" % (name, agree),
             "  before: %s" % (old[agree] if agree < len(old) else "(end of trace)"),
             "  after:  %s" % (new[agree] if agree < len(new) else "(end of trace)")]
    old_fields, new_fields = fields(before), fields(after)
    for field in sorted(old_fields.keys() | new_fields.keys()):
        o, n = old_fields.get(field, "-"), new_fields.get(field, "-")
        if o != n:
            lines.append("  %s: %s -> %s" % (field, o, n))
    return "\n".join(lines)


def code_lines(source):
    """The lines of Python `source` that hold code: not blank, not only a
    comment, and not part of a docstring (a statement that is one string)."""
    lines, statement = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            if [t.type for t in statement] != [tokenize.STRING]:
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            statement.append(tok)
    return len(lines)


def source_lines(root):
    """(physical lines, code lines) of each `src/pulpsim/*.py` file of the
    tree at `root`, by file name."""
    texts = {p.name: p.read_text() for p in (Path(root) / "src" / "pulpsim").glob("*.py")}
    return {name: (t.count("\n"), code_lines(t)) for name, t in texts.items()}


def rewrite(path, text):
    old = path.read_text() if path.exists() else None
    path.write_text(text)
    print("%s: %s" % (path.relative_to(ROOT), "unchanged" if old == text else "rewritten"))


def main(argv):
    if argv[:1] == ["--collect"]:           # collect_at's child process
        json.dump(collect(argv[1], argv[2]), sys.stdout)
        return
    if argv:
        raise SystemExit("usage: python tests/regen_golden.py")
    tree = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "HEAD"],
                          check=True, stdout=subprocess.PIPE).stdout
    traces = Path(tempfile.mkdtemp(prefix="regen_golden-"))
    with tempfile.TemporaryDirectory() as base:
        tarfile.open(fileobj=io.BytesIO(tree)).extractall(base, filter="data")
        before = collect_at(base, traces / "before")
        base_lines = source_lines(base)
    after = collect_at(ROOT, traces / "after")
    print("before: HEAD, after: the working tree")
    print(table(before["stats"], after["stats"]))
    print(output_table(before["outputs"], after["outputs"]))
    changed = [name for name, digests in sorted(after["outputs"].items())
               if before["outputs"].get(name, {}).get("trace") != digests["trace"]]
    for name in changed:
        print(explain(name, before["stats"][name], after["stats"][name], traces))
    print("full traces, before and after: %s" % traces)
    lines = source_lines(ROOT)
    for i, what in enumerate(("lines", "code lines")):
        old, new = (sum(counts[i] for counts in tree.values()) for tree in (base_lines, lines))
        print("src/pulpsim/*.py: %d %s at HEAD, %d in the working tree (%+d)" % (
            old, what, new, new - old))
    for name in sorted(base_lines.keys() | lines.keys()):
        old, new = (tree.get(name, (0, 0))[1] for tree in (base_lines, lines))
        if old != new:
            print("src/pulpsim/%s: %d code lines at HEAD, %d in the working tree (%+d)" % (
                name, old, new, new - old))
    rewrite(DIGESTS, json.dumps({
        "note": "stable_stats digests of the perfbench guests, and sha256 of the trace and "
                "VCD of each tiny run; see tests/test_timing_identity.py",
        "digests": after["digests"], "outputs": after["outputs"]},
        indent=1, sort_keys=True) + "\n")
    rewrite(GOLDEN, json.dumps(after["stats"][PULP_OPEN], indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
