"""Check that two checkouts give byte-identical CLI outputs on a fixed list of command lines.

    python tools/same_outputs.py OTHER_CHECKOUT

Runs each line of COMMAND_LINES as `python -m flagflows --outdir DIR LINE`,
DIR a fresh directory, once in the checkout holding this script and once
in OTHER_CHECKOUT, each with its own `src` on PYTHONPATH.  Compares the
exit code, stdout, stderr and every artifact byte for byte, prints each
line that differs with the names that differ, then "N of M command lines
identical", and exits 1 if any line differs.  A line that differs also
says whether the two runs reach the same verdicts (exit code, the error
type on stderr and every `passed` flag of the summary) and the largest
relative change among the numbers the two summaries share, with its key.
A JSON artifact that differs (a summary, `rep.json`, `curve.json`) gives
the largest absolute change among the numbers both runs share, with its
key.  A CSV that differs says whether every entry that differs is the
exact negation of the other, as when a printed vector flips its sign,
and if not, the largest change after aligning signs.
"""

import csv
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMAND_LINES = [
    # the benchmark's seven verify-all lines, then five more configs
    "--seed 0 verify-all",
    "--bulge 0.3 --seed 0 verify-all",
    "--bulge 0.3 --word-ball 4 --seed 0 verify-all",
    "--seed 2 verify-all",
    "--bulge 0.3 --seed 2 verify-all",
    "--bulge 0.3 --word-ball 4 --seed 2 verify-all",
    "--bulge 0.3 --seed 7 verify-all",
    "--seed 1 verify-all",
    "--bulge 0.7 --seed 0 verify-all",
    "--bulge -0.3 --seed 3 verify-all",
    "--bulge 0.7 --seed 3 verify-all",
    "--bulge 1.0 --seed 0 verify-all",
    'flow --alpha 2,3 --word "a1 b1"',
    'flow --alpha 2,3 --word "a1 b1" --t-max 2 --steps 50',
    'flow --alpha 1,3 --word "a1 B2 a2"',
    '--n 4 flow --alpha 1,3 --word "a1 b1"',
    '--n 4 flow --alpha 1,2 --word "A1 a2 A1 a2"',
    "--bulge 0.3 flow --alpha 1,3 --word b2",
    '--bulge 0.3 flow --alpha 1,2 --word "a1 b1"',
    "flow --alpha 1,2 --word e",
    'flow --alpha 1,2 --word "a1 x"',
    "--bulge 0.3 --word-ball 4 flow --alpha 1,2 --word a",
    "periods --max-len 3",
    "periods --max-len 5",
    "--n 4 periods",
    "--n 4 periods --max-len 3",
    "--n 2 periods --max-len 3",
    "--bulge 0.3 periods",
    "--bulge 0.7 periods",
    "--bulge 1.0 periods",
    "--bulge 0.3 --word-ball 5 periods --max-len 4",
    "--bulge 0.7 periods --max-len 5",
    "periods --alpha 1,3 --max-len 4",
    "decay",
    "--bulge 0.3 decay",
    "--bulge 0.3 --word-ball 4 decay",
    "sample-curve",
    "--bulge 0.3 sample-curve",
    "--n 2 sample-curve",
    "--bulge 0.3 --word-ball 5 sample-curve",
    "--bulge 0.7 sample-curve",
    "build-rep",
    "dev-image --map tan-",
    "dev-image --map psi3",
    "dev-image --map tan+",
    "dev-image --map psi4",
    "dev-image --map alpha:2,3",
    "--bulge 0.3 dev-image --map tr",
    "--bulge 0.3 dev-image --map tan-",
    "--bulge 0.3 --word-ball 4 dev-image --map tan-",
    "dev-image --map alpha:1,3",
    "--n 4 dev-image --map alpha:2,3",
    "render --figure dev-tan+",
    "render --figure boundary",
    "--bulge 0.3 render --figure boundary",
    "--bulge 0.3 render --figure dev-tan-",
    "--bulge 0.3 --word-ball 4 render --figure dev-tan+",
    "frenet-check",
    "--n 2 frenet-check",
    "--bulge 0.3 frenet-check",
    "--n 4 frenet-check",
    "--n 4 sample-curve",
]


def outputs(checkout: Path, line: str) -> dict:
    """{name: bytes} of one command line run in `checkout`: exit code, stdout, stderr, artifacts."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    with tempfile.TemporaryDirectory() as outdir:
        done = subprocess.run([sys.executable, "-m", "flagflows", "--outdir", outdir,
                               *shlex.split(line)], env=env, capture_output=True)
        out = {"exit code": str(done.returncode).encode(), "stdout": done.stdout,
               "stderr": done.stderr}
        out.update((p.name, p.read_bytes()) for p in Path(outdir).iterdir())
    return out


def _leaves(obj, key=""):
    """{dotted key: value} of every number, bool or string in parsed JSON."""
    if isinstance(obj, dict):
        return {k: v for name, item in obj.items()
                for k, v in _leaves(item, f"{key}.{name}" if key else name).items()}
    if isinstance(obj, list):
        return {k: v for i, item in enumerate(obj) for k, v in _leaves(item, f"{key}[{i}]").items()}
    return {key: obj}


def _summary(out: dict) -> dict:
    """The leaves of a run's `*_summary.json`, or none if it wrote no summary."""
    texts = [text for name, text in out.items() if name.endswith("_summary.json")]
    return _leaves(json.loads(texts[0])) if texts else {}


def verdict(out: dict) -> tuple:
    """(exit code, error type on stderr, {key: flag} of every `passed` in the summary)."""
    try:
        error = json.loads(out["stderr"])["error"]["type"] if out["stderr"] else None
    except (ValueError, KeyError, TypeError):
        error = "unstructured stderr"
    passed = {k: v for k, v in _summary(out).items() if k.split(".")[-1] == "passed"}
    return out["exit code"], error, passed


def _moved(la: dict, lb: dict) -> list:
    """(x, y, key) of every number two sets of leaves share under one key and that differs."""
    return [(la[k], lb[k], k) for k in la.keys() & lb.keys()
            if type(la[k]) in (int, float) and type(lb[k]) in (int, float) and la[k] != lb[k]]


def largest_change(a: dict, b: dict):
    """(relative change, key) of the summary number that moved most between two runs."""
    moved = _moved(_summary(a), _summary(b))
    return max(((abs(x - y) / max(abs(x), abs(y)), k) for x, y, k in moved), default=(0.0, None))


def json_change(a: bytes, b: bytes) -> str:
    """The largest absolute change among the numbers two JSON texts share, with its key."""
    moved = _moved(_leaves(json.loads(a)), _leaves(json.loads(b)))
    change, key = max(((abs(x - y), k) for x, y, k in moved), default=(0.0, None))
    return f"largest absolute change {change:.3g}" + (f" at {key}" if key else "")


def csv_change(a: bytes, b: bytes) -> str:
    """How two CSV texts differ: "negated" when every entry that differs is the exact
    negation of the other, else the largest change after aligning signs."""
    rows_a, rows_b = (list(csv.reader(io.StringIO(text.decode()))) for text in (a, b))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return "shape differs"
    changes = [(x, y) for ra, rb in zip(rows_a, rows_b) for x, y in zip(ra, rb) if x != y]
    if all(x == "-" + y or y == "-" + x for x, y in changes):
        return "negated"
    try:
        largest = max(min(abs(float(x) - float(y)), abs(float(x) + float(y))) for x, y in changes)
    except ValueError:
        return "text differs"
    return f"largest change {largest:.3g} after aligning signs"


def compare(this: Path, other: Path, lines) -> int:
    """Print the lines whose outputs differ between the checkouts, then the count that agree."""
    same = 0
    for line in lines:
        a, b = outputs(this, line), outputs(other, line)
        differ = [name for name in sorted(a.keys() | b.keys()) if a.get(name) != b.get(name)]
        if differ:
            rel, key = largest_change(a, b)
            changes = {".csv": csv_change, ".json": json_change}
            notes = [f"; {name} {changes[Path(name).suffix](a[name], b[name])}"
                      for name in differ if Path(name).suffix in changes
                      and name in a.keys() & b.keys()]
            print(f"{line}: {', '.join(differ)}; verdicts "
                  f"{'agree' if verdict(a) == verdict(b) else 'differ'}; "
                  f"largest summary change {rel:.3g}" + (f" at {key}" if key else "")
                  + "".join(notes))
        else:
            same += 1
    print(f"{same} of {len(lines)} command lines identical")
    return 0 if same == len(lines) else 1


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python tools/same_outputs.py OTHER_CHECKOUT", file=sys.stderr)
        return 2
    return compare(ROOT, Path(args[0]), COMMAND_LINES)


if __name__ == "__main__":
    sys.exit(main())
