"""Check that two checkouts give byte-identical CLI outputs on a fixed list of command lines.

    python tools/same_outputs.py OTHER_CHECKOUT

Runs each line of COMMAND_LINES as `python -m flagflows --outdir DIR LINE`,
DIR a fresh directory, once in the checkout holding this script and once
in OTHER_CHECKOUT, each with its own `src` on PYTHONPATH.  Compares the
exit code, stdout, stderr and every artifact byte for byte, prints each
line that differs with the names that differ, then "N of M command lines
identical", and exits 1 if any line differs.
"""

import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMAND_LINES = [
    # the benchmark's seven verify-all lines, then three more configs
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
    'flow --alpha 2,3 --word "a1 b1"',
    'flow --alpha 1,3 --word "a1 B2 a2"',
    '--n 4 flow --alpha 1,3 --word "a1 b1"',
    '--n 4 flow --alpha 1,2 --word "A1 a2 A1 a2"',
    "--bulge 0.3 flow --alpha 1,3 --word b2",
    '--bulge 0.3 flow --alpha 1,2 --word "a1 b1"',
    "flow --alpha 1,2 --word e",
    'flow --alpha 1,2 --word "a1 x"',
    "--bulge 0.3 --word-ball 4 flow --alpha 1,2 --word a",
    "periods --max-len 3",
    "--n 4 periods --max-len 3",
    "--n 2 periods --max-len 3",
    "--bulge 0.3 periods",
    "decay",
    "--bulge 0.3 decay",
    "sample-curve",
    "--bulge 0.3 sample-curve",
    "--n 2 sample-curve",
    "--bulge 0.3 --word-ball 5 sample-curve",
    "build-rep",
    "dev-image --map tan-",
    "dev-image --map alpha:1,3",
    "render --figure dev-tan+",
    "render --figure boundary",
    "frenet-check",
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


def compare(this: Path, other: Path, lines) -> int:
    """Print the lines whose outputs differ between the checkouts, then the count that agree."""
    same = 0
    for line in lines:
        a, b = outputs(this, line), outputs(other, line)
        differ = [name for name in sorted(a.keys() | b.keys()) if a.get(name) != b.get(name)]
        if differ:
            print(f"{line}: {', '.join(differ)}")
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
