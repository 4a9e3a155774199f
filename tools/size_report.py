"""Print the size of the package: line counts and the count of settable values.

    python tools/size_report.py [ROOT]

ROOT is a source checkout (default: the one holding this script).  Prints
the line count of each `src/flagflows/*.py` and `tests/*.py` file with
their totals, as `wc -l` does, then the settable values of the package
source, counted on its syntax tree:

- function parameters with a default;
- dataclass fields with a default, except fields declared `init=False`;
- command-line options (`add_argument` calls).
"""

import ast
import sys
from pathlib import Path


def line_counts(root, paths):
    counts = [(len(p.read_bytes().splitlines()), p) for p in paths]
    for count, path in counts:
        print(f"{count:8d} {path.relative_to(root)}")
    total = sum(c for c, _ in counts)
    print(f"{total:8d} total")
    return total


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _init_false(value) -> bool:
    return (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
            and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in value.keywords))


def settable_values(paths):
    """(parameters, fields, options) with a settable default, over the given files."""
    params = fields = options = 0
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                params += len(node.args.defaults)
                params += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                              and not _init_false(s.value) for s in node.body)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "add_argument"):
                options += 1
    return params, fields, options


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent
    src = sorted((root / "src" / "flagflows").glob("*.py"))
    tests = sorted((root / "tests").glob("*.py"))
    src_total = line_counts(root, src)
    tests_total = line_counts(root, tests)
    params, fields, options = settable_values(src)
    print(f"src {src_total:,} / tests {tests_total:,} / settable values "
          f"{params + fields + options} (parameters {params}, fields {fields}, "
          f"options {options})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
