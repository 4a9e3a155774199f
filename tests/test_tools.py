import importlib.util
from pathlib import Path

SIZE_REPORT = Path(__file__).resolve().parent.parent / "tools" / "size_report.py"

SOURCE = '''\
from dataclasses import dataclass, field


def scaled(x, factor=2.0):
    return factor * x


@dataclass
class Box:
    width: float = 1.0
    cache: dict = field(init=False)


def make_parser(parser):
    parser.add_argument("--width", type=float)
'''


def _size_report():
    spec = importlib.util.spec_from_file_location("size_report", SIZE_REPORT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_size_report_counts_lines_and_settable_values(tmp_path, capsys):
    """One default parameter, one defaulted field and one option; `init=False` is not settable."""
    (tmp_path / "src" / "flagflows").mkdir(parents=True)
    (tmp_path / "src" / "flagflows" / "box.py").write_text(SOURCE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_box.py").write_text("def test_box():\n    pass\n")
    assert _size_report().main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "      15 src/flagflows/box.py",
        "      15 total",
        "       2 tests/test_box.py",
        "       2 total",
        "src 15 / tests 2 / settable values 3 (parameters 1, fields 1, options 1)",
    ]


def test_package_settable_values_are_pinned():
    """(parameters, fields, options) of the package; a new setting must change this test."""
    src = sorted((SIZE_REPORT.parent.parent / "src" / "flagflows").glob("*.py"))
    assert _size_report().settable_values(src) == (6, 1, 19)
