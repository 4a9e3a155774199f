import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZE_REPORT = ROOT / "tools" / "size_report.py"

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


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _size_report():
    return _tool("size_report")


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


def test_same_outputs_names_what_differs(tmp_path, capsys):
    """build-rep against the repo itself, then against copies whose summary gains a key,
    and gains a failing `passed` flag with a changed number, and whose rep.json differs
    in one entry; dev-image against copies whose CSV vectors come out negated, and
    negated and scaled."""
    same_outputs = _tool("same_outputs")
    assert same_outputs.compare(ROOT, ROOT, ["build-rep"]) == 0
    assert capsys.readouterr().out == "1 of 1 command lines identical\n"
    cli_text = (ROOT / "src" / "flagflows" / "cli.py").read_text()
    image = "zip(ys, ctx.image(curve.frames_at(ys)[..., -1]))"
    assert cli_text.count('"loxodromy_depth2_ok": True,') == 1
    assert cli_text.count('"genus": rep.presentation.genus,') == 1
    assert cli_text.count(image) == 1
    assert cli_text.count('"rep.json", rep.to_dict()') == 1
    edits = {
        "added": [('"loxodromy_depth2_ok": True,',
                   '"loxodromy_depth2_ok": True, "edited": True,')],
        "failed": [('"loxodromy_depth2_ok": True,',
                    '"loxodromy_depth2_ok": True, "passed": False,'),
                   ('"genus": rep.presentation.genus,', '"genus": rep.presentation.genus + 2,')],
        "rep": [('"rep.json", rep.to_dict()', '"rep.json", {**rep.to_dict(), "n": 3.25}')],
        "negated": [(image, image.replace("ctx", "-ctx"))],
        "scaled": [(image, image.replace("ctx", "-1.000001 * ctx"))],
    }
    for name, replacements in edits.items():
        shutil.copytree(ROOT / "src", tmp_path / name / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        text = cli_text
        for old, new in replacements:
            text = text.replace(old, new)
        (tmp_path / name / "src" / "flagflows" / "cli.py").write_text(text)
    assert same_outputs.compare(ROOT, tmp_path / "added", ["build-rep"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "build-rep: build_rep_summary.json, stdout; verdicts agree; largest summary change 0; "
        "build_rep_summary.json largest absolute change 0",
        "0 of 1 command lines identical"]
    assert same_outputs.compare(ROOT, tmp_path / "failed", ["build-rep"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "build-rep: build_rep_summary.json, stdout; verdicts differ; "
        "largest summary change 0.5 at genus; "
        "build_rep_summary.json largest absolute change 2 at genus",
        "0 of 1 command lines identical"]
    assert same_outputs.compare(ROOT, tmp_path / "rep", ["build-rep"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "build-rep: rep.json; verdicts agree; largest summary change 0; "
        "rep.json largest absolute change 0.25 at n",
        "0 of 1 command lines identical"]
    line = "dev-image --map alpha:1,3 --num 4"
    for name, verdict in (("negated", "negated"),
                          ("scaled", "largest change 8.85e-07 after aligning signs")):
        assert same_outputs.compare(ROOT, tmp_path / name, [line]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{line}: dev_image.csv; verdicts agree; largest summary change 0; "
            f"dev_image.csv {verdict}",
            "0 of 1 command lines identical"]


def test_same_outputs_compares_a_render_line_that_clamps():
    """The clamp onto the viewport is compared too: a render line of the list clips points."""
    same_outputs = _tool("same_outputs")
    line = "render --figure dev-tan+"
    assert line in same_outputs.COMMAND_LINES
    out = same_outputs.outputs(ROOT, line)
    assert json.loads(out["render_summary.json"])["clipped_points"] > 0
