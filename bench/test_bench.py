"""Tests of the benchmark's tracer and harness, on small instances of its workloads."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import harness  # noqa: E402
import tracer  # noqa: E402
from flagflows import cli, limitcurve, projective  # noqa: E402


def _small_workloads(tmp_path):
    return [
        harness.PeriodsWorkload(max_len=2, depth=3, bulges=(0.0, 0.3)),
        harness.CoveringWorkload(seed=5, depth=3, triples=3),
        # stops early with UnclassifiedLine, after scans and developing maps
        harness.VerifyAllWorkload(outdir=tmp_path, lines=[(["--bulge", "0.3"], 7)]),
    ]


@pytest.mark.parametrize("index", [0, 1, 2], ids=["periods", "covering", "verify-all"])
def test_traced_runs_repeat_their_counts(tmp_path, index):
    runs = []
    for _ in range(2):
        workload = _small_workloads(tmp_path)[index]
        runs.append(harness.measure_traced(workload, seconds=0.0))
    counts = [
        {name: value for name, value in run["metrics"].items()
         if tracer.LAYER_METRICS[name][0] in ("count", "ratio", "rad")
         and not name.startswith("trace.")}
        for run in runs
    ]
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0
    for run in runs:
        assert set(run["metrics"]) == set(tracer.LAYER_METRICS)
        assert 0.9 < run["metrics"]["trace.coverage"] <= 1.0 + 1e-9
        assert run["metrics"]["trace.overhead"] > 0.0
        assert run["totals"].mismatches == 0


def test_tracer_restores_every_binding():
    bindings = [(limitcurve, "sample_boundary"), (cli, "sample_boundary"),
                (projective.ProjectiveSubspace, "__post_init__"),
                (projective.Flag, "from_basis_columns")]

    def current():
        return [vars(owner)[name] for owner, name in bindings] + list(cli._MAP_TABLE.values())

    before = current()
    tan_plus = cli._MAP_TABLE["tan+"]
    with tracer.Tracer() as t:
        assert cli.sample_boundary is limitcurve.sample_boundary is not before[0]
        assert cli._MAP_TABLE["tan+"] is not tan_plus
        projective.ProjectiveSubspace.point([1.0, 0.0, 0.0])
    assert all(a is b for a, b in zip(before, current()))
    assert [t.names[i] for i in t.name_ids] == ["projective.ProjectiveSubspace.point",
                                                "projective.ProjectiveSubspace.__init__"]
    assert list(t.parents) == [-1, 0]


def test_self_time_excludes_children():
    with tracer.Tracer() as t:
        projective.join([projective.ProjectiveSubspace.point([1.0, 0.0, 0.0]),
                         projective.ProjectiveSubspace.point([0.0, 1.0, 0.0])])
    spans = t.spans()
    duration = spans["end"] - spans["start"]
    join = [i for i, n in enumerate(spans["name"]) if t.names[n] == "projective.join"][0]
    children = spans["parent"] == join
    assert children.any()
    assert spans["self"][join] == pytest.approx(duration[join] - duration[children].sum())


def test_part_times_are_scaled_by_the_reference_loop_around_them():
    ref = harness.REFERENCE_SECONDS
    # the second pass ran at half speed, the third at half speed for its second part only
    totals = harness.Totals(part_seconds=[[2.0, 4.0], [4.0, 8.0], [2.0, 12.0]],
                            reference_seconds=[[ref, ref, ref], [2 * ref] * 3,
                                               [ref, ref, 3 * ref]])
    assert totals.scaled_pass_seconds() == pytest.approx(2.0 + 4.0)


def test_raising_unit_counts_as_failed(tmp_path):
    # even n has no affine chart, so verify-all exits with a structured error
    workload = harness.VerifyAllWorkload(outdir=tmp_path, lines=[(["--n", "4"], 0)])
    result = harness.run_pass(workload, workload.setup(), harness.Totals())
    assert (result.attempted, result.failed) == (harness.VERIFY_CHECKS, harness.VERIFY_CHECKS)
    assert result.errors


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "covering-d5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
