"""End-to-end acceptance checks at their stated tolerances.

Each test prints one summary line (criterion number, pass/fail, and the
measured quantity) and then asserts, so a failing run still reports the
numbers for every criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from curvehelpers import collinear_degenerate_curve, realization
from flagflows.cli import main as cli_main
from flagflows.devmaps import (
    LeafPoint,
    develop,
    omega_membership,
    phi_tan_plus,
    type_classifier,
)
from flagflows.flows import cocycle, decay_experiment, period_spectrum, reference_flow
from flagflows.limitcurve import (
    boundary_regularity_estimate,
    frenet_checks,
    sample_boundary,
    second_boundary_intersection,
)
from flagflows.reps import (
    bulge_deform,
    circular_gap,
    fuchsian_genus2,
    jordan_projection,
    root_length,
    sym_power,
)
from flagflows.words import enumerate_conjugacy_classes

ROOTS = [(1, 2), (1, 3), (2, 3)]


def _report(num, desc, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {desc}: {status} ({detail})")


@pytest.fixture(scope="module")
def deep_curve(reference):
    """Word-ball depth 6 eigenflag sampling (interpolated triples)."""
    return sample_boundary(sym_power(reference, 3), reference, 6)


@pytest.fixture(scope="module")
def bulged_decay_curves(reference):
    rep3 = sym_power(reference, 3)
    return {s: sample_boundary(bulge_deform(rep3, s), reference, 5)
            for s in (0.3, 0.7)}


def _random_triple(rng):
    x = rng.uniform(0, 2 * math.pi)
    g1 = rng.uniform(0.3, 2 * math.pi - 0.6)
    g2 = rng.uniform(0.3, 2 * math.pi - g1 - 0.3)
    return LeafPoint(x, x + g1, x + g1 + g2)


def test_criterion_1_periods_equal_root_lengths(reference):
    start = time.perf_counter()
    words = enumerate_conjugacy_classes(reference.presentation, 5)
    rep3 = sym_power(reference, 3)
    worst = 0.0
    for s in (0.0, 0.3, 0.7):
        rep = rep3 if s == 0.0 else bulge_deform(rep3, s)
        curve = sample_boundary(rep, reference, 3)
        spectrum = period_spectrum(curve, words, ROOTS)
        for w in words:
            jd = jordan_projection(rep.matrix(w), rep.matrix(w.inverse()))
            for root in ROOTS:
                want = root_length(jd, *root)
                rel = abs(spectrum[w][root] - want) / abs(want)
                worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 60.0
    _report(1, "flow periods = root lengths, 3 reps x 4148 classes x 3 roots",
            ok, f"worst rel err {worst:.2e}, {elapsed:.1f} s")
    assert worst < 1e-6
    assert elapsed < 60.0


def test_criterion_2_fuchsian_tangent_translation(exact_curve, reference):
    rng = np.random.default_rng(12)
    alphabet = [x for i in (1, 2, 3, 4) for x in (i, -i)]
    checked = 0
    worst = 0.0
    while checked < 20:
        length = rng.integers(1, 5)
        w = reference.presentation.parse_word(" ".join(
            reference.presentation.generator_name(int(rng.choice(alphabet)))
            for _ in range(length)))
        if len(w) == 0 or abs(np.trace(reference.matrix(w))) <= 2.0:
            continue
        sl2 = 2.0 * math.acosh(abs(np.trace(reference.matrix(w))) / 2.0)
        got = period_spectrum(exact_curve, [w], [(2, 3)])[w][(2, 3)]
        worst = max(worst, abs(got - sl2))
        checked += 1
    ok = worst < 1e-8
    _report(2, "tangent-type translation = SL2 length on 20 axes",
            ok, f"worst abs err {worst:.2e}")
    assert ok


def _two_sheet_error(curve, p):
    f = phi_tan_plus(curve, p)
    w = second_boundary_intersection(curve, f.line, p.x)
    f2 = phi_tan_plus(curve, LeafPoint(w, p.z, p.y))
    return max(f.point.principal_angle(f2.point), f.line.principal_angle(f2.line))


def test_criterion_3_two_sheeted_covering_identity(exact_curve, deep_curve):
    rng = np.random.default_rng(23)
    worst_exact = 0.0
    thetas = exact_curve.thetas
    count = 0
    while count < 200:
        idx = sorted(rng.choice(thetas.size, size=3, replace=False))
        trip = thetas[idx]
        if np.min(np.diff(trip)) < 0.2 or trip[-1] - trip[0] > 2 * math.pi - 0.2:
            continue
        worst_exact = max(worst_exact, _two_sheet_error(
            exact_curve, LeafPoint(*trip)))
        count += 1
    worst_interp = 0.0
    for _ in range(200):
        worst_interp = max(worst_interp, _two_sheet_error(
            deep_curve, _random_triple(rng)))
    ok = worst_exact < 1e-6 and worst_interp < 1e-3
    _report(3, "two-sheet identity, 200 exact + 200 interpolated triples",
            ok, f"exact {worst_exact:.2e}, interpolated {worst_interp:.2e}")
    assert worst_exact < 1e-6
    assert worst_interp < 1e-3


def test_criterion_4_domain_membership(exact_curve):
    rng = np.random.default_rng(34)
    expected = {"tr": "2", "tan+": "2", "tan-": "2", "psi1": "1", "psi2": "1",
                "psi3": "3", "psi4": "3"}
    triples = [_random_triple(rng) for _ in range(100)]
    x, y, z = np.array([(p.x, p.y, p.z) for p in triples]).T
    errors = 0
    for name, want in expected.items():
        labels = omega_membership(exact_curve, *develop(exact_curve, name, x, y, z))
        errors += int(np.sum(labels != want))
    ok = errors == 0
    _report(4, "domain membership of all seven maps, 100 leaf points",
            ok, f"{errors} misclassifications in 700 evaluations")
    assert ok


def test_criterion_5_decay_rates(exact_curve, bulged_decay_curves):
    p = LeafPoint(0.5, 0.7, 3.9)
    slope_f, _ = decay_experiment(exact_curve, p, 3.5, 5.0, 20)
    fuchsian_ok = abs(slope_f + 1.0) < 0.05
    details = [f"fuchsian {slope_f:.3f}"]
    bulged_ok = True
    for s, curve in sorted(bulged_decay_curves.items()):
        slope, _ = decay_experiment(curve, p, 3.5, 5.0, 20)
        _, beta_hat = boundary_regularity_estimate(curve)
        bound = -1.0 / (beta_hat - 1.0) - 0.1
        bulged_ok = bulged_ok and slope >= bound
        details.append(f"s={s}: slope {slope:.3f} >= bound {bound:.3f}")
    ok = fuchsian_ok and bulged_ok
    _report(5, "stable-leaf decay rates", ok, "; ".join(details))
    assert fuchsian_ok
    assert bulged_ok


def test_criterion_6_translation_cocycle(exact_curve):
    rng = np.random.default_rng(56)
    worst_identity = 0.0
    for k in range(100):
        p = _random_triple(rng)
        s, t = rng.uniform(0.1, 1.2, size=2)
        alpha = ROOTS[k % 3]
        moved = LeafPoint(p.x, reference_flow(p.x, p.z, p.y, s), p.z)
        whole, later, first = cocycle(exact_curve, alpha, p.x, [p.y, moved.y, p.y], p.z,
                                      [s + t, t, s])
        worst_identity = max(worst_identity, abs(whole - later - first))
    worst_rate = 0.0
    for _ in range(10):
        p = _random_triple(rng)
        t = rng.uniform(0.2, 1.5)
        for (i, j) in ROOTS:
            worst_rate = max(worst_rate,
                             abs(cocycle(exact_curve, (i, j), p.x, p.y, p.z, t)[0] - (j - i) * t))
    ok = worst_identity < 1e-7 and worst_rate < 1e-6
    _report(6, "cocycle identity and Fuchsian rate (j - i) t",
            ok, f"identity {worst_identity:.2e}, rate {worst_rate:.2e}")
    assert worst_identity < 1e-7
    assert worst_rate < 1e-6


def test_criterion_7_frenet_suite_with_negative_control(exact_curve, reference):
    good = frenet_checks(exact_curve)
    degenerate = frenet_checks(collinear_degenerate_curve(reference))
    ok = (good["general_position_ok"] and good["osculation_ok"]
          and not degenerate["general_position_ok"])
    _report(7, "Frenet suite + collinear negative control", ok,
            f"conic sv {good['min_triple_singular_value']:.2e}, "
            f"degenerate sv {degenerate['min_triple_singular_value']:.2e}")
    assert good["general_position_ok"] and good["osculation_ok"]
    assert not degenerate["general_position_ok"]


def test_criterion_8_simple_root_degeneracy_witness(exact_curve4):
    rng = np.random.default_rng(78)
    worst_12 = 0.0
    min_13 = np.inf
    for _ in range(50):
        p1 = _random_triple(rng)
        z2 = p1.z + rng.uniform(0.2, 0.5)
        p2 = LeafPoint(p1.x, p1.y, z2)
        if not circular_gap(p2.x, p2.y) < circular_gap(p2.x, p2.z):
            continue
        a = realization(exact_curve4, (1, 2), p1)
        b = realization(exact_curve4, (1, 2), p2)
        worst_12 = max(worst_12, a.principal_angle(b))
        c = realization(exact_curve4, (1, 3), p1)
        d = realization(exact_curve4, (1, 3), p2)
        min_13 = min(min_13, c.principal_angle(d))
    ok = worst_12 < 1e-10 and min_13 > 1e-3
    _report(8, "n=4 simple root ignores z, (1,3) does not",
            ok, f"alpha12 spread {worst_12:.2e}, alpha13 min move {min_13:.2e}")
    assert worst_12 < 1e-10
    assert min_13 > 1e-3


def test_criterion_9_type_classifier(exact_curve):
    rng = np.random.default_rng(90)
    cases = [("tr", "transverse"), ("tan+", "tangent_plus"), ("tan-", "tangent_minus")]
    total = correct = 0
    for _ in range(8):
        x = rng.uniform(0, 2 * math.pi)
        z = x + rng.uniform(2.5, 4.5)
        arc = (z - x) % (2 * math.pi)
        for name, want in cases:
            points, _ = develop(exact_curve, name, x, x + arc * np.arange(1, 13) / 13, z)
            total += 1
            correct += type_classifier(points, exact_curve, x, z) == want
    ok = correct == total
    _report(9, "support-line type classifier", ok, f"{correct}/{total} correct")
    assert ok


def test_criterion_10_verify_all_determinism(tmp_path):
    start = time.perf_counter()
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = cli_main(["--outdir", str(out1), "verify-all"])
    code2 = cli_main(["--outdir", str(out2), "verify-all"])
    elapsed = time.perf_counter() - start
    text1 = (out1 / "verify_all_summary.json").read_bytes()
    text2 = (out2 / "verify_all_summary.json").read_bytes()
    passed = json.loads(text1)["passed"]
    ok = (code1 == 0 and code2 == 0 and text1 == text2
          and passed and elapsed / 2 < 120.0)
    _report(10, "verify-all determinism and runtime", ok,
            f"byte-identical {text1 == text2}, {elapsed / 2:.1f} s per run")
    assert code1 == 0 and code2 == 0
    assert text1 == text2
    assert passed
    assert elapsed / 2 < 120.0
