"""Acceptance suite: one test per release criterion, each printing a
PASS line with its stated tolerance once the assertions hold.

Run with `pytest tests/test_acceptance.py -v -s` to see the checklist.
"""

import json
import math
import os
import pathlib
import subprocess
import sys

import abwkb
from abwkb import (
    InfiniteWell,
    PowerLaw,
    QuantizationSetup,
    action_integral_closed,
    action_integral_numeric,
    bessel_j,
    bessel_j_zeros,
    build_tendency_report,
    effective_gamma,
    quantize_energy,
    shoot_eigenvalue,
    well_exact_spectrum,
)
from abwkb.closed_form import closed_form_energy
from abwkb.special_functions import gamma_ratio
from reference_levels import energy_coulomb, energy_oscillator

MU0_GRID = (0.0, 0.3, 0.5, 1.7)


def _report(line: str) -> None:
    print(f"PASS {line}")


def test_criterion_01_coulomb_identity():
    worst = 0.0
    for n in range(6):
        for q in range(6):
            for k in range(-3, 4):
                for mu0 in MU0_GRID:
                    g = effective_gamma(q, k, mu0)
                    a = closed_form_energy(PowerLaw(-1.0, -1.0), n, g)
                    b = energy_coulomb(n, q, k, mu0)
                    worst = max(worst, abs(a - b) / abs(b))
    assert worst <= 1e-12
    _report(f"criterion 1: nu=-1 closed form == Coulomb spectrum (worst rel {worst:.2e} <= 1e-12)")


def test_criterion_02_oscillator_identity():
    worst = 0.0
    omega = 2.0  # coupling 1 in reduced units
    for n in range(6):
        for q in range(6):
            for k in range(-3, 4):
                for mu0 in MU0_GRID:
                    g = effective_gamma(q, k, mu0)
                    a = closed_form_energy(PowerLaw(1.0, 2.0), n, g)
                    b = energy_oscillator(n, g) * omega
                    worst = max(worst, abs(a - b) / abs(b))
    assert worst <= 1e-12
    _report(f"criterion 2: nu=2 closed form == oscillator ladder (worst rel {worst:.2e} <= 1e-12)")


def test_criterion_03_action_identity():
    spot = action_integral_numeric(-0.25, PowerLaw(-1.0, -1.0))
    assert abs(spot - math.pi) <= 1e-10
    worst = 0.0
    for nu in (-1.5, -1.0, -0.5, 1.0, 2.0, 4.0):
        pot = PowerLaw(-1.0 if nu < 0 else 1.0, nu)
        for i in range(1, 21):
            e = math.copysign(0.002 * i * 1.3**i / 20.0, nu)
            num = action_integral_numeric(e, pot)
            clo = action_integral_closed(e, pot)
            worst = max(worst, abs(num - clo) / abs(clo))
    assert worst <= 1e-8
    _report(
        "criterion 3: action quadrature vs closed form "
        f"(spot |err| {abs(spot - math.pi):.1e} <= 1e-10; grid worst rel {worst:.2e} <= 1e-8)"
    )


def test_criterion_04_quantization_round_trip():
    worst = 0.0
    for nu in (-1.5, -1.0, -0.5, 1.0, 2.0, 4.0):
        lam = -1.0 if nu < 0 else 1.0
        pot = PowerLaw(lam, nu)
        for g in (0.0, 0.5, 2.5):
            setup = QuantizationSetup(pot, g)
            for n in range(6):
                ref = closed_form_energy(pot, n, g)
                got = quantize_energy(setup, n)
                worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 1e-8
    _report(f"criterion 4: action quantization reproduces closed forms (worst rel {worst:.2e} <= 1e-8)")


def test_criterion_05_well_comparison():
    g = 2.5
    exact = well_exact_spectrum(g, 1.0, 11)
    semi = [closed_form_energy(InfiniteWell(1.0), n, g) / math.pi**2 for n in range(11)]
    diffs = [s - e for s, e in zip(semi, exact)]
    assert all(d > 0.0 for d in diffs)
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    assert abs(diffs[0] - 0.938) <= 2e-3
    tail_limit = 35.0 / (4.0 * math.pi**2)
    assert abs(diffs[10] - tail_limit) <= 0.01
    _report(
        "criterion 5: well comparison at gamma=2.5 "
        f"(diff0 {diffs[0]:.4f} in 0.938+-0.002; diff10 {diffs[10]:.4f} within 0.01 of {tail_limit:.4f}; "
        "positive and decreasing)"
    )


def test_criterion_06_linear_potential_accuracy():
    pot = PowerLaw(1.0, 1.0)
    shot0 = shoot_eigenvalue(pot, 0.0, 0)
    assert abs(shot0 - 2.338107) <= 1e-5
    semi0 = closed_form_energy(pot, 0, 0.0)
    assert abs(semi0 - 2.320251) <= 1e-6
    rel_errs = []
    for n in range(6):
        shot = shoot_eigenvalue(pot, 0.0, n)
        semi = closed_form_energy(pot, n, 0.0)
        rel_errs.append(abs(semi - shot) / shot)
    assert rel_errs[0] < 0.01
    assert all(b < a for a, b in zip(rel_errs, rel_errs[1:]))
    _report(
        "criterion 6: nu=1 semiclassical vs shooting "
        f"(n=0 rel err {rel_errs[0]:.3%} < 1%; strictly decreasing to {rel_errs[5]:.3%} at n=5)"
    )


def test_criterion_07_shooting_vs_exact():
    coulomb = shoot_eigenvalue(PowerLaw(-1.0, -1.0), 1.5, 0)
    osc = shoot_eigenvalue(PowerLaw(1.0, 2.0), 0.0, 0)
    assert abs(coulomb - (-0.04)) <= 1e-6
    assert abs(osc - 3.0) <= 1e-6
    _report(
        "criterion 7: shooting oracle vs exact levels "
        f"(|{coulomb:.8f}+0.04| and |{osc:.8f}-3| <= 1e-6)"
    )


def test_criterion_08_tendency_properties():
    # first differences of the levels positive everywhere tested: one step
    # in n, in q or in |k + mu0| raises the level
    for nu in (-1.5, -1.0, -0.5, 1.0, 2.0, 4.0, math.inf):
        pot = InfiniteWell(1.0) if nu == math.inf else PowerLaw(-1.0 if nu < 0 else 1.0, nu)
        for n, g in [(0, 0.5), (2, 2.5)]:
            e = closed_form_energy(pot, n, g)
            assert closed_form_energy(pot, n + 1, g) > e
            assert closed_form_energy(pot, n, g + 1.0) > e
    # curvature classification matches the second differences of the levels
    expected_cls = {-1.0: "bends-down", 1.0: "bends-down", 2.0: "linear", math.inf: "bends-up"}
    for nu, cls in expected_cls.items():
        pot = InfiniteWell(1.0) if nu == math.inf else PowerLaw(-1.0 if nu < 0 else 1.0, nu)
        e0, e1, e2 = (closed_form_energy(pot, n, 1.5) for n in range(3))
        d2, d1 = e2 - 2.0 * e1 + e0, e1 - e0
        assert build_tendency_report(pot).curvature == cls
        if cls == "linear":
            assert abs(d2) <= 1e-12 * d1
        else:
            assert (d2 > 0) == (cls == "bends-up")
    # derivative ratios, from central differences of the levels
    h = 1e-5

    def ratio_n_to_q(pot):
        dn = closed_form_energy(pot, 1.0 + h, 1.5) - closed_form_energy(pot, 1.0 - h, 1.5)
        dq = closed_form_energy(pot, 1.0, 1.5 + h) - closed_form_energy(pot, 1.0, 1.5 - h)
        return dn / dq

    for nu in (-1.5, -1.0, -0.5):
        pot = PowerLaw(-1.0, nu)
        assert abs(ratio_n_to_q(pot) - (nu + 2.0)) <= 1e-6
        assert build_tendency_report(pot).ratios == (nu + 2.0, 1.0, 1.0)
    for nu in (1.0, 2.0, 4.0):
        pot = PowerLaw(1.0, nu)
        assert abs(ratio_n_to_q(pot) - 2.0) <= 1e-6
        assert build_tendency_report(pot).ratios == (2.0, 1.0, 1.0)
    # flux-slope signs -/0/+ for nu = 1 / 2 / infinity
    assert build_tendency_report(PowerLaw(1.0, 1.0)).flux_slope_sign == "-"
    assert build_tendency_report(PowerLaw(1.0, 2.0)).flux_slope_sign == "0"
    assert build_tendency_report(InfiniteWell(1.0)).flux_slope_sign == "+"
    _report(
        "criterion 8: monotone first differences, curvature classes, "
        "ratio rules ((nu+2):1 and 2:1), flux-slope signs -/0/+ for nu=1/2/inf"
    )


def test_criterion_09_flux_periodicity():
    # bitwise invariance for flux shifts that are exact in floating point
    pots = (PowerLaw(-1.0, -1.0), PowerLaw(1.0, 2.0), InfiniteWell(1.0))
    for pot in pots:
        for mu0 in (0.0, 0.25, 0.5, 1.75):
            for n in range(4):
                for q in range(3):
                    for k in range(-3, 4):
                        a = closed_form_energy(pot, n, effective_gamma(q, k, mu0))
                        b = closed_form_energy(pot, n, effective_gamma(q, k - 1, mu0 + 1.0))
                        assert a == b
    # integer flux reproduces the pure-hydrogen multiset over a window
    # symmetric about -mu0
    K = 3
    worst = 0.0
    for mu0 in (1.0, 2.0):
        shifted = sorted(
            energy_coulomb(n, q, k, mu0)
            for n in range(4)
            for q in range(3)
            for k in range(-K - int(mu0), K - int(mu0) + 1)
        )
        plain = sorted(
            energy_coulomb(n, q, k, 0.0)
            for n in range(4)
            for q in range(3)
            for k in range(-K, K + 1)
        )
        worst = max(worst, max(abs(a - b) / abs(b) for a, b in zip(shifted, plain)))
    assert worst <= 1e-12
    _report(
        "criterion 9: levels invariant under (k, mu0) -> (k-1, mu0+1); "
        f"integer flux matches hydrogen multiset (worst rel {worst:.2e} <= 1e-12)"
    )


def test_criterion_10_special_function_floor():
    worst_zero = max(abs(z - m * math.pi) for m, z in enumerate(bessel_j_zeros(0.5, 20), start=1))
    assert worst_zero <= 1e-10
    assert abs(gamma_ratio(0.5, 1.0) - math.sqrt(math.pi)) <= 1e-12 * math.sqrt(math.pi)
    worst_rec = 0.0
    x = 0.1
    while x <= 50.0:
        worst_rec = max(worst_rec, abs(gamma_ratio(x + 1.0, x) - x) / x)
        x += 0.7
    assert worst_rec <= 1e-12
    worst_res = 0.0
    for order in (0.0, 0.5, 2.5, 3.0, 7.0, 10.0):
        for z in bessel_j_zeros(order, 20):
            worst_res = max(worst_res, abs(bessel_j(order, z)))
    assert worst_res <= 1e-8
    _report(
        "criterion 10: special-function floor "
        f"(half-integer zeros {worst_zero:.1e} <= 1e-10; gamma recurrence {worst_rec:.1e} <= 1e-12; "
        f"zero residuals {worst_res:.1e} <= 1e-8)"
    )


def test_criterion_11_cli_determinism(tmp_path):
    # the child processes import the same abwkb as this one, installed or not
    src = str(pathlib.Path(abwkb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def run(tag: str):
        svg = tmp_path / f"{tag}.svg"
        csv = subprocess.run(
            [
                sys.executable, "-m", "abwkb.cli",
                "spectrum", "--nu", "-1", "--lambda", "-1", "--mu0", "0.3",
                "--n-max", "3", "--q-max", "2", "--k-range=-2..2",
                "--svg", str(svg),
            ],
            capture_output=True,
            check=True,
            env=env,
        ).stdout
        js = subprocess.run(
            [
                sys.executable, "-m", "abwkb.cli",
                "tendency", "--nu", "2", "--lambda", "1", "--mu0", "0.5", "--k", "0",
                "--n-max", "3", "--q-max", "2", "--format", "json",
            ],
            capture_output=True,
            check=True,
            env=env,
        ).stdout
        return csv, js, svg.read_bytes()

    first = run("a")
    second = run("b")
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[2] == second[2]
    json.loads(first[1])  # sanity: emitted JSON parses
    _report("criterion 11: repeated CLI runs emit byte-identical CSV, JSON and SVG")
