"""Seeded inputs for the three workloads.

Every workload draws two things from its seed:

* a census: a fixed-size list of operations spread over the workload's
  whole input domain, including the edge regions where abwkb is known to
  fail today.  It runs once per benchmark run, untimed, and gives
  fail_ratio, max_rel_err and the output digests.  Its composition is the
  same for every seed, so those figures compare across seeds and commits.
* an endless stream of rounds: each round draws every stratum of the
  regular domain a fixed number of times (values jittered inside the
  stratum) and shuffles them.  The timed loop consumes rounds until its
  time is up, so per-op timings come from the same mixture whatever the
  seed.

The generator imports nothing from abwkb: the program only receives the
inputs.  The same (workload, seed) always gives the same inputs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace
from typing import Iterator

WORKLOADS = ("grid_cli", "wkb_roots", "shoot_oracle")


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    kind: "cli", "quantize", "well" or "shoot".
    cls: the timing class ("light", "heavy" or "bulk", which only counts
    toward throughput); None for census ops, which are not timed.
    edge: True inside a documented known-defect region of the domain.
    slot: the op's stratum, as its place in the unshuffled round; -1 for
    census ops.
    """

    kind: str
    cls: str | None
    edge: bool
    params: dict = field(default_factory=dict)
    slot: int = -1


def census(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:census:{seed}")
    return _CENSUS[workload](rng)


def rounds(workload: str, seed: int) -> Iterator[list[Op]]:
    rng = random.Random(f"{workload}:stream:{seed}")
    for ops in _ROUNDS[workload](rng):
        ops = [replace(op, slot=i) for i, op in enumerate(ops)]
        rng.shuffle(ops)
        yield ops


# ---------------------------------------------------------------------------
# shared draws
# ---------------------------------------------------------------------------


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _flux(rng: random.Random, k_max: int = 2) -> tuple[float, int]:
    """(mu0, k) with |k + mu0| >= 0.05, away from the absolute-value kink."""
    return round(rng.uniform(0.05, 0.95), 6), rng.randint(-k_max, k_max)


def _gamma(rng: random.Random, q_max: int, k_max: int = 2) -> float:
    """Effective angular momentum q + |k + mu0| of a random state."""
    mu0, k = _flux(rng, k_max)
    return round(rng.randint(0, q_max) + abs(k + mu0), 6)


# potential families of the closed-form grid: (family, lam, nu, radius)
def _potential(rng: random.Random, family: str) -> tuple[str, float, float, float]:
    if family == "coulomb":
        return family, -round(rng.uniform(0.5, 2.0), 6), -1.0, 1.0
    if family == "neg":
        return family, -round(rng.uniform(0.5, 2.0), 6), round(rng.uniform(-1.7, -0.1), 6), 1.0
    if family == "pos":
        nu = _log_uniform(rng, 0.2, 40.0)
        if abs(nu - 2.0) < 0.05:  # the finite-difference tendency report needs distance from nu = 2
            nu += 0.1
        return family, round(rng.uniform(0.5, 2.0), 6), round(nu, 6), 1.0
    if family == "oscillator":
        return family, round(rng.uniform(0.5, 2.0), 6), 2.0, 1.0
    if family == "linear":
        return family, round(rng.uniform(0.5, 2.0), 6), 1.0, 1.0
    if family == "well":
        return family, 0.0, math.inf, round(rng.uniform(0.5, 2.0), 6)
    raise ValueError(family)


_UNITS = {
    "coulomb": ("reduced", "fig2a", "fig2b"),
    "neg": ("reduced", "fig2a", "fig2b"),
    "pos": ("reduced", "fig2a", "fig2b", "fig2c"),
    "oscillator": ("reduced", "fig2c"),
    "linear": ("reduced", "fig2b", "fig2c"),
    "well": ("reduced", "fig1", "fig2d"),
}
_FAMILIES = tuple(_UNITS)


# ---------------------------------------------------------------------------
# grid_cli: abwkb.cli.main on spectrum and tendency commands
# ---------------------------------------------------------------------------


def _grid_shape(rng: random.Random, rows: int, k_sweep: bool) -> tuple[int, int, int]:
    """(n_max, q_max, k count) whose product is close to `rows`."""
    nk = rng.choice((1, 1, 2, 3, 5, 10)) if k_sweep and rows >= 20 else 1
    side = max(1, round(math.sqrt(rows / nk)))
    n_count = max(1, round(side * rng.uniform(0.7, 1.4)))
    q_count = max(1, round(rows / (nk * n_count)))
    return n_count - 1, q_count - 1, nk


def _cli_op(
    rng: random.Random,
    cls: str | None,
    command: str,
    family: str,
    rows: int,
    fmt: str,
    svg: bool = False,
    units: str | None = "random",
    nu: float | None = None,
    edge: bool = False,
) -> Op:
    """units: a preset name, None for the command's default, or "random"."""
    family, lam, nu0, radius = _potential(rng, family)
    mu0, k = _flux(rng)
    n_max, q_max, nk = _grid_shape(rng, rows, command == "spectrum")
    params = {
        "command": command,
        "family": family,
        "lam": lam,
        "nu": nu0 if nu is None else nu,
        "radius": radius,
        "mu0": mu0,
        "n_max": n_max,
        "q_max": q_max,
        "k_range": (k, k + nk - 1) if command == "spectrum" else (k, k),
        "units": rng.choice(_UNITS[family]) if units == "random" else units,
        "format": fmt,
        "svg": svg,
    }
    return Op("cli", cls, edge, params)


def cli_argv(params: dict, svg_path: str) -> list[str]:
    """Command line for a cli op; tendency without --units uses its
    exponent's default preset."""
    p = params
    nu = "inf" if p["nu"] == math.inf else repr(p["nu"])
    argv = [p["command"], "--nu", nu]
    if p["nu"] == math.inf:
        argv += ["--radius", repr(p["radius"])]
    else:
        argv += ["--lambda", repr(p["lam"])]
    argv += ["--mu0", repr(p["mu0"]), "--n-max", str(p["n_max"]), "--q-max", str(p["q_max"])]
    k_lo, k_hi = p["k_range"]
    if k_lo == k_hi:
        argv += ["--k", str(k_lo)] if k_lo >= 0 else [f"--k={k_lo}"]
    else:
        argv.append(f"--k-range={k_lo}..{k_hi}")
    if p["units"] is not None:
        argv += ["--units", p["units"]]
    argv += ["--format", p["format"]]
    if p["svg"]:
        argv += ["--svg", svg_path]
    return argv


def tendency_units(params: dict) -> str:
    """Preset the CLI applies to a tendency command."""
    if params["units"] is not None:
        return params["units"]
    return {-1.0: "fig2a", 1.0: "fig2b", 2.0: "fig2c", math.inf: "fig2d"}.get(params["nu"], "reduced")


def _grid_census(rng: random.Random) -> list[Op]:
    ops = [
        _cli_op(rng, None, "spectrum", "coulomb", 60, "csv", units="fig2a"),
        _cli_op(rng, None, "spectrum", "neg", 300, "json"),
        _cli_op(rng, None, "spectrum", "pos", 200, "csv", svg=True),
        _cli_op(rng, None, "spectrum", "oscillator", 150, "json", units="fig2c"),
        _cli_op(rng, None, "spectrum", "linear", 120, "csv", units="fig2b"),
        _cli_op(rng, None, "spectrum", "well", 80, "json", svg=True, units="fig1"),
        _cli_op(rng, None, "spectrum", "well", 90, "csv", units="fig2d"),
        _cli_op(rng, None, "spectrum", "pos", 5000, "csv"),
        _cli_op(rng, None, "tendency", "coulomb", 36, "json", units=None),
        _cli_op(rng, None, "tendency", "linear", 30, "csv", svg=True, units=None),
        _cli_op(rng, None, "tendency", "oscillator", 42, "json", units=None),
        _cli_op(rng, None, "tendency", "well", 25, "csv", units=None),
        _cli_op(rng, None, "tendency", "neg", 40, "json"),
        _cli_op(rng, None, "tendency", "pos", 40, "csv", svg=True),
    ]
    # the largest grid of the workload, fixed and not drawn, so that peak
    # memory does not depend on the seed and max_rel_err has a floor that
    # does not either (its 1e5 printed energies round by up to 4.7e-12)
    ops.append(Op("cli", None, False, {
        "command": "spectrum", "family": "pos", "lam": 1.0, "nu": 3.0, "radius": 1.0, "mu0": 0.3,
        "n_max": 99, "q_max": 99, "k_range": (-2, 7), "units": "reduced", "format": "json", "svg": False,
    }))
    # known defects: as nu -> -2 the finite-difference slope ratios of the
    # tendency report drift past 1e-5 (nu < -1.98), then its curvature
    # self-check raises ArithmeticError or the grid overflows; as nu -> 0-
    # Gamma(1 - 1/nu) overflows
    ops.append(_cli_op(rng, None, "tendency", "neg", 20, "json", nu=round(rng.uniform(-1.995, -1.99), 6), edge=True))
    for _ in range(2):
        ops.append(_cli_op(rng, None, "tendency", "neg", 20, "json", nu=round(rng.uniform(-1.9999, -1.999), 7), edge=True))
    ops.append(_cli_op(rng, None, "spectrum", "neg", 40, "csv", nu=round(rng.uniform(-0.0015, -0.0006), 7), edge=True))
    ops.append(_cli_op(rng, None, "tendency", "neg", 20, "csv", nu=round(rng.uniform(-0.0015, -0.0006), 7), edge=True))
    return ops


# (command, rows, format, --svg) of the small commands
_SMALL_SHAPES = (
    ("spectrum", 12, "csv", False),
    ("tendency", 30, "json", False),
    ("spectrum", 80, "json", True),
    ("spectrum", 200, "csv", False),
    ("tendency", 500, "csv", True),
    ("spectrum", 1200, "json", False),
)
_LARGE_FAMILIES = ("neg", "pos", "coulomb", "well")
_LARGE_ROWS = 10_000


def _grid_round(rng: random.Random) -> list[Op]:
    # Every stratum holds one command shape and one potential family, so
    # its ops cost about the same and its median settles within a run:
    # light, every small shape with every family (per-command overhead);
    # heavy, a large JSON grid per large family (per-row cost); bulk, a
    # large CSV grid per large family (counted in items_per_ref only, so
    # the heavy figure is not split between formats)
    ops = []
    for command, rows, fmt, svg in _SMALL_SHAPES:
        for family in _FAMILIES:
            units = rng.choice((None,) + _UNITS[family]) if command == "tendency" else "random"
            size = max(4, round(rows * rng.uniform(0.9, 1.1)))
            ops.append(_cli_op(rng, "light", command, family, size, fmt, svg=svg, units=units))
    for cls, fmt in (("heavy", "json"), ("bulk", "csv")):
        for family in _LARGE_FAMILIES:
            ops.append(_cli_op(rng, cls, "spectrum", family, round(_LARGE_ROWS * rng.uniform(0.95, 1.05)), fmt))
    return ops


# ---------------------------------------------------------------------------
# wkb_roots: quantize_energy levels and well_exact_spectrum calls
# ---------------------------------------------------------------------------


def _quantize_op(rng: random.Random, cls: str | None, family: str, nu: float | None = None,
                 edge: bool = False) -> Op:
    family, lam, nu0, radius = _potential(rng, family)
    params = {
        "family": family,
        "lam": lam,
        "nu": nu0 if nu is None else nu,
        "radius": radius,
        "gamma": _gamma(rng, 3),
        "n": rng.randint(0, 5),
    }
    return Op("quantize", cls, edge, params)


def _well_op(rng: random.Random, cls: str | None, gamma: float, count: int) -> Op:
    return Op("well", cls, False, {"gamma": gamma, "count": count})


# exponent strata of the regular quantize domain, where the action
# quadrature agrees with the closed form to ~1e-11
_NEG_BINS = ((-1.8, -1.5), (-1.5, -1.2), (-1.2, -0.9), (-0.9, -0.6), (-0.6, -0.3), (-0.3, -0.02))
_POS_BINS = ((0.05, 0.2), (0.2, 0.6), (0.6, 1.5), (1.5, 3.0), (3.0, 7.0), (7.0, 15.0), (15.0, 40.0), (40.0, 100.0))


def _wkb_census(rng: random.Random) -> list[Op]:
    ops = [
        # fixed anchors: the largest quantize-vs-closed-form errors seen
        # on the regular domain sit near nu = -0.5 and nu = 1
        Op("quantize", None, False, {"family": "coulomb", "lam": -1.0, "nu": -1.0, "radius": 1.0, "gamma": 0.0, "n": 0}),
        Op("quantize", None, False, {"family": "neg", "lam": -1.0, "nu": -0.5, "radius": 1.0, "gamma": 0.0, "n": 0}),
        Op("quantize", None, False, {"family": "linear", "lam": 1.0, "nu": 1.0, "radius": 1.0, "gamma": 0.0, "n": 0}),
        Op("quantize", None, False, {"family": "oscillator", "lam": 1.0, "nu": 2.0, "radius": 1.0, "gamma": 0.5, "n": 1}),
        Op("quantize", None, False, {"family": "well", "lam": 0.0, "nu": math.inf, "radius": 1.0, "gamma": 0.0, "n": 0}),
    ]
    for lo, hi in ((-1.8, -1.2), (-1.2, -0.6), (-0.6, -0.02)):
        ops.append(_quantize_op(rng, None, "neg", nu=round(rng.uniform(lo, hi), 6)))
    for lo, hi in ((0.05, 1.0), (1.0, 10.0), (10.0, 100.0)):
        ops.append(_quantize_op(rng, None, "pos", nu=round(_log_uniform(rng, lo, hi), 6)))
    ops.append(_quantize_op(rng, None, "well"))
    ops += [
        _well_op(rng, None, 0.0, 10),
        _well_op(rng, None, 0.5, 5),
        _well_op(rng, None, 1.5, 5),
        _well_op(rng, None, float(rng.randint(2, 20)), rng.randint(5, 20)),
        _well_op(rng, None, _gamma(rng, 15), rng.randint(5, 20)),
    ]
    # known defect: the action quadrature cuts the integrand off near the
    # origin, so quantize drifts from the closed form as nu -> -2 (1e-9 at
    # -1.87, 5e-3 at -1.95, 100% or an exception beyond -1.99)
    for lo, hi in ((-1.999, -1.99), (-1.99, -1.95), (-1.95, -1.9), (-1.9, -1.87)):
        ops.append(_quantize_op(rng, None, "neg", nu=round(rng.uniform(lo, hi), 6), edge=True))
    ops.append(_quantize_op(rng, None, "neg", nu=round(rng.uniform(-1.999, -1.87), 6), edge=True))
    ops.append(_quantize_op(rng, None, "neg", nu=round(rng.uniform(-1.999, -1.87), 6), edge=True))
    return ops


def _wkb_round(rng: random.Random) -> list[Op]:
    ops = [_quantize_op(rng, "light", "neg", nu=round(rng.uniform(lo, hi), 6)) for lo, hi in _NEG_BINS]
    ops += [_quantize_op(rng, "light", "pos", nu=round(_log_uniform(rng, lo, hi), 6)) for lo, hi in _POS_BINS]
    ops += [_quantize_op(rng, "light", family) for family in ("coulomb", "oscillator", "linear", "well", "well")]
    # well calls alternate integer gamma (checked against j_gamma) and flux
    # values (index-checked only), gamma up to ~20
    for g_lo, g_hi in ((0, 6), (7, 13), (14, 20)):
        if rng.random() < 0.75:
            gamma = float(rng.randint(g_lo, g_hi))
        else:
            gamma = round(rng.uniform(g_lo, g_hi), 6)
        ops.append(_well_op(rng, "heavy", gamma, rng.randint(4, 12)))
    return ops


# ---------------------------------------------------------------------------
# shoot_oracle: shoot_eigenvalue on tail (lam < 0) and confined (lam > 0) states
# ---------------------------------------------------------------------------


def _shoot_op(cls: str | None, lam: float, nu: float, gamma: float, n: int, ref: str = "none",
              edge: bool = False) -> Op:
    return Op("shoot", cls, edge, {"lam": lam, "nu": nu, "gamma": gamma, "n": n, "ref": ref})


def _tail_state(family: str, n: int, q: int, u: tuple[float, float]) -> Op:
    # n and q are fixed per stratum because they set the grid length, so
    # every seed gets the same cost mixture; each stratum is bounded to
    # states of moderate |E| so one solve stays within ~0.3-1.5 s on the
    # uniform Numerov grid.  Below nu = -1.45 solves get slower (up to
    # 14 s at nu = -1.7) and below -1.55 the closed form leaves the
    # plausibility band, so no timed stratum goes there.  u in [0, 1)^2
    # places gamma and nu inside the stratum.
    gamma = round(q + 0.05 + 0.9 * u[0], 6)  # q + |k + mu0| with k = 0
    if family == "coulomb":
        return _shoot_op("heavy", -1.0, -1.0, gamma, n, "coulomb")
    lo, hi = (-1.45, -1.1) if family == "strong" else (-0.95, -0.8)
    return _shoot_op("heavy", -1.0, round(lo + (hi - lo) * u[1], 6), gamma, n)


def _confined_state(rng: random.Random, stratum: int) -> Op:
    if stratum == 0:
        return _shoot_op("light", round(rng.uniform(0.5, 3.0), 6), 2.0, _gamma(rng, 3), rng.randint(0, 4), "oscillator")
    if stratum == 1:
        return _shoot_op("light", 1.0, 1.0, 0.0, rng.randint(0, 4), "airy")
    if stratum == 2:
        return _shoot_op("light", 1.0, 1.0, _gamma(rng, 3), rng.randint(0, 4))
    lo, hi = ((0.2, 0.9), (1.2, 4.0), (4.0, 12.0))[stratum - 3]
    return _shoot_op("light", 1.0, round(rng.uniform(lo, hi), 6), _gamma(rng, 3), rng.randint(0, 3))


def _shoot_census(rng: random.Random) -> list[Op]:
    ops = [
        # fixed anchor: Coulomb g = 0, n = 0 has the largest shooting error
        # of the exactly solvable states
        _shoot_op(None, -1.0, -1.0, 0.0, 0, "coulomb"),
        _shoot_op(None, 1.0, 2.0, 0.0, 0, "oscillator"),
        _shoot_op(None, 1.0, 1.0, 0.0, 0, "airy"),
        _shoot_op(None, -round(rng.uniform(0.5, 2.0), 6), -1.0, _gamma(rng, 1, k_max=0), rng.randint(0, 2), "coulomb"),
        _shoot_op(None, round(rng.uniform(0.5, 3.0), 6), 2.0, _gamma(rng, 3), rng.randint(0, 4), "oscillator"),
    ]
    # known defects: for -0.6 < nu < 0 the uniform grid needs more points
    # than the cap (ConvergenceError); near nu = -1.8 the solver returns a
    # wrong level that only the closed-form plausibility band catches
    for lo, hi in ((-0.6, -0.45), (-0.45, -0.3), (-0.3, -0.2)):
        ops.append(_shoot_op(None, -1.0, round(rng.uniform(lo, hi), 6), _gamma(rng, 1, k_max=0), rng.randint(0, 1), edge=True))
    # (below gamma ~ 0.15 the wrong level happens to land near the closed form)
    ops.append(_shoot_op(None, -1.0, round(rng.uniform(-1.82, -1.79), 6), round(rng.uniform(0.25, 0.5), 6), 0, edge=True))
    return ops


# (family, n, q) of the tail strata
_TAIL_STRATA = (("coulomb", 0, 0), ("coulomb", 1, 1), ("strong", 0, 1), ("strong", 1, 0), ("weak", 0, 0), ("weak", 1, 1))
_CONFINED_STRATA = (0, 1, 2, 3, 4, 5)
# a confined solve costs ~1/10 of a tail solve; drawing each confined
# stratum this many times per round gives its median ~150 samples a run
# instead of ~40, while every stratum of each class keeps an equal count
_CONFINED_REPEATS = 4


# steps of the R2 low-discrepancy sequence (1/g and 1/g^2, g the plastic number)
_R2 = (0.7548776662466927, 0.5698402909980532)


def _shoot_rounds(rng: random.Random) -> Iterator[list[Op]]:
    # A tail solve costs up to 4x more at one end of its stratum than at
    # the other, and a run holds only ~7 rounds.  Independent draws would
    # leave each stratum's median to chance; the R2 sequence from a seeded
    # phase spreads a stratum's draws evenly over it in every run.
    phase = (rng.random(), rng.random())
    for i in itertools.count():
        tails = []
        for k, stratum in enumerate(_TAIL_STRATA):
            shift = k / len(_TAIL_STRATA)
            u = ((phase[0] + shift + i * _R2[0]) % 1.0, (phase[1] + shift + i * _R2[1]) % 1.0)
            tails.append(_tail_state(*stratum, u))
        confined = [_confined_state(rng, s) for s in _CONFINED_STRATA for _ in range(_CONFINED_REPEATS)]
        yield tails + confined


def _each_round(make_round):
    """Endless rounds, each drawn afresh by make_round(rng)."""

    def endless(rng: random.Random) -> Iterator[list[Op]]:
        while True:
            yield make_round(rng)

    return endless


_CENSUS = {"grid_cli": _grid_census, "wkb_roots": _wkb_census, "shoot_oracle": _shoot_census}
_ROUNDS = {"grid_cli": _each_round(_grid_round), "wkb_roots": _each_round(_wkb_round), "shoot_oracle": _shoot_rounds}
