"""Run one benchmark operation against abwkb and check its result.

Only the call into the program is timed; building the reference and
checking happen outside the timed region.  An operation fails when it
raises, exits non-zero, or misses its check.
"""

from __future__ import annotations

import io
import json
import math
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import inputs
import reference

# relative tolerances, each a few times the worst error measured on the
# regular domain at the seed commit
ROW_TOL = 1e-11  # 12 printed significant digits: rounding <= 5e-12
QUANTIZE_TOL = 5e-11  # quantize vs closed form: <= 1e-11 for -1.8 <= nu, nu > 0
WELL_ZERO_TOL = 1e-10  # Bessel zeros: ~1e-13
SHOOT_EXACT_TOL = 2e-5  # default shooting grid: 4.9e-6 at Coulomb g = 0, n = 0
RATIO_TOL = 1e-5  # finite-difference slope ratios of the tendency report
# states without an exact level must land within this factor band of the
# paper's closed form; this catches gross failures only
PLAUSIBLE_BAND = (0.4, 2.5)

CSV_HEADER = "nu,lambda,mu0,n,q,k,gamma,energy,unit"


@dataclass
class Outcome:
    ok: bool
    seconds: float
    items: int = 0
    error: str | None = None
    rel_err: float | None = None
    bytes_out: int = 0
    digest: bytes = b""


class Executor:
    """Runs ops against the imported abwkb modules.

    ``full_check`` checks every row of a grid (the census) instead of a
    fixed sample of rows (the timed stream).
    """

    def __init__(self, modules: dict, svg_path: str):
        self.m = modules
        self.svg_path = svg_path
        self.tracer = None  # set by the traced run

    def run(self, op: inputs.Op, full_check: bool = False) -> Outcome:
        return getattr(self, "_run_" + op.kind)(op.params, full_check)

    # -- grid_cli ----------------------------------------------------------

    def _run_cli(self, p: dict, full_check: bool) -> Outcome:
        argv = inputs.cli_argv(p, self.svg_path)
        if p["svg"] and os.path.exists(self.svg_path):
            os.remove(self.svg_path)
        out, err = io.StringIO(), io.StringIO()
        main = self.m["cli"].main
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            if self.tracer is None:
                rc = _call_main(main, argv)
            else:
                with self.tracer.span("cli.main") as status:
                    rc = _call_main(main, argv)
                    status["ok"] = rc == 0
            seconds = time.perf_counter() - start
        text = out.getvalue()
        svg = b""
        if p["svg"] and os.path.exists(self.svg_path):
            with open(self.svg_path, "rb") as fh:
                svg = fh.read()
        data = text.encode()
        # the digest names the figure by a fixed path so it does not depend on the checkout
        key = " ".join(inputs.cli_argv(p, "figure.svg")).encode()
        result = Outcome(False, seconds, bytes_out=len(data) + len(svg), digest=key + b"\n" + data + svg)
        if self.tracer is not None:
            self.tracer.counts["cli.bytes_out"] += result.bytes_out
        if rc != 0:
            result.error = rc if isinstance(rc, str) else f"exit {rc}: {err.getvalue().strip()[:200]}"
            return result
        try:
            rows, rel = self._check_cli(p, text, err.getvalue(), full_check)
            if p["svg"] and not (svg.startswith(b"<svg") and svg.rstrip().endswith(b"</svg>")):
                raise CheckFailed("missing or malformed SVG")
        except (CheckFailed, ValueError, KeyError, IndexError, TypeError) as exc:  # malformed output fails the op
            result.error = f"{type(exc).__name__}: {exc}"
            return result
        result.ok, result.items, result.rel_err = True, rows, rel
        return result

    def _check_cli(self, p: dict, text: str, err_text: str, full_check: bool) -> tuple[int, float]:
        if p["command"] == "spectrum":
            units = p["units"]
            if p["format"] == "csv":
                rows = _csv_rows(text)
            else:
                if full_check and json.dumps(json.loads(text), indent=2) + "\n" != text:
                    raise CheckFailed("JSON output is not canonical")
                table = self.m["cli"].table_from_json(text)
                rows = [(r.n, r.q, r.k, r.gamma, r.energy) for r in table.rows]
                factor = reference.unit_factor(units, p["family"], p["lam"], p["radius"])
                if not _close(table.unit.factor, factor, ROW_TOL):
                    raise CheckFailed(f"unit factor {table.unit.factor} != {factor}")
        else:
            units = inputs.tendency_units(p)
            if p["format"] == "json":
                obj = json.loads(text)
                report = obj["report"]
                rows = [(r["n"], r["q"], r["k"], r["gamma"], r["energy"]) for r in obj["table"]["rows"]]
            else:
                report = json.loads(err_text)
                rows = _csv_rows(text)
            _check_report(p["nu"], report)
        return len(rows), _check_rows(p, units, rows, full_check)

    # -- wkb_roots ---------------------------------------------------------

    def _run_quantize(self, p: dict, full_check: bool) -> Outcome:
        m = self.m
        start = time.perf_counter()
        try:
            if p["family"] == "well":
                pot = m["model"].InfiniteWell(p["radius"])
            else:
                pot = m["model"].PowerLaw(p["lam"], p["nu"])
            energy = m["action"].quantize_energy(m["action"].QuantizationSetup(pot, p["gamma"]), p["n"])
        except Exception as exc:  # noqa: BLE001 - any raise is a counted failure
            return _raised(time.perf_counter() - start, exc, p)
        seconds = time.perf_counter() - start
        ref = reference.closed_form(p["family"], p["lam"], p["nu"], p["radius"], p["n"], p["gamma"])
        rel = abs(energy - ref) / abs(ref)
        result = Outcome(rel <= QUANTIZE_TOL, seconds, 1, rel_err=rel, digest=_digest_line(p, energy))
        if not result.ok:
            result.error = f"quantize {energy!r} vs closed form {ref!r} (rel {rel:.3g})"
        return result

    def _run_well(self, p: dict, full_check: bool) -> Outcome:
        start = time.perf_counter()
        try:
            levels = self.m["oracles"].well_exact_spectrum(p["gamma"], 1.0, p["count"])
        except Exception as exc:  # noqa: BLE001
            return _raised(time.perf_counter() - start, exc, p)
        seconds = time.perf_counter() - start
        digest = _digest_line(p, *levels)
        zeros = [math.pi * math.sqrt(e) for e in levels]
        if len(zeros) != p["count"] or not reference.well_zeros_plausible(p["gamma"], zeros):
            return Outcome(False, seconds, error=f"well zeros out of order or misplaced: {zeros[:3]}...", digest=digest)
        errors = [reference.well_zero_error(p["gamma"], m + 1, z) for m, z in enumerate(zeros)]
        errors = [e for e in errors if e is not None]
        rel = max(errors) if errors else None
        if rel is not None and rel > WELL_ZERO_TOL:
            return Outcome(False, seconds, error=f"well zero off by {rel:.3g}", rel_err=rel, digest=digest)
        return Outcome(True, seconds, len(levels), rel_err=rel, digest=digest)

    # -- shoot_oracle ------------------------------------------------------

    def _run_shoot(self, p: dict, full_check: bool) -> Outcome:
        m = self.m
        start = time.perf_counter()
        try:
            energy = m["oracles"].shoot_eigenvalue(m["model"].PowerLaw(p["lam"], p["nu"]), p["gamma"], p["n"])
        except Exception as exc:  # noqa: BLE001
            return _raised(time.perf_counter() - start, exc, p)
        seconds = time.perf_counter() - start
        digest = _digest_line(p, energy)
        exact = reference.exact_shoot_level(p["ref"], p["lam"], p["n"], p["gamma"])
        if exact is not None:
            rel = abs(energy - exact) / abs(exact)
            if rel > SHOOT_EXACT_TOL:
                return Outcome(False, seconds, error=f"shoot {energy!r} vs exact {exact!r} (rel {rel:.3g})", rel_err=rel, digest=digest)
            return Outcome(True, seconds, 1, rel_err=rel, digest=digest)
        closed = reference.closed_form("power", p["lam"], p["nu"], 1.0, p["n"], p["gamma"])
        ratio = energy / closed
        if not PLAUSIBLE_BAND[0] <= ratio <= PLAUSIBLE_BAND[1]:
            return Outcome(False, seconds, error=f"shoot {energy!r} is {ratio:.3g} x the closed form", digest=digest)
        return Outcome(True, seconds, 1, digest=digest)


class CheckFailed(Exception):
    pass


def _call_main(main, argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        return f"SystemExit {exc.code}"
    except Exception as exc:  # noqa: BLE001 - an uncaught exception is a failed command
        return f"{type(exc).__name__}: {exc}"


def _raised(seconds: float, exc: Exception, p: dict) -> Outcome:
    name = type(exc).__name__
    return Outcome(False, seconds, error=f"{name}: {exc}", digest=_digest_line(p) + name.encode() + b"\n")


def _digest_line(p: dict, *values: float) -> bytes:
    key = ",".join(f"{k}={p[k]!r}" for k in sorted(p))
    return (key + ":" + ",".join(f"{v:.12g}" for v in values) + "\n").encode()


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * abs(b)


def _csv_rows(text: str) -> list[tuple]:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise CheckFailed("missing CSV header")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        rows.append((int(f[3]), int(f[4]), int(f[5]), float(f[6]), float(f[7])))
    return rows


_ROW_SAMPLES = 9


def _check_rows(p: dict, units: str, rows: list[tuple], full_check: bool) -> float:
    """Row count, (n, q, k) order, gamma and energy of every row (census)
    or of nine rows spread over the table (stream); returns the largest
    relative energy error seen."""
    k_lo, k_hi = p["k_range"]
    nk, nq = k_hi - k_lo + 1, p["q_max"] + 1
    expected = (p["n_max"] + 1) * nq * nk
    if len(rows) != expected:
        raise CheckFailed(f"{len(rows)} rows, expected {expected}")
    factor = reference.unit_factor(units, p["family"], p["lam"], p["radius"])
    if full_check:
        indices = range(expected)
    else:
        indices = sorted({i * (expected - 1) // (_ROW_SAMPLES - 1) for i in range(_ROW_SAMPLES)})
    worst = 0.0
    for i in indices:
        n, q, k, gamma, energy = rows[i]
        want = (i // (nq * nk), (i // nk) % nq, k_lo + i % nk)
        if (n, q, k) != want:
            raise CheckFailed(f"row {i} is {(n, q, k)}, expected {want}")
        g = q + abs(k + p["mu0"])
        if not _close(gamma, g, ROW_TOL):
            raise CheckFailed(f"row {i}: gamma {gamma} != {g}")
        ref = reference.closed_form(p["family"], p["lam"], p["nu"], p["radius"], n, g) * factor
        rel = abs(energy - ref) / abs(ref)
        if rel > ROW_TOL:
            raise CheckFailed(f"row {i}: energy {energy!r} != {ref!r} (rel {rel:.3g})")
        worst = max(worst, rel)
    return worst


def _check_report(nu: float, report: dict) -> None:
    want_nu = "inf" if nu == math.inf else nu
    if report["nu"] != want_nu and not (nu != math.inf and _close(report["nu"], nu, ROW_TOL)):
        raise CheckFailed(f"report nu {report['nu']} != {nu}")
    if report["curvature"] != reference.curvature(nu):
        raise CheckFailed(f"curvature {report['curvature']} != {reference.curvature(nu)}")
    if list(report["first_derivative_signs"]) != ["+", "+", "+"]:
        raise CheckFailed(f"derivative signs {report['first_derivative_signs']}")
    for got, want in zip(report["ratios"], reference.slope_ratios(nu)):
        if not _close(got, want, RATIO_TOL):
            raise CheckFailed(f"slope ratios {report['ratios']} != {reference.slope_ratios(nu)}")
    if report["flux_slope_sign"] != reference.flux_slope_sign(nu):
        raise CheckFailed(f"flux slope sign {report['flux_slope_sign']} != {reference.flux_slope_sign(nu)}")
