"""Report records shared by the identity suites, the certifier, and the CLI.

An identity check compares a computed number against an expected one and
passes when either the absolute or the relative error is within tolerance.
Reports come in three forms:

- equality: IdentityReport(name, expected, computed, tolerance), one value
  or the worst pair of a family;
- bound: IdentityReport.bound(name, excess, tolerance), an inequality
  reported as expected 0 against its excess clipped at 0 from below;
- PSD: GramReport.psd_report, the bound whose excess is minus the smallest
  Gram eigenvalue.

A NaN never passes: its error is NaN (relative error inf against an
expected 0), the bound keeps a NaN excess, and GramReport.from_matrix
raises InputError on a non-finite matrix.

JSON serialization writes complex scalars as [re, im] pairs and booleans
under the key "pass"; numbers are rendered by json with repr-level
precision, CSV dumps use 17 significant digits.  _write_json holds the file
format (indent 2, a trailing newline, LF endings) for reports_to_json and
the command line's certify report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


def _err(expected, computed) -> tuple[float, float]:
    e = complex(expected)
    c = complex(computed)
    abs_error = abs(c - e)
    rel_error = abs_error / abs(e) if e != 0 else 0.0 if abs_error == 0 else float("inf")
    return abs_error, rel_error


def _jsonable(v):
    if isinstance(v, complex) or (isinstance(v, np.generic) and np.iscomplexobj(v)):
        z = complex(v)
        if z.imag == 0.0:
            return z.real
        return [z.real, z.imag]
    if isinstance(v, np.generic):
        return v.item()
    if isinstance(v, float) and not np.isfinite(v):
        # strict JSON has no Infinity / NaN literals
        return None
    return v


@dataclass(frozen=True)
class IdentityReport:
    identity_name: str
    expected: complex
    computed: complex
    tolerance: float
    notes: str = ""
    abs_error: float = field(init=False)
    rel_error: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        a, r = _err(self.expected, self.computed)
        object.__setattr__(self, "abs_error", a)
        object.__setattr__(self, "rel_error", r)
        object.__setattr__(self, "passed", bool(a <= self.tolerance or r <= self.tolerance))

    @classmethod
    def bound(cls, name: str, excess, tolerance: float, notes: str = "") -> "IdentityReport":
        """An inequality as a report: expected 0, computed the excess when it
        is positive and 0.0 otherwise; a NaN excess stays NaN and fails."""
        return cls(name, 0.0, 0.0 if excess <= 0.0 else excess, tolerance, notes=notes)

    def to_dict(self) -> dict:
        return {
            "identity_name": self.identity_name,
            "expected": _jsonable(self.expected),
            "computed": _jsonable(self.computed),
            "abs_error": self.abs_error,
            "rel_error": _jsonable(self.rel_error),
            "pass": self.passed,
            "tolerance": self.tolerance,
            "notes": self.notes,
        }

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"[{tag}] {self.identity_name}: abs_error={self.abs_error:.3e} "
            f"rel_error={self.rel_error:.3e} tol={self.tolerance:.1e}"
        )


def _sign_excess(values) -> tuple[float, float]:
    """(max(-min Re, max |Im|), max |value|): how far values are from real and
    nonnegative, and the scale that excess is judged against; a NaN stays NaN."""
    v = np.asarray(values, dtype=complex)
    return float(np.maximum(-np.min(v.real), np.max(np.abs(v.imag)))), float(np.max(np.abs(v)))


def _write_json(payload: dict, path: str | None) -> str:
    """The JSON text of payload, also written to path unless it is None."""
    text = json.dumps(payload, indent=2) + "\n"
    if path is not None:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    return text


def reports_to_json(reports, path: str | None = None, extra: dict | None = None) -> str:
    payload = {"reports": [r.to_dict() for r in reports]}
    if extra:
        payload.update(extra)
    payload["all_pass"] = all(r.passed for r in reports)
    return _write_json(payload, path)


@dataclass(frozen=True)
class GramReport:
    """Eigenvalue summary of a translation Gram matrix.

    psd / spd verdicts use a tolerance relative to the largest eigenvalue
    magnitude, so verdicts do not change when the matrix is rescaled; a zero
    matrix gets tolerance 0 (psd, not spd) unless quadrature_delta widens it.
    psd_report renders the psd verdict as an IdentityReport, the one form
    in which the suites and the closure checks report it.
    """

    matrix: np.ndarray
    hermitian_residual: float
    quadrature_delta: float
    min_eigenvalue: float
    max_eigenvalue: float
    tolerance: float
    psd: bool
    spd: bool
    notes: str = ""

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, quadrature_delta: float = 0.0) -> "GramReport":
        g = np.asarray(matrix, dtype=complex)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] == 0:
            raise InputError(f"gram matrix must be square and non-empty, got shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise InputError("gram matrix has non-finite entries")
        herm = 0.5 * (g + g.conj().T)
        residual = float(np.max(np.abs(g - herm)))
        eigs = np.linalg.eigvalsh(herm)
        lo = float(eigs[0])
        hi = float(eigs[-1])
        scale = max(abs(lo), abs(hi))
        tol = max(1e-8 * scale, quadrature_delta * g.shape[0])
        return cls(
            matrix=g,
            hermitian_residual=residual,
            quadrature_delta=quadrature_delta,
            min_eigenvalue=lo,
            max_eigenvalue=hi,
            tolerance=tol,
            psd=bool(lo >= -tol),
            spd=bool(lo > tol),
        )

    def psd_report(self, name: str, notes: str = "") -> IdentityReport:
        """PSD verdict as a report: computed is the negative part of the
        smallest eigenvalue, checked against this report's tolerance."""
        detail = (
            f"eigenvalues [{self.min_eigenvalue:.6e}, {self.max_eigenvalue:.6e}]; "
            f"hermitian residual {self.hermitian_residual:.3e}"
        )
        notes = (notes + "; " if notes else "") + detail
        return IdentityReport.bound(name, -self.min_eigenvalue, self.tolerance, notes)

    def to_dict(self) -> dict:
        return {
            "size": int(self.matrix.shape[0]),
            "hermitian_residual": self.hermitian_residual,
            "quadrature_delta": self.quadrature_delta,
            "min_eigenvalue": self.min_eigenvalue,
            "max_eigenvalue": self.max_eigenvalue,
            "tolerance": self.tolerance,
            "psd": self.psd,
            "spd": self.spd,
            "notes": self.notes,
        }
