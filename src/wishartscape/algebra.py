"""Sector-decomposed model data and spectral bookkeeping.

A model is a direct sum of simple sectors.  Each sector is the Hermitian
matrix algebra of some dimension over one of the three associative division
algebras (real, complex, quaternion, addressed by beta in {1, 2, 4}), embedded
into the ambient space with an integer-like index multiplying its trace.

All analytic and sampling operations zero-shift each observable spectrum so
its smallest eigenvalue sits at 0, and quantities derived from the observable
(mean, dispersion, degrees of freedom) refer to that shifted spectrum unless
the shift is explicitly disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .errors import (
    BasisValidationError,
    DegenerateElementError,
    DegenerateObservableError,
    ValidationError,
)

__all__ = [
    "FieldTag",
    "FIELD_R",
    "FIELD_C",
    "FIELD_H",
    "field_from_symbol",
    "SimpleComponent",
    "SectorModel",
    "SpectralStats",
    "spectral_stats",
    "dim_automorphism",
    "purity",
    "index_constant",
    "project_into_component",
    "spin_factor_reduce",
]


@dataclass(frozen=True)
class FieldTag:
    """Which division algebra a sector is built over; beta in {1, 2, 4}."""

    beta: int

    def __post_init__(self):
        if self.beta not in (1, 2, 4):
            raise ValidationError(f"beta must be 1, 2 or 4, got {self.beta!r}")

    @property
    def symbol(self) -> str:
        return {1: "R", 2: "C", 4: "H"}[self.beta]

    def __repr__(self) -> str:
        return f"FieldTag({self.symbol})"


FIELD_R = FieldTag(1)
FIELD_C = FieldTag(2)
FIELD_H = FieldTag(4)

_SYMBOLS = {"R": FIELD_R, "C": FIELD_C, "H": FIELD_H}


def field_from_symbol(symbol: str) -> FieldTag:
    if not isinstance(symbol, str) or symbol not in _SYMBOLS:
        raise ValidationError(
            f"field symbol must be one of 'R', 'C', 'H', got {symbol!r}"
        )
    return _SYMBOLS[symbol]


def _checked(name: str, value, ok, rule: str):
    """value when ok(value) holds; for anything else, non-numbers included, a
    ValidationError saying that name must be rule (built only then)."""
    try:
        good = not isinstance(value, (str, bool)) and bool(ok(value))
    except (TypeError, ValueError, OverflowError):
        good = False
    if not good:
        raise ValidationError(f"{name} must be {rule}, got {value!r}")
    return value


def positive_int(name: str, value) -> int:
    """value as an int when it is a whole number >= 1, by _checked's rule."""
    if type(value) is int and value >= 1:  # plain ints, the common case, skip the rule
        return value
    return int(_checked(name, value, lambda v: int(v) == v >= 1, "a positive integer"))


def _spectrum(name: str, values, dim: int) -> np.ndarray:
    """values flattened to dim finite floats, in the order given."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size != dim:
        raise ValidationError(f"{name} must hold {dim} values, got {arr.size}")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValidationError(f"{name} entry {bad[0]} is {arr[bad[0]]}, not a finite number")
    return arr


def beta_of(field) -> int:
    if isinstance(field, FieldTag):
        return field.beta
    if field in (1, 2, 4):
        return int(field)
    raise ValidationError(f"expected a FieldTag or beta in {{1,2,4}}, got {field!r}")


@dataclass(frozen=True)
class SimpleComponent:
    """One simple sector: spectra of the observable and input restrictions.

    observable_spectrum is stored sorted ascending, input_spectrum sorted
    descending (largest weight first); both orderings are conventions only,
    every formula is permutation invariant.  index scales the defining trace
    up to the ambient one.
    """

    field: FieldTag
    dim: int
    index: float
    observable_spectrum: np.ndarray = dc_field(repr=False)
    input_spectrum: np.ndarray = dc_field(repr=False)
    sector_params: int = 0

    def __post_init__(self):
        if not isinstance(self.field, FieldTag):
            object.__setattr__(self, "field", FieldTag(beta_of(self.field)))
        object.__setattr__(self, "dim", positive_int("dim", self.dim))
        object.__setattr__(self, "index", float(_checked(
            "index", self.index, lambda v: np.isfinite(v) and v >= 1, "a finite number >= 1")))
        obs = np.sort(_spectrum("observable_spectrum", self.observable_spectrum, self.dim))
        inp = np.sort(_spectrum("input_spectrum", self.input_spectrum, self.dim))[::-1]
        if np.any(inp < 0.0) or not np.any(inp > 0.0):
            raise ValidationError("input_spectrum must be nonnegative with positive trace")
        object.__setattr__(self, "sector_params", int(_checked(
            "sector_params", self.sector_params, lambda v: int(v) == v >= 0,
            "a nonnegative integer")))
        obs.setflags(write=False)
        inp.setflags(write=False)
        object.__setattr__(self, "observable_spectrum", obs)
        object.__setattr__(self, "input_spectrum", inp)

    @property
    def beta(self) -> int:
        return self.field.beta

    @property
    def input_trace(self) -> float:
        """Defining-representation trace of the input state restriction."""
        return float(np.sum(self.input_spectrum))

    @property
    def input_purity(self) -> float:
        return purity(self.input_spectrum)

    def is_rank_one_input(self) -> bool:
        return int(np.count_nonzero(self.input_spectrum)) == 1

    @cached_property
    def _shifted_stats(self) -> "SpectralStats":
        # the spectrum is read-only, so its zero-shifted summary is computed
        # once; a constant spectrum raises here and is never cached
        return _summarize(self.observable_spectrum, shift=True)


@dataclass(frozen=True)
class SectorModel:
    """A direct sum of simple sectors plus the global parameter count."""

    components: tuple[SimpleComponent, ...]
    total_params: int
    normalization: float = 1.0

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValidationError("a model needs at least one component")
        if any(not isinstance(c, SimpleComponent) for c in comps):
            raise ValidationError("components must be SimpleComponent instances")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "total_params", positive_int("total_params", self.total_params))
        sector_sum = sum(c.sector_params for c in comps)
        if sector_sum > self.total_params:
            raise ValidationError(
                f"sector parameter counts sum to {sector_sum}, exceeding "
                f"total_params {self.total_params}"
            )
        object.__setattr__(self, "normalization", float(_checked(
            "normalization", self.normalization, lambda v: np.isfinite(v) and v > 0,
            "a positive float")))


@dataclass(frozen=True)
class SpectralStats:
    """Summary statistics of an observable spectrum.

    dof_real is the exact trace-squared over trace-of-square ratio; dof is
    its round-half-to-even integer, used only when a sampler needs an integer
    degrees-of-freedom count.  floor is the shift that was subtracted.
    """

    mean_eig: float
    std_eig: float
    trace: float
    trace_sq: float
    dof_real: float
    dof: int
    floor: float


def spectral_stats(spectrum, *, shift: bool = True) -> SpectralStats:
    """Spectral summary after the zero-shift (disable with shift=False).

    A spectrum that is constant (so the shifted spectrum vanishes) carries no
    usable dispersion and raises DegenerateObservableError.  With shift=False
    the caller asserts the spectrum is already anchored; flat spectra are then
    legal and give dof_real = dim.  A SimpleComponent keeps its zero-shifted
    summary after the first call.
    """
    if isinstance(spectrum, SimpleComponent):
        if shift:
            return spectrum._shifted_stats
        spectrum = spectrum.observable_spectrum
    return _summarize(spectrum, shift=shift)


def _summarize(spectrum, *, shift: bool) -> SpectralStats:
    eigs = np.asarray(spectrum, dtype=float).ravel()
    if eigs.size == 0 or not np.all(np.isfinite(eigs)):
        raise ValidationError("spectrum must be a nonempty finite array")
    floor = float(np.min(eigs)) if shift else 0.0
    shifted = eigs - floor
    trace = float(np.sum(shifted))
    trace_sq = float(np.sum(shifted * shifted))
    if trace_sq <= 0.0:
        raise DegenerateObservableError(
            "observable spectrum is constant after zero-shifting; "
            "its fluctuation statistics are undefined"
        )
    n = eigs.size
    mean = trace / n
    var = trace_sq / n - mean * mean
    std = float(np.sqrt(max(var, 0.0)))
    dof_real = trace * trace / trace_sq
    return SpectralStats(
        mean_eig=mean,
        std_eig=std,
        trace=trace,
        trace_sq=trace_sq,
        dof_real=float(dof_real),
        dof=int(np.rint(dof_real)),
        floor=floor,
    )


def dim_automorphism(field, dim: int) -> int:
    """Real dimension of the automorphism-group manifold of a simple sector.

    (beta - 1) N + beta N (N - 1) / 2: so(N) for beta=1, u(N)'s N^2 for
    beta=2 and sp(N) for beta=4.
    """
    beta = beta_of(field)
    n = int(dim)
    if n < 1:
        raise ValidationError(f"dim must be positive, got {dim!r}")
    return (beta - 1) * n + beta * (n * (n - 1)) // 2


def purity(spectrum) -> float:
    """Sum of squared weights over squared total weight; 1 iff rank one."""
    eigs = np.asarray(spectrum, dtype=float).ravel()
    total = float(np.sum(eigs))
    if eigs.size == 0 or not np.all(np.isfinite(eigs)) or np.any(eigs < 0) or total <= 0:
        raise ValidationError("spectrum must be nonnegative with positive trace")
    return float(np.sum(eigs * eigs) / (total * total))


def index_constant(ambient_trace: float, defining_trace: float) -> float:
    """Ratio scaling the defining trace to the ambient one for a test element."""
    ambient_trace = float(ambient_trace)
    defining_trace = float(defining_trace)
    if defining_trace == 0.0:
        raise DegenerateElementError(
            "defining trace of the test element vanishes; index is undefined"
        )
    return ambient_trace / defining_trace


def _pairing(a: np.ndarray, b: np.ndarray) -> float:
    """Real trace pairing Re tr(a^dagger b) = Re sum conj(a) b over the stored
    entries, which holds for the real, complex and quaternion layouts alike."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch in pairing: {a.shape} vs {b.shape}")
    return float(np.real(np.vdot(a, b)))


def project_into_component(matrix: np.ndarray, basis) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and reconstruction of matrix in an orthonormal basis.

    The basis must be orthonormal under the real trace pairing to within
    1e-10; anything worse raises BasisValidationError rather than silently
    returning coefficients in a skewed frame.
    """
    basis = [np.asarray(b) for b in basis]
    if not basis:
        raise BasisValidationError("basis is empty")
    k = len(basis)
    gram = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            gram[i, j] = gram[j, i] = _pairing(basis[i], basis[j])
    if np.max(np.abs(gram - np.eye(k))) > 1e-10:
        raise BasisValidationError(
            f"basis fails orthonormality by {np.max(np.abs(gram - np.eye(k))):.3e}"
        )
    matrix = np.asarray(matrix)
    coeffs = np.array([_pairing(b, matrix) for b in basis])
    projected = np.zeros_like(np.asarray(basis[0], dtype=np.result_type(*basis, matrix)))
    for c, b in zip(coeffs, basis):
        projected = projected + c * b
    return coeffs, projected


def spin_factor_reduce(input_spectrum, observable_spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic-form sector reduced to a real sector of squared dimension.

    The reduced input and observable spectra are all pairwise products of the
    original eigenvalue lists (a tensor square), each returned sorted.
    """
    rho = np.asarray(input_spectrum, dtype=float).ravel()
    obs = np.asarray(observable_spectrum, dtype=float).ravel()
    if rho.size == 0 or obs.size == 0:
        raise ValidationError("spectra must be nonempty")
    if rho.size != obs.size:
        raise ValidationError(
            f"input and observable spectra differ in length: {rho.size} vs {obs.size}"
        )
    rho_red = np.sort(np.outer(rho, rho).ravel())
    obs_red = np.sort(np.outer(obs, obs).ravel())
    return rho_red, obs_red
