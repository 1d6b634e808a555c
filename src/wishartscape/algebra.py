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

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .errors import DegenerateObservableError, ValidationError

__all__ = [
    "BETAS",
    "beta_of",
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
]


BETAS = (1, 2, 4)


def _checked(name: str, value, ok, rule: str):
    """value when ok(value) holds; for anything else, non-numbers included, a
    ValidationError saying that name must be rule (built only then)."""
    try:
        good = not isinstance(value, (str, bool, np.bool_)) and bool(ok(value))
    except (TypeError, ValueError, OverflowError):
        good = False
    if not good:
        raise ValidationError(f"{name} must be {rule}, got {value!r}")
    return value


# The argument rules for every number, count and real array read from a caller.  A refusal
# says "{name} must be {rule}, got {value!r}", or names a vector's non-finite entry.

def _count_rule(low: int, rule: str):
    """A check giving a whole number >= low (a whole float too) as an int."""
    def check(name: str, value) -> int:
        if type(value) is int and value >= low:  # plain ints, the common case
            return value
        return int(_checked(name, value, lambda v: int(v) == v >= low, rule))
    return check


def _float_rule(ok, rule: str):
    """A check giving a number x with ok(float(x)) as a float."""
    def check(name: str, value) -> float:
        if type(value) is float and ok(value):  # plain floats, the common case
            return value
        return float(_checked(name, value, lambda v: ok(float(v)), rule))
    return check


positive_int = _count_rule(1, "a positive integer")
nonnegative_int = _count_rule(0, "a nonnegative integer")
positive_float = _float_rule(lambda v: math.isfinite(v) and v > 0, "a positive float")
positive = _float_rule(lambda v: v > 0, "positive (inf allowed)")
nonnegative = _float_rule(lambda v: v >= 0, "nonnegative (inf allowed)")
index_float = _float_rule(lambda v: math.isfinite(v) and v >= 1, "a finite number >= 1")
finite_float = _float_rule(math.isfinite, "a finite number")
_FLOAT = np.dtype(float)
_TINY = 2.2250738585072014e-308  # sys.float_info.min, the smallest normal float


def _floats(values) -> np.ndarray | None:
    """values as a float array of its own shape; None for a non-number."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError):
        return None
    return arr.astype(float, copy=False) if arr.dtype.kind in "iuf" else None


def real_array(name: str, values) -> np.ndarray:
    """values as a float array of the shape given, NaN and inf kept (grids)."""
    arr = _floats(values)
    if arr is None:
        raise ValidationError(f"{name} must be a real array, got {values!r}")
    return arr


def _vector_rule(kind: str, ok=lambda entries: True):
    """A check giving values flattened to size floats (at least one when size
    is None), in the order given, all finite and ok on the list of them."""
    def check(name: str, values, size: int | None = None) -> np.ndarray:
        fast = type(values) is np.ndarray and values.dtype is _FLOAT  # the common case
        arr = values if fast else _floats(values)
        if arr is not None and (arr.size == size if size is not None else arr.size):
            arr = arr.ravel()
            entries = arr.tolist()
            if all(map(math.isfinite, entries)) and ok(entries):
                return arr
            for i, v in enumerate(entries):
                if not math.isfinite(v):
                    raise ValidationError(f"{name} entry {i} is {v}, not a finite number")
        length = "nonempty" if size is None else f"length-{size}"
        raise ValidationError(f"{name} must be a {length} vector of {kind}, got {values!r}")
    return check


finite_vector = _vector_rule("finite numbers")
nonnegative_vector = _vector_rule("finite numbers >= 0",
                                  lambda entries: not entries or min(entries) >= 0.0)
weights = _vector_rule("finite numbers >= 0 with a positive sum",
                       lambda entries: bool(entries) and min(entries) >= 0.0 < max(entries))


def _object_rule(kind: type, rule: str):
    """A check giving value when it is a kind instance, a package object the
    library reads attributes of; anything else is refused by _checked."""
    def check(name: str, value):
        if type(value) is kind:  # the common case
            return value
        return _checked(name, value, lambda v: isinstance(v, kind), rule)
    return check


def _sequence_rule(kind: type, rule: str):
    """A check giving a sequence of kind instances as a tuple."""
    def check(name: str, values) -> tuple:
        items = tuple(values) if np.iterable(values) else None
        _checked(name, values,
                 lambda v: items is not None and all(isinstance(x, kind) for x in items), rule)
        return items
    return check


def beta_of(field) -> int:
    """beta of a FieldTag, or of 1, 2 or 4 given as a number, as an int; for
    anything else, by _checked's rule, a ValidationError naming beta."""
    if type(field) is int and field in BETAS:  # plain ints, the common case, skip the rule
        return field
    if isinstance(field, FieldTag):
        return field.beta
    return int(_checked("beta", field, lambda v: v in BETAS and int(v) == v,
                        "1, 2 or 4 or a FieldTag"))


@dataclass(frozen=True)
class FieldTag:
    """Which division algebra a sector is built over; beta in {1, 2, 4}."""

    beta: int

    def __post_init__(self):
        object.__setattr__(self, "beta", beta_of(self.beta))

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
            object.__setattr__(self, "field", FieldTag(self.field))
        object.__setattr__(self, "dim", positive_int("dim", self.dim))
        index = index_float("index", self.index)
        # the closed forms take the index up to its cube (gp_conditions)
        if not math.isfinite(index * index * index):
            raise ValidationError(f"index must be a number whose cube is finite, got {index!r}")
        object.__setattr__(self, "index", index)
        obs = np.sort(finite_vector("observable_spectrum", self.observable_spectrum, self.dim))
        inp = np.sort(weights("input_spectrum", self.input_spectrum, self.dim))[::-1]
        # and the input weights up to their cube, each at most the trace's; a
        # float sum, as it overflows to inf without a warning
        trace = sum(inp.tolist())
        if not math.isfinite(trace * trace * trace):
            raise ValidationError(
                f"input_spectrum must have a trace whose cube is finite, got {trace!r}")
        object.__setattr__(self, "sector_params",
                           nonnegative_int("sector_params", self.sector_params))
        obs.setflags(write=False)
        inp.setflags(write=False)
        object.__setattr__(self, "observable_spectrum", obs)
        object.__setattr__(self, "input_spectrum", inp)

    @cached_property
    def beta(self) -> int:
        # read once per call by every sampler and closed form; cached, a
        # read costs an attribute lookup, not a property call
        return self.field.beta

    @cached_property
    def input_trace(self) -> float:
        """Defining-representation trace of the input state restriction."""
        return float(np.sum(self.input_spectrum))

    @property
    def input_purity(self) -> float:
        return purity(self.input_spectrum)

    def is_rank_one_input(self) -> bool:
        # sorted descending with positive trace: rank one iff the second weight is 0
        return self.dim == 1 or not self.input_spectrum[1]

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
        comps = simple_components("components", self.components)
        if not comps:
            raise ValidationError("a model needs at least one component")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "total_params", positive_int("total_params", self.total_params))
        sector_sum = sum(c.sector_params for c in comps)
        if sector_sum > self.total_params:
            raise ValidationError(
                f"sector parameter counts sum to {sector_sum}, exceeding "
                f"total_params {self.total_params}"
            )
        object.__setattr__(self, "normalization",
                           positive_float("normalization", self.normalization))


simple_component = _object_rule(SimpleComponent, "a SimpleComponent")
simple_components = _sequence_rule(SimpleComponent, "SimpleComponent instances")
sector_model = _object_rule(SectorModel, "a SectorModel")
sector_models = _sequence_rule(SectorModel, "SectorModel instances")


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
    usable dispersion and raises DegenerateObservableError, as does one whose
    squared shifted values overflow or underflow the float range.  With shift=False
    the caller asserts the spectrum is already anchored; flat spectra are then
    legal and give dof_real = dim.  A SimpleComponent keeps its zero-shifted
    summary after the first call.
    """
    if isinstance(spectrum, SimpleComponent):
        if shift:
            return spectrum._shifted_stats
        spectrum = spectrum.observable_spectrum
    return _summarize(spectrum, shift=shift)


def _sector_law(comp: SimpleComponent, *, shift: bool = True) -> tuple[float, float]:
    """(mean, beta_dof): the mean loss I * obar * tr(rho) and beta * r, with r
    the exact degrees of freedom, of the sector's Wishart law.  Every closed
    form and surrogate reads its gamma shape beta_dof / 2, its scale
    mean * 2 / beta_dof and its parameter ratio p / beta_dof from here."""
    st = spectral_stats(comp, shift=shift)
    return comp.index * st.mean_eig * comp.input_trace, comp.beta * st.dof_real


def _summarize(spectrum, *, shift: bool) -> SpectralStats:
    eigs = finite_vector("spectrum", spectrum)
    floor = float(np.min(eigs)) if shift else 0.0
    # an overflow is refused below, by its cause, rather than warned about
    with np.errstate(over="ignore"):
        shifted = eigs - floor
        trace = float(np.sum(shifted))
        trace_sq = float(np.sum(shifted * shifted))
    if not (math.isfinite(trace * trace) and math.isfinite(trace_sq)):
        raise DegenerateObservableError(
            "observable spectrum spans too wide a range: the squares of its "
            "zero-shifted values overflow the float range"
        )
    if trace_sq < _TINY:
        if np.any(shifted):
            raise DegenerateObservableError(
                "observable spectrum spans too narrow a range: the squares of "
                "its zero-shifted values underflow the float range"
            )
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
    beta, n = beta_of(field), positive_int("dim", dim)
    return (beta - 1) * n + beta * (n * (n - 1)) // 2


def purity(spectrum) -> float:
    """Sum of squared weights over squared total weight; 1 iff rank one.

    The weights are divided by the largest before they are squared or
    summed, so that neither the squares nor the sum leave the float range.
    """
    eigs = weights("spectrum", spectrum)
    w = eigs / np.max(eigs)
    return float(np.sum(w * w) / np.sum(w) ** 2)
