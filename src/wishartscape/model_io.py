"""JSON model descriptions and the Pauli-string observable form they take.

Schema (one object):
    total_params   positive integer
    normalization  positive float, optional (default 1.0)
    components     list of sector objects:
        field                "R" | "C" | "H"
        dim                  positive integer
        index                number >= 1
        observable_spectrum  flat list of dim numbers, or {"pauli": [[coeff, word], ...]}
        input_spectrum       flat list of dim nonnegative numbers,
                             or {"pure": true, "trace": t} (trace optional, 1.0)
        sector_params        nonnegative integer, optional (default 0)

The counts (total_params, dim, sector_params) are JSON integers: a float
such as 4.0 is refused at its field.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import numpy as np

from .algebra import (SectorModel, SimpleComponent, field_from_symbol, finite_float,
                      spectral_stats)
from .errors import DegenerateObservableError, ModelFormatError, ValidationError

__all__ = ["load_model", "model_from_dict", "spectrum_from_pauli"]

_PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


@np.errstate(over="raise")
def spectrum_from_pauli(terms) -> np.ndarray:
    """Eigenvalues (ascending) of a sum of weighted Pauli strings.

    terms is an iterable of (coefficient, string) pairs over the alphabet
    IXYZ; all strings share one length n <= 12, and the dense 2^n matrix is
    diagonalized directly.
    """
    if not np.iterable(terms):
        raise ValidationError(f"Pauli terms must be a list, got {terms!r}")
    terms = list(terms)
    if not terms:
        raise ValidationError("no Pauli terms given")
    n_qubits = None
    total = None
    for t_index, term in enumerate(terms):
        try:
            coeff, word = term
        except (TypeError, ValueError):
            raise ValidationError(
                f"term {t_index} must be a (number, string) pair, got {term!r}"
            ) from None
        coeff = finite_float(f"term {t_index}: coefficient", coeff)
        if not isinstance(word, str) or not word:
            raise ValidationError(f"term {t_index}: Pauli word must be a nonempty string")
        if n_qubits is None:
            n_qubits = len(word)
            if n_qubits > 12:
                raise ValidationError(
                    f"Pauli words limited to 12 qubits, got {n_qubits}"
                )
        elif len(word) != n_qubits:
            raise ValidationError(
                f"term {t_index}: word length {len(word)} differs from {n_qubits}"
            )
        mat = np.ones((1, 1), dtype=complex)
        for pos, ch in enumerate(word):
            if ch not in _PAULIS:
                raise ValidationError(
                    f"term {t_index}: invalid Pauli letter {ch!r} at position {pos}"
                )
            mat = np.kron(mat, _PAULIS[ch])
        try:
            total = coeff * mat if total is None else total + coeff * mat
        except FloatingPointError:
            raise ValidationError("Pauli terms sum to a matrix with non-finite entries") from None
    return np.linalg.eigvalsh(total)


# Every refusal below is raised through `at`, a ModelFormatError with the
# document's path (and the component's index) bound: at(message, field=key).

def _wrap(at, field, call, *args, catch=ValidationError):
    """call(*args); an error of class catch is re-raised through at, at field.
    call must not raise a ModelFormatError (it would be located twice).  No
    lambda and no partial per field: either costs microseconds per sector."""
    try:
        return call(*args)
    except catch as exc:
        raise at(str(exc), field=field) from exc


def _require(mapping: dict, key: str, at):
    if key not in mapping:
        raise at(f"missing required key '{key}'")
    return mapping[key]


def _count(value, key: str, rule: str, at):
    """value, refused at its field when a whole float: the library would
    read it as a count, the file format takes JSON integers only."""
    if isinstance(value, float) and value.is_integer():
        raise at(f"{key} must be {rule}, got {value!r}", field=key)
    return value


def _observable(spec, dim: int, at) -> np.ndarray:
    key = "observable_spectrum"
    if isinstance(spec, dict):
        if set(spec.keys()) != {"pauli"}:
            raise at(f"observable object form must have exactly the key 'pauli', "
                     f"got {sorted(spec)}", field=key)
        eigs = _wrap(at, key, spectrum_from_pauli, spec["pauli"])
        if eigs.size != dim:
            raise at(f"Pauli spectrum has {eigs.size} eigenvalues but dim is {dim}", field=key)
        return eigs
    eigs = _flat_list(spec, at, key)
    # checked here, before a pure input is sized by dim
    if eigs.size != dim:
        raise at(f"observable spectrum has {eigs.size} values but dim is {dim}", field=key)
    return eigs


def _input(spec, dim: int, at) -> np.ndarray:
    key = "input_spectrum"
    if isinstance(spec, dict):
        if spec.get("pure") is not True:
            raise at(f"input object form must set 'pure': true, got {spec.get('pure')!r}",
                     field=key)
        extra = set(spec.keys()) - {"pure", "trace"}
        if extra:
            raise at(f"unknown keys {sorted(extra)} in pure input", field=key)
        trace = spec.get("trace", 1.0)
        if type(trace) not in (int, float) or not 0.0 < trace < np.inf:
            raise at(f"pure input trace must be positive and finite, got {trace!r}", field=key)
        out = np.zeros(dim)
        out[0] = trace
        return out
    return _flat_list(spec, at, key)


def _flat_list(spec, at, key: str) -> np.ndarray:
    if not isinstance(spec, list):
        raise at(f"must be a list of numbers, got {spec!r}", field=key)
    try:
        arr = np.asarray(spec, dtype=float)
    except (TypeError, ValueError) as exc:
        raise at(f"not a numeric array: {exc}", field=key) from exc
    if arr.ndim != 1:
        raise at(f"must be a flat list of numbers, got shape {arr.shape}", field=key)
    return arr


def _component(cdoc, at) -> SimpleComponent:
    if not isinstance(cdoc, dict):
        raise at("component must be an object")
    unknown = set(cdoc.keys()) - {
        "field", "dim", "index", "observable_spectrum", "input_spectrum",
        "sector_params",
    }
    if unknown:
        raise at(f"unknown keys {sorted(unknown)}")
    field = _wrap(at, "field", field_from_symbol, _require(cdoc, "field", at))
    dim = _require(cdoc, "dim", at)
    if type(dim) is not int or dim < 1:
        raise at(f"dim must be a positive integer, got {dim!r}", field="dim")
    index = _require(cdoc, "index", at)
    obs = _observable(_require(cdoc, "observable_spectrum", at), dim, at)
    inp = _input(_require(cdoc, "input_spectrum", at), dim, at)
    params = _count(cdoc.get("sector_params", 0), "sector_params",
                    "a nonnegative integer", at)
    comp = _wrap(at, None, SimpleComponent, field, dim, index, obs, inp, params)
    # every command needs the observable's dispersion
    _wrap(at, "observable_spectrum", spectral_stats, comp,
          catch=DegenerateObservableError)
    return comp


def model_from_dict(doc: dict, *, path: str | None = None) -> SectorModel:
    at = partial(ModelFormatError, path=path)
    if not isinstance(doc, dict):
        raise at("top level must be a JSON object")
    total_params = _require(doc, "total_params", at)
    components_doc = _require(doc, "components", at)
    normalization = doc.get("normalization", 1.0)
    unknown = set(doc.keys()) - {"total_params", "components", "normalization"}
    if unknown:
        raise at(f"unknown top-level keys {sorted(unknown)}")
    if not isinstance(components_doc, list) or not components_doc:
        raise at("'components' must be a nonempty list")
    comps = tuple(_component(cdoc, partial(at, component=idx))
                  for idx, cdoc in enumerate(components_doc))
    # after the components, where SectorModel checks it
    total_params = _count(total_params, "total_params", "a positive integer", at)
    return _wrap(at, None, SectorModel, comps, total_params, normalization)


def load_model(path) -> SectorModel:
    """Parse and validate a model file; all errors carry file context."""
    path = Path(path)
    at = partial(ModelFormatError, path=str(path))
    try:
        text = path.read_text()
    except OSError as exc:
        raise at(f"cannot read file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise at(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return model_from_dict(doc, path=str(path))
