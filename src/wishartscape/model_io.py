"""JSON model descriptions.

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
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .algebra import SectorModel, SimpleComponent, field_from_symbol, spectral_stats
from .errors import DegenerateObservableError, ModelFormatError, ValidationError
from .simulator import spectrum_from_pauli

__all__ = ["load_model", "model_from_dict"]


def _require(mapping: dict, key: str, idx: int | None, path: str | None):
    if key not in mapping:
        raise ModelFormatError(f"missing required key '{key}'",
                               path=path, component=idx)
    return mapping[key]


def _observable(spec, dim: int, idx: int, path: str | None) -> np.ndarray:
    if isinstance(spec, dict):
        if set(spec.keys()) != {"pauli"}:
            raise ModelFormatError(
                f"observable object form must have exactly the key 'pauli', got {sorted(spec)}",
                path=path, component=idx, field="observable_spectrum")
        try:
            eigs = spectrum_from_pauli(spec["pauli"])
        except ValidationError as exc:
            raise ModelFormatError(str(exc), path=path, component=idx,
                                   field="observable_spectrum") from exc
        if eigs.size != dim:
            raise ModelFormatError(
                f"Pauli spectrum has {eigs.size} eigenvalues but dim is {dim}",
                path=path, component=idx, field="observable_spectrum")
        return eigs
    eigs = _flat_list(spec, idx, path, "observable_spectrum")
    # checked here, before a pure input is sized by dim
    if eigs.size != dim:
        raise ModelFormatError(
            f"observable spectrum has {eigs.size} values but dim is {dim}",
            path=path, component=idx, field="observable_spectrum")
    return eigs


def _input(spec, dim: int, idx: int, path: str | None) -> np.ndarray:
    if isinstance(spec, dict):
        if spec.get("pure") is not True:
            raise ModelFormatError(
                f"input object form must set 'pure': true, got {spec.get('pure')!r}",
                path=path, component=idx, field="input_spectrum")
        extra = set(spec.keys()) - {"pure", "trace"}
        if extra:
            raise ModelFormatError(
                f"unknown keys {sorted(extra)} in pure input",
                path=path, component=idx, field="input_spectrum")
        trace = spec.get("trace", 1.0)
        if type(trace) not in (int, float) or not 0.0 < trace < np.inf:
            raise ModelFormatError(
                f"pure input trace must be positive and finite, got {trace!r}",
                path=path, component=idx, field="input_spectrum")
        out = np.zeros(dim)
        out[0] = trace
        return out
    return _flat_list(spec, idx, path, "input_spectrum")


def _flat_list(spec, idx: int, path: str | None, key: str) -> np.ndarray:
    if not isinstance(spec, list):
        raise ModelFormatError(f"must be a list of numbers, got {spec!r}",
                               path=path, component=idx, field=key)
    try:
        arr = np.asarray(spec, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"not a numeric array: {exc}", path=path,
                               component=idx, field=key) from exc
    if arr.ndim != 1:
        raise ModelFormatError(f"must be a flat list of numbers, got shape {arr.shape}",
                               path=path, component=idx, field=key)
    return arr


def model_from_dict(doc: dict, *, path: str | None = None) -> SectorModel:
    if not isinstance(doc, dict):
        raise ModelFormatError("top level must be a JSON object", path=path)
    total_params = _require(doc, "total_params", None, path)
    components_doc = _require(doc, "components", None, path)
    normalization = doc.get("normalization", 1.0)
    unknown = set(doc.keys()) - {"total_params", "components", "normalization"}
    if unknown:
        raise ModelFormatError(f"unknown top-level keys {sorted(unknown)}", path=path)
    if not isinstance(components_doc, list) or not components_doc:
        raise ModelFormatError("'components' must be a nonempty list", path=path)
    comps = []
    for idx, cdoc in enumerate(components_doc):
        if not isinstance(cdoc, dict):
            raise ModelFormatError("component must be an object", path=path, component=idx)
        unknown = set(cdoc.keys()) - {
            "field", "dim", "index", "observable_spectrum", "input_spectrum",
            "sector_params",
        }
        if unknown:
            raise ModelFormatError(f"unknown keys {sorted(unknown)}",
                                   path=path, component=idx)
        symbol = _require(cdoc, "field", idx, path)
        try:
            field = field_from_symbol(symbol)
        except ValidationError as exc:
            raise ModelFormatError(str(exc), path=path, component=idx,
                                   field="field") from exc
        dim = _require(cdoc, "dim", idx, path)
        if type(dim) is not int or dim < 1:
            raise ModelFormatError(f"dim must be a positive integer, got {dim!r}",
                                   path=path, component=idx, field="dim")
        index = _require(cdoc, "index", idx, path)
        obs = _observable(_require(cdoc, "observable_spectrum", idx, path), dim, idx, path)
        inp = _input(_require(cdoc, "input_spectrum", idx, path), dim, idx, path)
        try:
            comps.append(SimpleComponent(
                field=field, dim=dim, index=index,
                observable_spectrum=obs, input_spectrum=inp,
                sector_params=cdoc.get("sector_params", 0),
            ))
        except ValidationError as exc:
            raise ModelFormatError(str(exc), path=path, component=idx) from exc
        # every command needs the observable's dispersion
        try:
            spectral_stats(comps[-1])
        except DegenerateObservableError as exc:
            raise ModelFormatError(str(exc), path=path, component=idx,
                                   field="observable_spectrum") from exc
    try:
        return SectorModel(
            components=tuple(comps),
            total_params=total_params,
            normalization=normalization,
        )
    except ValidationError as exc:
        raise ModelFormatError(str(exc), path=path) from exc


def load_model(path) -> SectorModel:
    """Parse and validate a model file; all errors carry file context."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ModelFormatError(f"cannot read file: {exc}", path=str(path)) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            path=str(path),
        ) from exc
    return model_from_dict(doc, path=str(path))
