"""The argument rules: a malformed number, count or real array is refused
with a ValidationError that starts with the argument's name, and the inputs
the rules accept keep working."""

import math

import numpy as np
import pytest

from helpers import component, index_constant, rng, single_model, spin_factor_reduce
from wishartscape import (
    FIELD_C,
    RngState,
    SectorModel,
    SimpleComponent,
    ValidationError,
    build_ansatz,
    build_minima_density,
    canonical_generator,
    grad_eval,
    haar_group,
    kac_rice_log_density,
    loss_cdf_rank1,
    loss_eval,
    loss_pdf_rank1,
    loss_variance,
    mc_landscape,
    purity,
    regularized_hessian_sample,
    sample_gradient_given_loss,
    sample_loss_batch,
    spectral_stats,
    spectrum_from_pauli,
    trainability_verdict,
    welch_satterthwaite,
)
from wishartscape.algebra import nonnegative, positive, positive_float, positive_int


def _comp():
    return component(beta=2, dim=2, params=1)


def _model():
    return single_model(_comp())


# (argument name, call); each call passes one malformed argument
PROBES = {
    "component-observable": ("observable_spectrum", lambda: SimpleComponent(
        field=FIELD_C, dim=2, index=1, observable_spectrum=["a", "b"], input_spectrum=[1, 0])),
    "spectral-stats": ("spectrum", lambda: spectral_stats(["a", "b"])),
    "purity": ("spectrum", lambda: purity(["a"])),
    # the reference sector-algebra steps in tests/helpers read the same rules
    "spin-factor": ("input_spectrum", lambda: spin_factor_reduce(["a"], ["b"])),
    "index-string": ("ambient_trace", lambda: index_constant("a", 1)),
    "index-nan": ("ambient_trace", lambda: index_constant(math.nan, 1)),
    "gradient-z": ("z_values", lambda: sample_gradient_given_loss(_model(), ["a"], rng(0))),
    "loss-theta": ("theta", lambda: loss_eval(build_ansatz(_comp(), rng(0)), ["a", "b"])),
    "mc-collect": ("collect", lambda: mc_landscape(_comp(), 3, rng(0), collect=5)),
    "loss-pdf-grid": ("z", lambda: loss_pdf_rank1(_comp(), "a")),
    "minima-at": ("z", lambda: build_minima_density(_model()).at("a")),
    # counts and numbers read outside the probes above
    "generator-which": ("which", lambda: canonical_generator(component(beta=4, dim=2), 2.5)),
    "pauli-coefficient": ("term 0: coefficient", lambda: spectrum_from_pauli([("1.5", "Z")])),
    # package objects: a model, a sector, a random stream, a circuit instance
    "model-components": ("components", lambda: SectorModel(components=5, total_params=1)),
    "variance-model": ("model", lambda: loss_variance(5)),
    "welch-model": ("model", lambda: welch_satterthwaite(5)),
    "kac-rice-comp": ("comp", lambda: kac_rice_log_density(5, 1.0)),
    "rng-from-rng": ("seed", lambda: RngState(RngState(1))),
    "mc-rng": ("rng", lambda: mc_landscape(_comp(), 3, 5)),
    "haar-rng": ("rng", lambda: haar_group(2, 4, 5)),
    "loss-batch-rng": ("rng", lambda: sample_loss_batch(_model(), 3, 5)),
    "regularized-rng": ("rng", lambda: regularized_hessian_sample(_comp(), 5)),
    "gradient-inst": ("inst", lambda: grad_eval(5)),
}


@pytest.mark.parametrize("case", sorted(PROBES))
def test_malformed_argument_is_named(case):
    name, call = PROBES[case]
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value).startswith(name)


@pytest.mark.parametrize("models", [5, ["a", "b", "c"]])
def test_trainability_refuses_non_models(models):
    with pytest.raises(ValidationError, match="^models must be SectorModel instances"):
        trainability_verdict(models)


REFUSED = {
    "positive_float": (positive_float, [math.inf, 0.0, True]),
    "positive": (positive, [math.nan, -math.inf, "1", 10**400]),
    "nonnegative": (nonnegative, [-0.5, np.bool_(True), None]),
    "positive_int": (positive_int, [2.5, 0, math.inf]),
}


@pytest.mark.parametrize("rule, value", [
    pytest.param(rule, value, id=f"{name}-{i}")
    for name, (rule, values) in REFUSED.items() for i, value in enumerate(values)])
def test_rule_wording(rule, value):
    with pytest.raises(ValidationError, match=r"^x must be .*, got "):
        rule("x", value)


def test_infinite_bounds_allowed():
    # gp_conditions and `simulate --budget inf` take inf through these rules
    # (test_infinite_thresholds_allowed, test_infinite_budget_allowed)
    assert positive("--budget", math.inf) == nonnegative("exponent", math.inf) == math.inf


def test_whole_floats_are_counts():
    comp = SimpleComponent(field=FIELD_C, dim=2.0, index=1, observable_spectrum=[0, 1],
                           input_spectrum=[1, 0], sector_params=2.0)
    assert (comp.dim, comp.sector_params) == (2, 2)
    assert type(comp.sector_params) is int and type(positive_int("n", 3.0)) is int
    model = single_model(comp)
    a = sample_loss_batch(model, 4.0, RngState(3.0))
    b = sample_loss_batch(model, 4, RngState(3))
    np.testing.assert_array_equal(a, b)


def test_nan_in_a_grid_stays_nan():
    grid = [math.nan, 0.5]
    pdf = loss_pdf_rank1(_comp(), grid)
    assert np.isnan(pdf[0]) and np.isfinite(pdf[1])
    assert np.isnan(loss_cdf_rank1(_comp(), grid)[0])
    model = single_model(component(beta=2, dim=8, params=1))
    assert np.isnan(build_minima_density(model).at(grid)[0])
