"""Same bits from the same stream: each surrogate sampler replayed by hand.

A generator cloned at the sampler's start state redraws the documented
Gaussians, chi-squares and Wishart matrices in the documented order, and the
documented formula is composed from them.  The sampler's output must equal
that composition byte for byte (signs of zero included) and leave its
generator where the clone ends.  Nothing here is a stored number, so the
contract holds on any numpy version.
"""

import math

import numpy as np
import pytest

from helpers import component, rng
from wishartscape import (
    SectorModel,
    regularized_hessian_sample,
    sample_gradient_given_loss,
    sample_hessian_at_critical,
    sample_loss_batch,
    spectral_stats,
)
from wishartscape import field
from wishartscape.randmat import wishart_bartlett, wishart_direct

# a model per field plus a three-sector one with p = 8 > 2 + 3 + 1 sector
# parameters, so two parameters are spare (zero Hessian rows)
MODELS = {
    f"single-{beta}": SectorModel(
        components=(component(beta=beta, dim=6, obs=[0.0, 0.31, 0.77, 1.3, 2.9, 4.1],
                              rho=[1.5, 0, 0, 0, 0, 0], params=4),),
        total_params=4)
    for beta in (1, 2, 4)
}
MODELS["three-sectors"] = SectorModel(
    components=(component(beta=1, dim=5, obs=[0.0, 0.3, 0.7, 1.0, 2.0], params=2),
                component(beta=4, dim=3, index=2.0, obs=[1.0, 0.0, 0.5], params=3),
                component(beta=2, dim=4, obs=[0.0, 0.0, 1.0, 3.0],
                          rho=[0, 0.4, 0, 0], params=1)),
    total_params=8)
Z = {"zero": 0.0, "positive": 0.4373}


def clone(r):
    """A generator at r's current state, drawing independently of it."""
    g = np.random.Generator(np.random.PCG64())
    g.bit_generator.state = r.generator.bit_generator.state
    return g


def assert_same_bits(got, expect):
    got, expect = np.asarray(got), np.asarray(expect)
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


def assert_same_state(r, g):
    assert r.generator.bit_generator.state == g.bit_generator.state


def z_values(model, z):
    # the last sector of a multi-sector model keeps a positive loss when z = 0
    vals = [z] * len(model.components)
    if len(vals) > 1:
        vals[-1] = 0.8119
    return np.array(vals)


def redraw_wishart(g, beta, dim, dof):
    """X X^dagger / beta for X with N(0, 1) real components, drawn row-major."""
    x = field.from_components(beta, g.standard_normal((dim, dof, beta)))
    return field.gram(beta, x) / beta


def amplitude(comp):
    st = spectral_stats(comp)
    return 2.0 * comp.index * st.std_eig * comp.input_trace, st.mean_eig


def hessian_dof(comp):
    return max(1, round(comp.beta * spectral_stats(comp).dof_real))


@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_loss_batch_replays(name, n):
    model = MODELS[name]
    r = rng(10)
    g = clone(r)
    got = sample_loss_batch(model, n, r)
    expect = np.empty((n, len(model.components)))
    for a, comp in enumerate(model.components):
        # per sector: the Wishart diagonal, chi-squares of beta dof drawn as
        # one (n, dim) array, over beta; dof is the rounded integer
        st = spectral_stats(comp)
        diag = g.chisquare(comp.beta * st.dof, size=(n, comp.dim)) / comp.beta
        pref = comp.index * st.mean_eig / st.dof
        expect[:, a] = pref * (diag @ comp.input_spectrum)
    assert_same_bits(got, expect)
    assert_same_state(r, g)


@pytest.mark.parametrize("z", sorted(Z))
@pytest.mark.parametrize("name", sorted(MODELS))
def test_gradient_replays(name, z):
    model = MODELS[name]
    zs = z_values(model, Z[z])
    r = rng(11)
    g = clone(r)
    draw = sample_gradient_given_loss(model, zs, r)
    p = model.total_params
    expect = np.zeros(p)
    for comp, za, gauss, chi in zip(model.components, zs, draw.gaussians, draw.chis):
        # per sector: p Gaussians, then p chi-squares of max(2, beta) dof
        assert_same_bits(gauss, g.standard_normal(p))
        assert_same_bits(chi, np.sqrt(g.chisquare(max(2, comp.beta), size=p)))
        amp, mean = amplitude(comp)
        scale = amp / comp.dim * math.sqrt(za / (comp.beta**2 * comp.index * mean))
        expect += scale * gauss * chi
    assert_same_bits(draw.entries, expect)
    assert_same_state(r, g)
    if z == "zero" and name.startswith("single"):
        assert not np.any(np.signbit(draw.entries))


@pytest.mark.parametrize("z", sorted(Z))
@pytest.mark.parametrize("name", sorted(MODELS))
def test_hessian_replays(name, z):
    model = MODELS[name]
    zs = z_values(model, Z[z])
    r = rng(12)
    g = clone(r)
    draw = sample_hessian_at_critical(model, zs, r)
    p = model.total_params
    expect = np.zeros((p, p))
    offset = 0
    for a, comp in enumerate(model.components):
        pa = comp.sector_params
        block = slice(offset, offset + pa)
        assert draw.block_slices[a] == block
        offset += pa
        # per sector: pa Gaussians, pa chi-squares of max(2, beta) dof, then
        # one real Wishart of dimension pa and round(beta r) dof
        gauss = g.standard_normal(pa)
        chi = np.sqrt(g.chisquare(max(2, comp.beta), size=pa))
        w = redraw_wishart(g, 1, pa, hessian_dof(comp))
        for got, want in zip((draw.gaussians[a], draw.chis[a], draw.wisharts[a]),
                             (gauss, chi, w)):
            assert_same_bits(got, want)
        amp, mean = amplitude(comp)
        pref = amp / comp.dim**2 * math.sqrt(zs[a] / (comp.beta * comp.index * mean))
        lower = pref * np.outer(gauss, chi) * w
        for i in range(pa):
            for j in range(pa):
                # entry (i, j) is the lower one (max, min), plus 0.0: +0.0 where it is -0.0
                expect[block.start + i, block.start + j] = lower[max(i, j), min(i, j)] + 0.0
    assert_same_bits(draw.matrix, expect)
    assert_same_state(r, g)
    if z == "zero" and name.startswith("single"):
        assert not np.any(np.signbit(draw.matrix))


@pytest.mark.parametrize("beta", [1, 2, 4])
def test_regularized_hessian_replays(beta):
    comp = MODELS[f"single-{beta}"].components[0]
    r = rng(13)
    g = clone(r)
    got = regularized_hessian_sample(comp, r)
    # sigma: pa chi-squares of max(2, beta) dof, then the real Wishart
    root = np.sqrt(g.chisquare(max(2, beta), size=comp.sector_params))
    w = redraw_wishart(g, 1, comp.sector_params, hessian_dof(comp))
    assert_same_bits(got, (root[:, None] * w * root[None, :]) / comp.dim)
    assert_same_state(r, g)


SHAPES = [(1, 1), (3, 1), (1, 4), (6, 9), (7, 3)]


@pytest.mark.parametrize("dim,dof", SHAPES)
@pytest.mark.parametrize("beta", [1, 2, 4])
def test_wishart_direct_replays(beta, dim, dof):
    r = rng(14)
    g = clone(r)
    sample = wishart_direct(beta, dim, dof, r)
    assert (sample.beta, sample.dim, sample.dof) == (beta, dim, dof)
    assert_same_bits(sample.matrix, redraw_wishart(g, beta, dim, dof))
    assert_same_state(r, g)


@pytest.mark.parametrize("dim,dof", SHAPES)
@pytest.mark.parametrize("beta", [1, 2, 4])
def test_wishart_bartlett_replays(beta, dim, dof):
    r = rng(15)
    g = clone(r)
    sample = wishart_bartlett(beta, dim, dof, r)
    # the dim x dof Gaussian with N(0, 1/beta) components strictly below the
    # diagonal and 0 on and above it, then one chi-square per diagonal entry,
    # beta (dof - i) dof for row i, drawn here as one array call
    x = field.from_components(beta, g.standard_normal((dim, dof, beta)))
    L = x * field.real_entries(beta, np.where(np.tri(dim, dof, k=-1) > 0,
                                              1.0 / math.sqrt(beta), 0.0))
    k = min(dim, dof)
    diag = np.sqrt(g.chisquare(beta * (dof - np.arange(k)))) * (1.0 / math.sqrt(beta))
    for i in range(k):
        if beta == 4:
            L[i, i, 0] = diag[i]
        else:
            L[i, i] = diag[i]
    assert_same_bits(sample.matrix, field.gram(beta, L))
    assert_same_state(r, g)
