"""The package's public names: each module's __all__, joined."""

import wishartscape
from wishartscape import (algebra, errors, landscape, model_io, randmat, simulator,
                          wishart_process)

MODULES = (algebra, errors, landscape, model_io, randmat, simulator, wishart_process)


def test_package_exports_the_joined_module_lists():
    joined = [name for module in MODULES for name in module.__all__]
    assert wishartscape.__all__ == joined
    assert len(set(joined)) == len(joined)


def test_each_name_is_its_home_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(wishartscape, name) is getattr(module, name), name


def test_removed_names_are_gone():
    # the sector-algebra reference steps, the finite differences and the
    # Marchenko-Pastur density live in tests/helpers as oracles; the
    # co-diagonal covariance was the Wishart-process law, wrong for distinct
    # inputs; the samplers draw their Gaussians through randmat._gauss
    removed = {algebra: ("index_constant", "project_into_component", "spin_factor_reduce"),
               landscape: ("gp_covariance_diagonal",),
               errors: ("DegenerateElementError", "BasisValidationError"),
               simulator: ("fd_gradient", "fd_hessian", "GRAD_FD_STEP", "HESS_FD_STEP"),
               randmat: ("gauss_matrix", "marchenko_pastur_support", "marchenko_pastur_pdf",
                         "marchenko_pastur_atom")}
    for module, names in removed.items():
        for name in names:
            assert not hasattr(wishartscape, name), name
            assert not hasattr(module, name), name
