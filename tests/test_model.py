import numpy as np
import pytest

from phlab.model import (BC_DIRICHLET, BC_NEUMANN, CONFIG_DEFAULTS, Domain,
                         InvalidArgumentError, CapabilityError, MethodInfo,
                         NumericalError, ToleranceConfig, check_bc, check_order,
                         make_spectrum, n_poly_dim, validate_config)


def test_zero_mode_dimension_small_cases():
    # dim of polynomials of degree <= m-1 in d variables
    assert n_poly_dim(1, 1) == 1
    assert n_poly_dim(1, 2) == 2
    assert n_poly_dim(1, 3) == 3
    assert n_poly_dim(2, 1) == 1
    assert n_poly_dim(2, 2) == 3
    assert n_poly_dim(2, 3) == 6
    assert n_poly_dim(3, 3) == 10


def test_order_and_bc_validation():
    assert check_order(3) == 3
    with pytest.raises(CapabilityError):
        check_order(4)
    with pytest.raises(CapabilityError):
        check_order(0)
    assert check_bc("dirichlet") == BC_DIRICHLET
    with pytest.raises(InvalidArgumentError):
        check_bc("robin")


def test_domain_shapes():
    iv = Domain.interval(2.0)
    assert iv.dimension == 1 and iv.as_json() == {"shape": "interval", "length": 2.0}
    rect = Domain.rectangle(1.0, 3.0)
    assert rect.dimension == 2
    assert rect.as_json() == {"shape": "rectangle", "lx": 1.0, "ly": 3.0}
    with pytest.raises(InvalidArgumentError):
        Domain.rectangle(-1.0, 1.0)
    # records are immutable and hash by value
    with pytest.raises(AttributeError):
        rect.lx = 2.0
    assert Domain.rectangle(1.0, 3.0) == rect
    assert hash(Domain.rectangle(1.0, 3.0)) == hash(rect)


def test_tolerance_validation():
    with pytest.raises(InvalidArgumentError):
        ToleranceConfig(tol_zero=-1.0)
    with pytest.raises(InvalidArgumentError):
        ToleranceConfig(margin_factor=0.0)


def _mk(bc, values, m=2):
    dom = Domain.rectangle()
    vals = np.asarray(values, dtype=float)
    return make_spectrum(m, bc, dom, MethodInfo("Galerkin2D", 8), vals)


def test_make_spectrum_clamps_zero_noise():
    # tiny signed noise in the zero block is clamped to exact zeros
    s = _mk(BC_NEUMANN, [-1e-9, 3e-10, 1e-9, 500.0, 800.0])
    assert list(s.values[:3]) == [0.0, 0.0, 0.0]
    assert n_poly_dim(s.domain.dimension, s.m) == 3
    assert s.values[3] == 500.0


def test_make_spectrum_rejects_fat_zero_noise():
    with pytest.raises(NumericalError):
        _mk(BC_NEUMANN, [-1.0, 0.0, 0.0, 500.0, 800.0])


def test_make_spectrum_rejects_descending():
    with pytest.raises(NumericalError):
        _mk(BC_DIRICHLET, [4.0, 3.0])


def test_make_spectrum_rejects_nonpositive_dirichlet():
    with pytest.raises(NumericalError):
        _mk(BC_DIRICHLET, [-2.0, 3.0])


def test_spectrum_trusted_access():
    s = _mk(BC_DIRICHLET, [1.0, 2.0, 3.0], m=1)
    assert s.trusted_count == 3
    assert s.values == (1.0, 2.0, 3.0)


def test_config_merge_precedence():
    cfg = validate_config({"m": 1, "n": 20}, {"m": 3, "n": None})
    assert cfg.m == 3          # later layer wins
    assert cfg.n == 20         # None never overrides
    assert cfg.seed == CONFIG_DEFAULTS["seed"]


def test_config_unknown_key_rejected():
    with pytest.raises(InvalidArgumentError, match="unknown config key"):
        validate_config({"m_max": 3})
    with pytest.raises(InvalidArgumentError, match="unknown config key"):
        validate_config({"m_max": 3}, {"m": 2})


def test_config_type_checks():
    cfg = validate_config({"m": 2.0, "count": 7})
    assert cfg.m == 2 and cfg.count == 7
    with pytest.raises(InvalidArgumentError):
        validate_config({"count": 0})
    with pytest.raises(InvalidArgumentError):
        validate_config({"lx": -2.0})
    with pytest.raises(InvalidArgumentError):
        validate_config({"perturb": -0.5})
    with pytest.raises(CapabilityError):
        validate_config({"m": 9})
    # tolerances are validated once, by ToleranceConfig; integers widen to float
    for bad in ({"tol_zero": 0}, {"tol_zero": 1.0}, {"margin_factor": 0.5}, {"tol_root": "x"}):
        with pytest.raises(InvalidArgumentError):
            validate_config(bad)
    tol = validate_config({"margin_factor": 2}).tol
    assert tol.margin_factor == 2.0 and isinstance(tol.margin_factor, float)
