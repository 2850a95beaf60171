"""Core types shared across the package: domains, spectra, tolerances, config."""

from __future__ import annotations

from collections import namedtuple
from math import comb, isfinite
from numbers import Integral, Real


class PhlabError(Exception):
    """Base class for errors raised by this package."""


class InvalidArgumentError(PhlabError):
    """A caller-supplied argument or config value is malformed."""


class CapabilityError(PhlabError):
    """The request is well formed but outside the supported range."""


class NumericalError(PhlabError):
    """A numerical routine failed to meet its contract."""


class GramDegeneracyError(NumericalError):
    """A combined basis is too close to linearly dependent to certify."""


BC_DIRICHLET = "dirichlet"
BC_NEUMANN = "neumann"

M_MIN, M_MAX = 1, 3


def check_bc(bc: str) -> str:
    if bc not in (BC_DIRICHLET, BC_NEUMANN):
        raise InvalidArgumentError(f"bc must be 'dirichlet' or 'neumann', got {bc!r}")
    return bc


def check_order(m: int) -> int:
    if not isinstance(m, Integral) or isinstance(m, bool):
        raise InvalidArgumentError(f"m must be an integer, got {m!r}")
    if not (M_MIN <= m <= M_MAX):
        raise CapabilityError(
            f"operator order m={m} is unsupported; supported orders are {M_MIN}..{M_MAX}"
        )
    return int(m)


def n_poly_dim(d: int, m: int) -> int:
    """Dimension of the space of polynomials of degree <= m-1 in d variables.

    This is the multiplicity of the zero eigenvalue of the order-2m natural
    (free) problem on any bounded Lipschitz domain in R^d.
    """
    if d < 1 or m < 1:
        raise InvalidArgumentError(f"need d >= 1 and m >= 1, got d={d}, m={m}")
    return comb(d + m - 1, d)


# The records below are immutable named tuples; a record that checks its
# fields does so in __new__, which _replace and _make skip, so neither is used
# on those types.


class ToleranceConfig(namedtuple("ToleranceConfig",
                                 "tol_zero tol_root tol_identity margin_factor",
                                 defaults=(1e-6, 1e-12, 1e-9, 5.0))):
    """Numerical tolerances used throughout.

    tol_zero      relative threshold for clamping near-zero eigenvalues
    tol_root      relative width target for the 1d root brackets
    tol_identity  bound for pointwise identity residuals in the trial space
    margin_factor strictness safety factor against rounding in theorem-strict,
                  weak-minmax and conjecture-probe
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("tol_zero", "tol_root", "tol_identity"):
            v = getattr(self, name)
            if not (isinstance(v, float) and isfinite(v) and v > 0.0):
                raise InvalidArgumentError(f"{name} must be a positive finite float, got {v!r}")
        # make_spectrum zeroes |v| <= tol_zero * v_(z+1), which at 1 or above takes v_(z+1) too
        if self.tol_zero >= 1.0:
            raise InvalidArgumentError(f"tol_zero must be below 1, got {self.tol_zero!r}")
        if not (isinstance(self.margin_factor, float) and self.margin_factor >= 1.0):
            raise InvalidArgumentError(
                f"margin_factor must be a float >= 1, got {self.margin_factor!r}"
            )
        return self


class Domain(namedtuple("Domain", "shape lx ly", defaults=(None,))):
    """An interval (0, lx) or an axis-aligned rectangle (0, lx) x (0, ly).

    shape is "interval" or "rectangle"; ly is None on an interval.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.shape not in ("interval", "rectangle"):
            raise InvalidArgumentError(f"unknown domain shape {self.shape!r}")
        if not (isfinite(self.lx) and self.lx > 0.0):
            raise InvalidArgumentError(f"lx must be positive and finite, got {self.lx!r}")
        if self.shape == "rectangle":
            if self.ly is None or not (isfinite(self.ly) and self.ly > 0.0):
                raise InvalidArgumentError(f"ly must be positive and finite, got {self.ly!r}")
        elif self.ly is not None:
            raise InvalidArgumentError("interval domains take a single length")
        return self

    @staticmethod
    def interval(length: float = 1.0) -> "Domain":
        return Domain("interval", float(length))

    @staticmethod
    def rectangle(lx: float = 1.0, ly: float = 1.0) -> "Domain":
        return Domain("rectangle", float(lx), float(ly))

    @property
    def dimension(self) -> int:
        return 1 if self.shape == "interval" else 2

    def as_json(self) -> dict:
        if self.shape == "interval":
            return {"shape": "interval", "length": self.lx}
        return {"shape": "rectangle", "lx": self.lx, "ly": self.ly}


class MethodInfo(namedtuple("MethodInfo", "kind n_per_axis", defaults=(None,))):
    """How a spectrum was computed: kind "Exact1D" or "Galerkin2D"."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in ("Exact1D", "Galerkin2D"):
            raise InvalidArgumentError(f"unknown method kind {self.kind!r}")
        if self.kind == "Galerkin2D" and (self.n_per_axis is None or self.n_per_axis < 1):
            raise InvalidArgumentError("Galerkin2D requires n_per_axis >= 1")
        return self

    def as_json(self) -> dict:
        if self.kind == "Exact1D":
            return {"kind": "Exact1D"}
        return {"kind": "Galerkin2D", "n_per_axis": self.n_per_axis}


class Spectrum(namedtuple("Spectrum", "m bc domain method values tol",
                          defaults=(ToleranceConfig(),))):
    """Ascending eigenvalues of one boundary-condition problem.

    For the natural (free) problem the leading n_poly_dim(d, m) entries are
    exact zeros; everything else is strictly positive.  The solvers keep only
    entries accurate enough to compare against other spectra, so every entry
    is trusted and trusted_count is the number of entries.  values is a tuple
    of floats.
    """

    __slots__ = ()

    @property
    def trusted_count(self) -> int:
        return len(self.values)

    def as_json(self) -> dict:
        return {
            "schema_version": "1",
            "m": self.m,
            "bc": self.bc,
            "domain": self.domain.as_json(),
            "method": self.method.as_json(),
            "eigenvalues": list(self.values),
            "trusted_count": self.trusted_count,
            "tolerances": self.tol._asdict(),
        }


def make_spectrum(m: int, bc: str, domain: Domain, method: MethodInfo,
                  values, tol: ToleranceConfig = ToleranceConfig()) -> Spectrum:
    """Clamp the zero block, validate sign/order structure, and freeze a Spectrum.

    values is a flat sequence of real numbers.  Clamping is relative:
    entries are zeroed when |v| <= tol_zero * ref with ref the first entry
    past the expected zero block, or max(1, max |v|) when there is none.  Any
    residual negative entry, a nonzero inside the zero block, or a zero
    outside it is treated as a failure of the numerics, not of the caller.
    """
    m = check_order(m)
    bc = check_bc(bc)
    flat = not isinstance(values, Real) and getattr(values, "ndim", 1) == 1
    vals = list(values) if flat else []
    if not (flat and all(isinstance(v, Real) for v in vals)):
        raise InvalidArgumentError("values must be a 1d array")
    vals = [float(v) for v in vals]
    z = n_poly_dim(domain.dimension, m) if bc == BC_NEUMANN else 0
    ref = vals[z] if z < len(vals) else max([1.0, *map(abs, vals)])
    if ref <= 0.0:
        raise NumericalError(
            f"first eigenvalue past the zero block is {ref!r}, expected positive"
        )
    vals = [0.0 if abs(v) <= tol.tol_zero * ref else v for v in vals]
    bad = next((i for i, v in enumerate(vals[:z]) if v != 0.0), None)
    if bad is not None:
        raise NumericalError(
            f"eigenvalue {bad + 1} should sit in the zero block but is {vals[bad]:.3e}"
        )
    bad = next((i for i in range(z, len(vals)) if vals[i] <= 0.0), None)
    if bad is not None:
        raise NumericalError(
            f"eigenvalue {bad + 1} is {vals[bad]:.3e}, expected strictly positive"
        )
    if any(b < a for a, b in zip(vals, vals[1:])):
        raise NumericalError("eigenvalues are not ascending after clamping")
    return Spectrum(m=m, bc=bc, domain=domain, method=method, values=tuple(vals), tol=tol)


class CheckRecord(namedtuple("CheckRecord", "k lhs rhs slack")):
    """One compared pair inside a verification claim; slack >= 0 means ok."""

    __slots__ = ()


class VerificationReport(namedtuple("VerificationReport",
                                    "claim_id passed details notes config_echo")):
    """One claim's outcome: details is a tuple of CheckRecord."""

    __slots__ = ()

    @property
    def margin(self) -> float:
        """The worst slack over the records."""
        return min(r.slack for r in self.details)

    def as_json(self) -> dict:
        return {
            "schema_version": "1",
            "claim_id": self.claim_id,
            "passed": bool(self.passed),
            "margin": float(self.margin),
            "details": [
                {"k": int(r.k), "lhs": float(r.lhs), "rhs": float(r.rhs),
                 "slack": float(r.slack)}
                for r in self.details
            ],
            "notes": self.notes,
            "config": self.config_echo,
        }


# Config handling.  Flat dicts of primitives come in (defaults, then file,
# then command-line flags, later sources winning); validate_config merges
# them into a typed RunConfig or raises.

CONFIG_DEFAULTS: dict = {
    "m": 2,
    "bc": None,
    "n": 16,
    "count": 10,
    "k_max": 8,
    "length": 1.0,
    "lx": 1.0,
    "ly": 1.0,
    "seed": 1729,
    "perturb": 0.0,
    **ToleranceConfig()._asdict(),
}


class RunConfig(namedtuple("RunConfig",
                           "m bc n count k_max length lx ly seed perturb tol")):
    """A validated configuration, tolerances in tol; bc is None when none was given."""

    __slots__ = ()


def validate_config(*layers: dict) -> RunConfig:
    """Merge flat config dicts over CONFIG_DEFAULTS and return a typed RunConfig.

    Later layers win, and None values do not override earlier settings.
    Unknown keys are rejected rather than ignored so that a typo in a config
    file cannot silently fall back to a default.
    """
    cfg = dict(CONFIG_DEFAULTS)
    for layer in layers:
        cfg.update({k: v for k, v in layer.items() if v is not None})
    unknown = sorted(set(cfg) - set(CONFIG_DEFAULTS))
    if unknown:
        raise InvalidArgumentError(f"unknown config key: {unknown[0]!r}")

    m = cfg["m"]
    if isinstance(m, float) and m.is_integer():
        m = int(m)
    m = check_order(m)

    bc = cfg["bc"]
    if bc is not None:
        bc = check_bc(bc)

    def _int(name, lo):
        v = cfg[name]
        if isinstance(v, float) and v.is_integer():
            v = int(v)
        if not isinstance(v, int) or isinstance(v, bool) or v < lo:
            raise InvalidArgumentError(f"{name} must be an integer >= {lo}, got {cfg[name]!r}")
        return v

    def _float(name):  # an integer widens to float; anything else is left as given
        v = cfg[name]
        if not isinstance(v, int) or isinstance(v, bool):
            return v
        try:
            return float(v)
        except OverflowError:
            raise InvalidArgumentError(
                f"{name} must be a finite number, got an integer too large for a double"
            ) from None

    def _pos(name):
        v = _float(name)
        if not isinstance(v, float) or not isfinite(v) or v <= 0.0:
            raise InvalidArgumentError(f"{name} must be a positive finite number, got {cfg[name]!r}")
        return v

    n = _int("n", 1)
    count = _int("count", 1)
    k_max = _int("k_max", 1)
    seed = _int("seed", 0)
    length, lx, ly = _pos("length"), _pos("lx"), _pos("ly")
    perturb = _float("perturb")
    if not isinstance(perturb, float) or not isfinite(perturb) or perturb < 0.0:
        raise InvalidArgumentError(f"perturb must be a nonnegative finite number, got {cfg['perturb']!r}")
    tol = ToleranceConfig(**{name: _float(name) for name in ToleranceConfig._fields})
    return RunConfig(m=m, bc=bc, n=n, count=count, k_max=k_max,
                     length=length, lx=lx, ly=ly, seed=seed, perturb=perturb, tol=tol)
