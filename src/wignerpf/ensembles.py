"""Deterministic, seeded random matrix ensembles.

All randomness flows from a PCG64 uniform stream (published constants,
identical across platforms) through an explicit Box-Muller transform: one
complex Gaussian entry consumes two uniforms, entries are drawn in row-major
order.  numpy's own normal sampler is deliberately bypassed so the draw
sequence is pinned by this module, making generated matrices stable enough
for golden tests.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .normal_form import (
    COMPLEX_PAIR,
    NEGATIVE_REAL,
    POSITIVE_REAL,
    ZERO,
    _block,
    _block_key,
    assemble_sigma,
)

_CLASSES = (COMPLEX_PAIR, NEGATIVE_REAL, POSITIVE_REAL, ZERO)


def _complex_gaussians(rng: np.random.Generator, count: int) -> np.ndarray:
    """Standard complex Gaussians (Re, Im ~ N(0,1)) via Box-Muller."""
    u1 = rng.random(count)
    u2 = rng.random(count)
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0, 1], log never -inf
    return radius * np.exp(2j * np.pi * u2)


def random_ginibre(dim: int, seed: int) -> np.ndarray:
    """dim x dim matrix of i.i.d. standard complex Gaussian entries."""
    if dim < 1:
        raise InputError(f"dimension must be >= 1, got {dim}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    return _complex_gaussians(rng, dim * dim).reshape(dim, dim)


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Random unitary: QR of a Ginibre matrix, R's diagonal phases absorbed."""
    q, r = np.linalg.qr(random_ginibre(dim, seed))
    d = np.diag(r)
    d = np.where(d == 0, 1.0, d)
    return q * (d / np.abs(d))


@dataclass(frozen=True)
class SpectrumEntry:
    """One prescribed eigenvalue class of Lambda = A conj(A).

    kind
        "complex" (omega with Im > 0; the conjugate comes for free),
        "negative-real", "positive-real", or "zero".
    omega
        The eigenvalue; ignored for "zero".
    multiplicity
        Eigenspace dimension of omega in Lambda.  A "complex" entry of
        multiplicity k contributes 2k to the matrix dimension (omega and
        conj(omega) each have a k-dimensional eigenspace); a
        "negative-real" entry contributes its multiplicity, which must be
        even; "positive-real" and "zero" contribute their multiplicity.
    """

    kind: str
    omega: complex = 0j
    multiplicity: int = 1

    def __post_init__(self):
        if self.kind not in _CLASSES:
            raise InputError(f"unknown spectral class {self.kind!r}; expected one of {_CLASSES}")
        if self.multiplicity < 1:
            raise InputError("multiplicity must be >= 1")
        omega = complex(self.omega)
        if not cmath.isfinite(omega):
            raise InputError(f"spectrum entry omega must be finite, got {omega}")
        if self.kind == COMPLEX_PAIR and not omega.imag > 0:
            raise InputError(f"a complex entry needs Im(omega) > 0, got {omega}")
        if self.kind == NEGATIVE_REAL:
            if omega.imag != 0 or not omega.real < 0:
                raise InputError(f"a negative-real entry needs omega < 0, got {omega}")
            if self.multiplicity % 2:
                raise InputError(
                    "a negative-real entry needs even multiplicity, got "
                    f"{self.multiplicity}"
                )
        if self.kind == POSITIVE_REAL and (omega.imag != 0 or not omega.real > 0):
            raise InputError(f"a positive-real entry needs omega > 0, got {omega}")

    @property
    def dimension(self) -> int:
        return 2 * self.multiplicity if self.kind == COMPLEX_PAIR else self.multiplicity


@dataclass(frozen=True)
class SpectrumSpec:
    """A full prescription of the Lambda spectrum plus the generator seed.

    ``dim``, when given, must equal the dimension the entries assemble to
    (a consistency check for hand-written specs).
    """

    entries: tuple[SpectrumEntry, ...]
    seed: int = 0
    dim: int | None = field(default=None)

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise InputError("a spectrum needs at least one entry")
        object.__setattr__(self, "entries", entries)
        total = sum(e.dimension for e in entries)
        if self.dim is not None and self.dim != total:
            raise InputError(
                f"spectrum entries assemble to dimension {total}, but dim={self.dim} "
                "was requested"
            )

    @property
    def dimension(self) -> int:
        return sum(e.dimension for e in self.entries)

    @classmethod
    def from_json_dict(cls, data: dict) -> "SpectrumSpec":
        if not isinstance(data, dict):
            raise InputError("a spectrum document must be a JSON object")
        if "spectrum" not in data or not isinstance(data["spectrum"], list):
            raise InputError('a spectrum document needs a "spectrum" array')
        seed = data.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise InputError('"seed" must be an integer')
        entries = []
        for k, raw in enumerate(data["spectrum"]):
            if not isinstance(raw, dict) or "class" not in raw:
                raise InputError(f'spectrum entry {k} must be an object with a "class"')
            omega = raw.get("omega", 0)
            if not isinstance(omega, (list, tuple)):
                omega = (omega, 0.0)
            if len(omega) != 2 or any(
                isinstance(p, bool) or not isinstance(p, (int, float)) for p in omega
            ):
                raise InputError(f"spectrum entry {k}: omega must be a number or [re, im]")
            try:
                omega = complex(float(omega[0]), float(omega[1]))
            except OverflowError:  # an integer beyond the double range
                raise InputError(
                    f"spectrum entry {k}: omega is outside the double range"
                ) from None
            mult = raw.get("multiplicity", 1)
            if not isinstance(mult, int) or isinstance(mult, bool):
                raise InputError(f"spectrum entry {k}: multiplicity must be an integer")
            entries.append(SpectrumEntry(raw["class"], omega, mult))
        dim = data.get("dim")
        if dim is not None and (not isinstance(dim, int) or isinstance(dim, bool)):
            raise InputError('"dim" must be an integer when present')
        return cls(entries=tuple(entries), seed=seed, dim=dim)


def spectrum_blocks(spec: SpectrumSpec) -> tuple:
    """Canonically ordered block sequence for a spectrum prescription."""
    blocks = (_block(e.kind, e.omega, e.multiplicity) for e in spec.entries)
    return tuple(sorted(blocks, key=_block_key))


def random_conjugate_normal(spec: SpectrumSpec) -> np.ndarray:
    """A = U Sigma U^T with the prescribed Lambda spectrum and a seeded U.

    Conjugate-normal by construction (residual at rounding level); the
    spectrum of A conj(A) equals the prescription to working precision.
    """
    sigma = assemble_sigma(spectrum_blocks(spec))
    u = random_unitary(spec.dimension, spec.seed)
    return u @ sigma @ u.T
