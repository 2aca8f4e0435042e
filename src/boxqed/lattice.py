"""Reciprocal-lattice mode sets and transverse polarization frames on a periodic box.

The box is V = [-L1/2, L1/2] x [-L2/2, L2/2] x [-L3/2, L3/2].  Wave vectors are
k = 2*pi*(s1/L1, s2/L2, s3/L3) with integer s and s != 0.  A mode set Lambda keeps
every such k with |s_i| <= M; its halving Lambda' keeps one representative per
{k, -k} pair.  All arithmetic is carried in the integers s, and k is derived on
demand, so set membership is exact.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * math.pi

# Each configuration key with the SimulationConfig field it sets and, for the
# box lengths and cutoffs, its index in that field's triple.
_CONFIG_KEYS = {
    "L1": ("L", 0), "L2": ("L", 1), "L3": ("L", 2),
    "M1": ("M", 0), "M2": ("M", 1), "M3": ("M", 2),
    "hbar": ("hbar", None), "c": ("c_light", None),
    "n_particles": ("n_particles", None), "masses": ("masses", None),
    "charges": ("charges", None), "sigma_psi": ("sigma_psi", None),
    "width_g": ("width_g", None),
}


def _whole(value) -> bool:
    """True for a finite number with no fractional part."""
    try:
        return math.isfinite(value) and int(value) == value
    except TypeError:
        return False


@dataclass(frozen=True)
class SimulationConfig:
    """Box geometry, cutoffs, physical constants and mollifier knobs.

    ``L`` are the box edge lengths, ``M`` the three integer mode cutoffs with
    M2 <= M3.
    """

    L: tuple[float, float, float] = (TWO_PI, TWO_PI, TWO_PI)
    M: tuple[int, int, int] = (1, 1, 1)
    hbar: float = 1.0
    c_light: float = 1.0
    n_particles: int = 0
    masses: tuple[float, ...] = ()
    charges: tuple[float, ...] = ()
    sigma_psi: float = 50.0
    width_g: float = 1.0e6

    def __post_init__(self):
        self.validate()

    @property
    def volume(self) -> float:
        return self.L[0] * self.L[1] * self.L[2]

    def validate(self) -> None:
        if len(self.L) != 3 or any(not (0.0 < length < math.inf) for length in self.L):
            raise ConfigError("box lengths L must be three finite positive reals")
        if len(self.M) != 3 or any(not _whole(m) or m < 1 for m in self.M):
            raise ConfigError("cutoffs M must be three positive integers")
        if self.M[1] > self.M[2]:
            raise ConfigError(
                f"cutoff constraint M2 <= M3 violated: M2={self.M[1]}, M3={self.M[2]}"
            )
        if not (0.0 < self.hbar < math.inf and 0.0 < self.c_light < math.inf):
            raise ConfigError("hbar and c must be positive and finite")
        if not _whole(self.n_particles) or self.n_particles < 0:
            raise ConfigError("n_particles must be a non-negative integer")
        if len(self.masses) != self.n_particles or len(self.charges) != self.n_particles:
            raise ConfigError(
                "masses and charges must each have length n_particles "
                f"(got {len(self.masses)}, {len(self.charges)} for n={self.n_particles})"
            )
        if any(not (0.0 < m < math.inf) for m in self.masses):
            raise ConfigError("particle masses must be positive and finite")
        if not all(math.isfinite(e) for e in self.charges):
            raise ConfigError("particle charges must be finite")
        if not (0.0 < self.sigma_psi < math.inf and 0.0 < self.width_g < math.inf):
            raise ConfigError(
                "mollifier parameters sigma_psi and width_g must be positive and finite")

    @classmethod
    def from_file(cls, path) -> "SimulationConfig":
        """Read a plain-text ``key = value`` configuration file.

        Lines starting with ``#`` and blank lines are ignored.  List-valued
        keys (masses, charges) take comma-separated numbers.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read configuration file {path}: {exc}") from exc
        raw: dict[str, str] = {}
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            raw[key] = value.strip()
        return cls.from_mapping(raw)

    @classmethod
    def from_mapping(cls, raw: Mapping) -> "SimulationConfig":
        """Read the ``_CONFIG_KEYS`` entries of ``raw``; others are ignored.

        Each value is read from its text, as in a file: it takes its
        default's type, and masses and charges are comma lists.
        """
        if not isinstance(raw, Mapping):
            raise ConfigError(
                f"a configuration is a key = value mapping, got {type(raw).__name__}")
        defaults, fields = cls(), {}
        try:
            for key, (name, index) in _CONFIG_KEYS.items():
                value = defaults._key_value(key)
                text = str(raw.get(key, "")).strip()
                if key in raw and isinstance(value, tuple):
                    value = tuple(float(tok) for tok in text.split(",")) if text else ()
                elif key in raw:
                    value = type(value)(text)
                # the keys of a triple come in index order
                fields[name] = value if index is None else fields.get(name, ()) + (value,)
            return cls(**fields)
        except ValueError as exc:
            raise ConfigError(f"malformed configuration value: {exc}") from exc

    def _key_value(self, key: str):
        name, index = _CONFIG_KEYS[key]
        value = getattr(self, name)
        return value if index is None else value[index]

    def as_dict(self) -> dict:
        """The flat key = value form; masses and charges as comma lists."""
        flat = {key: self._key_value(key) for key in _CONFIG_KEYS}
        return {key: ",".join("%.17g" % v for v in value) if isinstance(value, tuple) else value
                for key, value in flat.items()}


@dataclass(frozen=True)
class WaveVector:
    """A reciprocal-lattice point, stored as its integer triple s.

    ``k`` is recomputed from s and the box lengths on every access, so it is
    exactly reproducible and never accumulates drift.
    """

    s: tuple[int, int, int]
    L: tuple[float, float, float]

    @property
    def k(self) -> np.ndarray:
        return np.array([TWO_PI * self.s[i] / self.L[i] for i in range(3)])

    @property
    def norm(self) -> float:
        k = self.k
        return math.sqrt(k[0] ** 2 + k[1] ** 2 + k[2] ** 2)

    def negated(self) -> "WaveVector":
        return WaveVector((-self.s[0], -self.s[1], -self.s[2]), self.L)

    def is_zero(self) -> bool:
        return self.s == (0, 0, 0)


def _positive_representative(s: tuple[int, int, int]) -> bool:
    """True when the first nonzero component of s is positive."""
    for comp in s:
        if comp != 0:
            return comp > 0
    return False


@dataclass(frozen=True)
class ModeSet:
    """A cutoff mode set Lambda together with its halving Lambda'.

    ``k`` (N, 3) and ``k_norm`` (N,) hold the wave vectors of Lambda' and
    their lengths, built once with the same arithmetic as ``WaveVector.k``
    and ``WaveVector.norm``.
    """

    lam: tuple[WaveVector, ...]
    lam_prime: tuple[WaveVector, ...]
    L: tuple[float, float, float]
    _prime_index: dict = field(default_factory=dict, compare=False, repr=False)
    k: np.ndarray = field(init=False, compare=False, repr=False)
    k_norm: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_prime_index", {wv.s: i for i, wv in enumerate(self.lam_prime)}
        )
        s = np.array([wv.s for wv in self.lam_prime], dtype=float).reshape(-1, 3)
        k = TWO_PI * s / np.asarray(self.L, dtype=float)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "k_norm", np.sqrt(np.sum(k * k, axis=1)))

    @property
    def N(self) -> int:
        return len(self.lam_prime)

    def prime_index(self, s: tuple[int, int, int]) -> int:
        return self._prime_index[s]

    def variable_offset(self, l: int, s, i: int) -> int:
        """Flat offset 4*k_index + 2*(l-1) + (i-1) of field variable (l, k, i)."""
        if l not in (1, 2) or i not in (1, 2):
            raise ConfigError(f"polarization l and component i must be 1 or 2, got l={l}, i={i}")
        return 4 * self.prime_index(tuple(s)) + 2 * (l - 1) + (i - 1)

    def contains_prime(self, s: tuple[int, int, int]) -> bool:
        return s in self._prime_index

    @classmethod
    def from_s_triples(cls, triples, L) -> "ModeSet":
        """Build a mode set from explicit halved representatives.

        Used for desk-scale studies that need a hand-picked Lambda' (for
        example a single coupling mode); ``build_mode_set`` is the standard
        cutoff-driven constructor.
        """
        prime = []
        for s in sorted(tuple(int(c) for c in s) for s in triples):
            if s == (0, 0, 0):
                raise ConfigError("mode set members must have s != 0")
            if not _positive_representative(s):
                raise ConfigError(
                    f"halved representative {s} must have positive first nonzero component"
                )
            prime.append(WaveVector(s, tuple(L)))
        full = sorted(
            [wv for wv in prime] + [wv.negated() for wv in prime], key=lambda wv: wv.s
        )
        return cls(lam=tuple(full), lam_prime=tuple(prime), L=tuple(L))


def build_mode_set(config: SimulationConfig, which: int) -> ModeSet:
    """Construct Lambda_j and its halving for cutoff index ``which`` in {1,2,3}.

    The halving rule keeps s whose first nonzero component is positive, which
    picks exactly one member of every {s, -s} pair.
    """
    if which not in (1, 2, 3):
        raise ConfigError(f"cutoff index must be 1, 2, or 3, got {which}")
    M = config.M[which - 1]
    span = range(-M, M + 1)
    prime = [(s1, s2, s3) for s1 in span for s2 in span for s3 in span
             if _positive_representative((s1, s2, s3))]
    return ModeSet.from_s_triples(prime, config.L)


@dataclass(frozen=True)
class PolarizationFrame:
    """Map k -> (e1(k), e2(k)) with e_j(-k) = -e_j(k) and {e1, e2, k/|k|} orthonormal."""

    _vectors: dict

    def e(self, wv: WaveVector) -> tuple[np.ndarray, np.ndarray]:
        return self._vectors[wv.s]


def _reference_frame(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    khat = k / np.linalg.norm(k)
    up = np.array([0.0, 0.0, 1.0])
    if np.linalg.norm(np.cross(k, up)) < 1.0e-8:
        up = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(up, khat)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(khat, e1)
    return e1, e2


def build_polarization(modes: ModeSet) -> PolarizationFrame:
    """Orthonormal transverse frames on Lambda', extended to -k by negation.

    The construction is deterministic: cross the reference direction (0,0,1),
    or (0,1,0) when k is within 1e-8 of the z axis, with k/|k| and complete
    the right-handed triple.  Negating both vectors on -k enforces the parity
    constraint exactly.
    """
    vectors: dict = {}
    for wv in modes.lam_prime:
        if wv.is_zero():
            raise ConfigError("polarization frame is undefined at k = 0")
        e1, e2 = _reference_frame(wv.k)
        vectors[wv.s] = (e1, e2)
        vectors[wv.negated().s] = (-e1, -e2)
    return PolarizationFrame(_vectors=vectors)
