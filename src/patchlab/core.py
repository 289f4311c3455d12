"""Shared value types and small numerical primitives.

Conventions used throughout the package:

* Local fields around a tooth are stored as Taylor polynomials with *raw
  derivative coefficients*: ``p(x) = sum_k c[k] (x - center)**k / k!``.
  Factorials live in the evaluation routines, never in the stored
  coefficients, so ``c[k]`` is directly comparable to a k-th derivative.
* Macroscopic grids are uniform with periodic topology.
* Randomness is counter-based.  Every stream is addressed by a
  ``(master_seed, stream_id, step_id)`` triple and yields the same numbers
  no matter in which order streams are consumed, which makes ensemble and
  multi-tooth runs reproducible under any evaluation order.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "TaylorPolynomial",
    "MacroState",
    "PdeSpec",
    "ToothConfig",
    "RngStreamSpec",
    "poly_eval",
    "poly_average",
    "average_weights",
    "generator",
    "normal_stream",
    "ensemble_normals",
]


@dataclass(frozen=True)
class TaylorPolynomial:
    """Polynomial in raw-derivative form around ``center``.

    ``coeffs[k]`` is the k-th derivative of the represented field at the
    center, i.e. the polynomial is ``sum_k coeffs[k] (x-center)^k / k!``.
    """

    center: float
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("TaylorPolynomial needs at least one coefficient")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("TaylorPolynomial coefficients must be finite")
        center = float(self.center)
        if not math.isfinite(center):
            raise ValueError("TaylorPolynomial center must be finite")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "center", center)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class MacroState:
    """Field values on a uniform periodic grid.

    ``values[j]`` lives at ``x = j*dx`` on a domain of length ``n*dx``.
    Values are stored read-only.  Non-finite entries are allowed so that
    stability probes can observe a diverging scheme instead of crashing.
    """

    values: np.ndarray
    dx: float
    time: float = 0.0

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or values.size < 3:
            raise ValueError("MacroState needs a 1-d array of at least 3 values")
        values.setflags(write=False)
        dx = float(self.dx)
        if not (math.isfinite(dx) and dx > 0):
            raise ValueError("MacroState dx must be positive and finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "time", float(self.time))

    @property
    def n_points(self) -> int:
        return int(self.values.size)

    def grid(self) -> np.ndarray:
        return np.arange(self.n_points) * self.dx


@dataclass(frozen=True, init=False)
class PdeSpec:
    """Constant-coefficient linear evolution ``du/dt = sum_r a_r d^r u/dx^r``.

    Stored as ``terms``, a sorted tuple of ``(order, coefficient)`` pairs
    with zero coefficients dropped.
    """

    terms: tuple[tuple[int, float], ...]

    def __init__(self, coefficients: Mapping[int, float]) -> None:
        items = []
        for order, a in dict(coefficients).items():
            order = int(order)
            a = float(a)
            if order < 1:
                raise ValueError("derivative orders must be >= 1")
            if not math.isfinite(a):
                raise ValueError("coefficients must be finite")
            if a != 0.0:
                items.append((order, a))
        object.__setattr__(self, "terms", tuple(sorted(items)))

    @classmethod
    def heat(cls, diffusivity: float = 1.0) -> "PdeSpec":
        """du/dt = diffusivity * u_xx."""
        return cls({2: diffusivity})

    @classmethod
    def advection(cls, velocity: float = 1.0) -> "PdeSpec":
        """Transport to the right at ``velocity``: du/dt = -velocity * u_x."""
        return cls({1: -velocity})

    @classmethod
    def biharmonic(cls, coefficient: float = 1.0) -> "PdeSpec":
        """du/dt = -coefficient * u_xxxx (dissipative for coefficient > 0)."""
        return cls({4: -coefficient})

    @property
    def max_order(self) -> int:
        return self.terms[-1][0] if self.terms else 0


@dataclass(frozen=True)
class ToothConfig:
    """Tooth of width ``h`` inside a micro patch of width ``H``.

    ``H = math.inf`` selects the idealized exact micro solver with no
    boundary; finite ``H`` is required for the buffered finite-difference
    solver.
    """

    h: float
    H: float = math.inf

    def __post_init__(self) -> None:
        h = float(self.h)
        H = float(self.H)
        if not (math.isfinite(h) and h > 0):
            raise ValueError("tooth width h must be positive and finite")
        if H < h:
            raise ValueError("patch width H must be >= tooth width h")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "H", H)

    @property
    def buffer_width(self) -> float:
        return (self.H - self.h) / 2.0


@dataclass(frozen=True)
class RngStreamSpec:
    """Address of one reproducible stream of standard normals.

    Distinct triples give statistically independent streams; identical
    triples give bit-identical draws.  ``stream_id`` conventionally indexes
    a replica or tooth, ``step_id`` a macro time step.
    """

    master_seed: int
    stream_id: int = 0
    step_id: int = 0

    def __post_init__(self) -> None:
        seed = int(self.master_seed)
        if not 0 <= seed < 2**64:
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        stream = int(self.stream_id)
        step = int(self.step_id)
        if stream < 0 or step < 0:
            raise ValueError("stream_id and step_id must be non-negative")
        object.__setattr__(self, "master_seed", seed)
        object.__setattr__(self, "stream_id", stream)
        object.__setattr__(self, "step_id", step)

    def at(self, *, stream_id: int | None = None, step_id: int | None = None) -> "RngStreamSpec":
        """Same master seed, different stream/step address."""
        return RngStreamSpec(
            self.master_seed,
            self.stream_id if stream_id is None else stream_id,
            self.step_id if step_id is None else step_id,
        )

    def steps(self, n: int) -> Iterator["RngStreamSpec"]:
        """The addresses at ``step_id, step_id + 1, ...`` of ``n`` successive steps.

        They differ from this validated address only in a larger step id, so
        they are built without validating each one again.
        """
        fields = {"master_seed": self.master_seed, "stream_id": self.stream_id}
        for step_id in range(self.step_id, self.step_id + int(n)):
            spec = object.__new__(RngStreamSpec)
            spec.__dict__.update(fields, step_id=step_id)
            yield spec


def poly_eval(p: TaylorPolynomial, x):
    """Evaluate ``p`` at ``x`` (scalar or array)."""
    y = np.asarray(x, dtype=float) - p.center
    out = np.full_like(y, p.coeffs[0])
    term = np.ones_like(y)
    for k in range(1, len(p.coeffs)):
        term = term * y / k  # y^k / k!
        out = out + p.coeffs[k] * term
    return float(out) if out.ndim == 0 else out


def average_weights(degree: int, h: float) -> np.ndarray:
    """Weights w with ``poly_average(p, h) == w @ p.coeffs`` for ``p`` of ``degree``.

    Odd orders integrate to zero over a centered tooth; even order k
    contributes ``h^k / (k! (k+1) 2^k)``.  The array is cached and read-only.
    """
    degree = int(degree)
    if degree < 0:
        raise ValueError("degree must be >= 0")
    h = float(h)
    if not (math.isfinite(h) and h > 0):
        raise ValueError("tooth width h must be positive and finite")
    return _average_weights(degree, h)


@functools.lru_cache(maxsize=64)
def _average_weights(degree: int, h: float) -> np.ndarray:
    w = np.zeros(degree + 1)
    for k in range(0, degree + 1, 2):
        w[k] = h**k / (math.factorial(k) * (k + 1) * 2**k)
    w.setflags(write=False)
    return w


def poly_average(p: TaylorPolynomial, h: float) -> float:
    """Average of ``p`` over the tooth ``[center - h/2, center + h/2]``."""
    w = average_weights(p.degree, h)
    return float(w @ np.asarray(p.coeffs))


def generator(spec: RngStreamSpec) -> np.random.Generator:
    """Counter-based generator for one stream address.

    Philox keyed through a SeedSequence on ``(master_seed, stream_id,
    step_id)``: the construction is stateless, so consuming streams in any
    order (or in parallel) cannot change what each stream returns.
    """
    seq = np.random.SeedSequence(
        entropy=spec.master_seed, spawn_key=(spec.stream_id, spec.step_id)
    )
    return np.random.Generator(np.random.Philox(seq))


def normal_stream(spec: RngStreamSpec, n: int) -> np.ndarray:
    """``n`` standard normals from the stream at ``spec``."""
    n = int(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    return generator(spec).standard_normal(n)


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx), 32-bit words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_KEY_BLOCK = 1024


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of ``n``, one word for 0, as SeedSequence splits ints."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hasher(hash_const: int, mult: int):
    """SeedSequence's ``hashmix`` step on ``uint32`` arrays, its constant advancing per call."""

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * mult) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x, y):
    result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return result ^ (result >> np.uint32(16))


@functools.lru_cache(maxsize=64)
def _key_block(master_seed: int, stream_id: int, block: int) -> np.ndarray:
    """Philox keys of ``generator`` for step ids ``block*1024 ... block*1024 + 1023``.

    Row ``i``, read-only ``uint64``, is ``SeedSequence(master_seed,
    spawn_key=(stream_id, block*1024 + i)).generate_state(2, uint64)``,
    computed for the whole block in one pass over ``uint32`` arrays, which
    wrap as the C hash does.  A block never straddles a multiple of 2**32,
    so only the low word of ``step_id`` varies within it and every key of
    the block hashes the same number of words.
    """
    first = block * _KEY_BLOCK
    low = first & _MASK32

    def const(n):
        return [np.full(_KEY_BLOCK, w, dtype=np.uint32) for w in _words(n)]

    # the seed's words zero-padded to the pool size, then the spawn key's
    entropy = const(master_seed)
    entropy += [np.zeros(_KEY_BLOCK, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))
    entropy += const(stream_id)
    entropy.append(np.arange(low, low + _KEY_BLOCK, dtype=np.uint32))
    if first >> 32:
        entropy += const(first >> 32)

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    # generate_state(2, uint64): four words, paired little-endian
    output = _hasher(_INIT_B, _MULT_B)
    w0, w1, w2, w3 = (output(value).astype(np.uint64) for value in pool)
    shift = np.uint64(32)
    keys = np.stack([w0 | w1 << shift, w2 | w3 << shift], axis=1)
    keys.setflags(write=False)
    return keys


_ZEROS = (0, 0, 0, 0)
_thread_philox = threading.local()


def ensemble_normals(spec: RngStreamSpec, n_members: int, n_draws: int) -> np.ndarray:
    """Member-major block of standard normals for one macro step.

    Row ``j`` is the draw sequence of ensemble member ``j``.  The whole
    block comes from the single stream at ``spec``, laid out member-major,
    so per-member results do not depend on the order members are advanced.

    The numbers are those of ``generator(spec).standard_normal((n_members,
    n_draws))``.  The stream is opened by resetting this thread's Philox to
    the stream's key, taken from a cached block of keys, with counter 0 and
    an empty buffer, as a fresh ``Philox`` starts.
    """
    n_members = int(n_members)
    n_draws = int(n_draws)
    if n_members < 1 or n_draws < 0:
        raise ValueError("need n_members >= 1 and n_draws >= 0")
    step = spec.step_id
    keys = _key_block(spec.master_seed, spec.stream_id, step // _KEY_BLOCK)
    try:
        philox, gen = _thread_philox.pair
    except AttributeError:
        philox = np.random.Philox(0)
        gen = np.random.Generator(philox)
        _thread_philox.pair = philox, gen
    philox.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": keys[step % _KEY_BLOCK].tolist()},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen.standard_normal((n_members, n_draws))
