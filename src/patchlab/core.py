"""Shared value types and small numerical primitives.

Conventions used throughout the package:

* The local field around a tooth is a row of *raw derivative
  coefficients* about the tooth center, the polynomial
  ``sum_k c[k] (x - center)**k / k!``; a stack of teeth is an array of
  shape ``(n_teeth, degree+1)``.  Factorials live in the operators that
  act on a row (``average_weights``, ``micro.propagator_matrix``), never
  in the stored coefficients, so ``c[k]`` is directly comparable to a
  k-th derivative.
* Macroscopic grids are uniform with periodic topology.
* Randomness is counter-based.  Every stream is addressed by a
  ``(master_seed, stream_id, step_id)`` triple and yields the same numbers
  no matter in which order streams are consumed, which makes ensemble and
  multi-tooth runs reproducible under any evaluation order.
"""

from __future__ import annotations

import functools
import inspect
import math
import threading
from typing import Iterator

import numpy as np

__all__ = [
    "MacroState",
    "PdeSpec",
    "ToothConfig",
    "RngStreamSpec",
    "replace",
    "average_weights",
    "generator",
    "ensemble_normals",
]


_object_setattr = object.__setattr__


def _astuple(obj) -> tuple:
    return tuple([getattr(obj, name) for name in obj._value_fields])


def _value_init(self, *args, **kwargs) -> None:
    cls = type(self)
    names = cls._value_fields
    if kwargs or len(args) != len(names):
        try:
            bound = cls.__signature__.bind(*args, **kwargs)
        except TypeError as err:
            raise TypeError(f"{cls.__name__}(): {err}") from None
        bound.apply_defaults()
        args = bound.arguments.values()
    # set one by one, as a dataclass does, so the instance keeps the compact
    # attribute storage that makes reading a field fast
    for name, value in zip(names, args):
        _object_setattr(self, name, value)
    post_init = getattr(cls, "__post_init__", None)
    if post_init is not None:
        for name, value in (post_init(self) or {}).items():
            _object_setattr(self, name, value)


def _value_setattr(self, name, value) -> None:
    raise AttributeError(f"cannot assign to field {name!r} of immutable {type(self).__name__}")


def _value_delattr(self, name) -> None:
    raise AttributeError(f"cannot delete field {name!r} of immutable {type(self).__name__}")


def _value_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _astuple(self) == _astuple(other)


def _value_hash(self) -> int:
    return hash(_astuple(self))


def _value_repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._value_fields)
    return f"{type(self).__qualname__}({fields})"


_VALUE_METHODS = {
    "__init__": _value_init,
    "__setattr__": _value_setattr,
    "__delattr__": _value_delattr,
    "__eq__": _value_eq,
    "__hash__": _value_hash,
    "__repr__": _value_repr,
}


def value_type(cls: type) -> type:
    """Class decorator: an immutable value over the class's annotated fields.

    The fields are the class's own annotations, in order, and a class
    attribute of the same name is the field's default.  Arguments bind as in
    a Python call to the class's ``__signature__``, and a binding
    ``TypeError`` names the class.  Then ``__post_init__`` runs if it exists:
    it checks the fields and returns a mapping of those it normalised, stored
    in place of the values given, or ``None`` to keep them.  Instances refuse
    assignment and deletion, compare and hash by the tuple of their fields,
    and show them in their ``repr``.  Unlike ``dataclasses`` the decorator
    compiles no code, which keeps importing the package cheap.
    """
    names = tuple(cls.__annotations__)
    cls._value_fields = names
    cls.__signature__ = inspect.Signature([
        inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                          default=vars(cls).get(name, inspect.Parameter.empty))
        for name in names
    ])
    for name, method in _VALUE_METHODS.items():
        setattr(cls, name, method)
    return cls


def replace(obj, /, **changes):
    """A copy of the value ``obj`` with the named fields changed, built and checked anew."""
    if not hasattr(type(obj), "_value_fields"):
        raise TypeError(f"replace() needs a value type, not {type(obj).__name__}")
    return type(obj)(**dict(zip(obj._value_fields, _astuple(obj)), **changes))


def positive(value, name: str) -> float:
    """``value`` as a float; ``ValueError`` naming ``name`` unless it is positive and finite."""
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite")
    return value


def _whole(value) -> int | None:
    """``int(value)`` if that drops nothing from ``value``, else None; text is read as decimal."""
    try:
        whole = int(value)
    except (ValueError, OverflowError):  # text that is no integer, nan, inf
        return None
    return whole if isinstance(value, str) or whole == value else None


def at_least(value, minimum: int, name: str) -> int:
    """``value`` as an int; ``ValueError`` naming ``name`` unless it is whole and >= ``minimum``."""
    whole = _whole(value)
    if whole is None:
        raise ValueError(f"{name} must be an integer")
    if whole < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return whole


def unsigned_seed(value, name: str) -> int:
    """``value``, or its decimal text, as an int; ``ValueError`` naming ``name`` unless it
    is a whole number in ``[0, 2**64)``, the seeds a ``SeedSequence`` takes."""
    whole = _whole(value)
    if whole is None or not 0 <= whole < 2**64:
        raise ValueError(f"{name} must be an unsigned 64-bit integer")
    return whole


# the most steps one stepping loop may take; the repository's configs need at
# most 519 macro, 3,200 leapfrog and 5,120 finite-difference steps
_MAX_STEPS = 10**7


def step_cap(n_steps, name: str, value: int | float, unit: str, step: float | None = None) -> None:
    """``ValueError: <name> <value> needs more than <cap> <unit> [<step>]`` past the step cap.

    ``n_steps`` may be a float estimate, so an infinite or NaN count is refused.
    An int ``value`` is printed in full, a float one with ``:g``.
    """
    if not n_steps <= _MAX_STEPS:
        of = "" if step is None else f" {step:g}"
        shown = value if isinstance(value, int) else f"{value:g}"
        raise ValueError(f"{name} {shown} needs more than {_MAX_STEPS} {unit}{of}")


def frozen_array(value) -> np.ndarray:
    """``value`` as a read-only float64 copy, which no later write to ``value`` reaches."""
    array = np.array(value, dtype=float)
    array.setflags(write=False)
    return array


@value_type
class MacroState:
    """Field values on a uniform periodic grid.

    ``values[j]`` lives at ``x = j*dx`` on a domain of length ``n*dx``.
    Values are stored read-only.  Non-finite entries are allowed so that
    stability probes can observe a diverging scheme instead of crashing.
    """

    values: np.ndarray
    dx: float
    time: float = 0.0

    def __post_init__(self) -> dict:
        values = frozen_array(self.values)
        if values.ndim != 1 or values.size < 3:
            raise ValueError("MacroState needs a 1-d array of at least 3 values")
        return {"values": values, "dx": positive(self.dx, "MacroState dx"),
                "time": float(self.time)}

    @property
    def n_points(self) -> int:
        return int(self.values.size)

    def grid(self) -> np.ndarray:
        return np.arange(self.n_points) * self.dx


@value_type
class PdeSpec:
    """Constant-coefficient linear evolution ``du/dt = sum_r a_r d^r u/dx^r``.

    ``terms``, a mapping ``{order: coefficient}`` or ``(order, coefficient)``
    pairs of distinct orders, is stored as sorted pairs without zero terms.
    """

    terms: tuple[tuple[int, float], ...]

    def __post_init__(self) -> dict:
        coefficients = dict(self.terms)
        orders = [_whole(order) for order in coefficients]
        if None in orders:
            raise ValueError("derivative orders must be integers")
        if len(set(orders)) != len(self.terms):
            raise ValueError("derivative orders must be distinct")
        items = []
        for order, a in zip(orders, coefficients.values()):
            a = float(a)
            if order < 1:
                raise ValueError("derivative orders must be >= 1")
            if not math.isfinite(a):
                raise ValueError("coefficients must be finite")
            if a != 0.0:
                items.append((order, a))
        return {"terms": tuple(sorted(items))}

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


@value_type
class ToothConfig:
    """Tooth of width ``h`` inside a micro patch of width ``H``.

    ``H = math.inf`` (the default) means no patch boundary, which suits the
    idealized exact micro solver; the buffered finite-difference solver
    needs a finite ``H``.  ``PatchConfig.evolution`` selects the solver.
    """

    h: float
    H: float = math.inf

    def __post_init__(self) -> dict:
        h = positive(self.h, "tooth width h")
        H = float(self.H)
        if not H >= h:  # also rejects nan
            raise ValueError("patch width H must be >= tooth width h")
        return {"h": h, "H": H}

    @property
    def buffer_width(self) -> float:
        return (self.H - self.h) / 2.0


@value_type
class RngStreamSpec:
    """Address of one reproducible stream of standard normals.

    Distinct triples give statistically independent streams; identical
    triples give bit-identical draws.  ``stream_id`` conventionally indexes
    a replica or tooth, ``step_id`` a macro time step.
    """

    master_seed: int
    stream_id: int = 0
    step_id: int = 0

    def __post_init__(self) -> dict:
        return {"master_seed": unsigned_seed(self.master_seed, "master_seed"),
                "stream_id": at_least(self.stream_id, 0, "stream_id"),
                "step_id": at_least(self.step_id, 0, "step_id")}

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
        for step_id in range(self.step_id, self.step_id + at_least(n, 0, "n")):
            spec = object.__new__(RngStreamSpec)
            spec.__dict__.update(fields, step_id=step_id)
            yield spec


def average_weights(degree: int, h: float) -> np.ndarray:
    """Weights w with ``c @ w`` the average of the coefficient row ``c`` over its tooth.

    The tooth is ``[center - h/2, center + h/2]`` for a row of ``degree``.
    Odd orders integrate to zero over it; even order k contributes
    ``h^k / (k! (k+1) 2^k)``.  The array is cached and read-only; weights
    that overflow a float raise ``ValueError``.
    """
    return _average_weights(at_least(degree, 0, "degree"), positive(h, "tooth width h"))


@functools.lru_cache(maxsize=64)
def _average_weights(degree: int, h: float) -> np.ndarray:
    w = np.zeros(degree + 1)
    for k in range(0, degree + 1, 2):
        try:
            w[k] = h**k / (math.factorial(k) * (k + 1) * 2**k)
        except OverflowError:
            raise ValueError(f"average weights overflow at degree {degree}, h = {h!r}") from None
    return frozen_array(w)


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
    n_members = at_least(n_members, 1, "n_members")
    n_draws = at_least(n_draws, 0, "n_draws")
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
