"""Scalars and vectors over the dual-real algebra.

The scalar type is the two-dimensional commutative algebra R + R*eps with
eps**2 = 0: every element is written re + ze*eps.  Elements with re = 0 are
the zero divisors; everything else is invertible.  Vectors come in split
shape (n, m): n head slots holding full dual scalars and m tail slots
holding the real coefficient r of an implicit r*eps entry.  Storing the bare
coefficient makes a further eps multiplication annihilate tail slots by
construction.  A vector is stored as its 2n + m realified reals (head re
parts, head ze parts, tail coefficients) in one read-only array, and vector
operations are array operations on it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import FrozenInstanceError, dataclass

import numpy as np

DEFAULT_TOL = 1e-9

_setattr = object.__setattr__  # sets a field of a frozen dataclass

_default_tol = DEFAULT_TOL


class NotInvertible(ValueError):
    """Raised when inverting a scalar whose real part is (near) zero."""


class ShapeMismatch(ValueError):
    """Raised when operands disagree on (n, m) shape."""


def default_tol() -> float:
    return _default_tol


def set_default_tol(tol: float) -> None:
    """Set the library-wide absolute tolerance for zero tests (see
    _valid_tol)."""
    global _default_tol
    _default_tol = _valid_tol(tol)


def resolve_tol(tol: float | None) -> float:
    """The default zero tolerance when tol is None, else tol checked as
    set_default_tol checks it."""
    return _default_tol if tol is None else _valid_tol(tol)


def _valid_tol(tol) -> float:
    """tol as a zero tolerance: finite and at least 2**-537, so a re part
    that passes has a nonzero square to divide by; else ValueError."""
    tol = float(tol)
    if not 2.0**-537 <= tol < math.inf:
        raise ValueError("tolerance must be finite and at least 2**-537, got %r" % tol)
    return tol


def valid_bound(tol, what: str) -> None:
    """Raise ValueError naming what unless tol, a bound that a measured
    residual or quotient must stay within, is finite and at least 0."""
    if not 0.0 <= tol < math.inf:
        raise ValueError("%s must be finite and at least 0, got %r" % (what, tol))


def as_index(value, what: str) -> int:
    """An exact nonnegative integer, as every size, slot and chart index
    is: ints and numpy integers pass; negatives, bools and floats such as
    1.7 or 1.0 raise ValueError instead of being truncated."""
    try:
        index = -1 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        index = -1
    if index < 0:
        raise ValueError("%s must be a nonnegative integer, got %r" % (what, value))
    return index


def json_fields(data, what: str, keys) -> list:
    """The values of keys in data, an object that must hold every one.
    This and the two readers below serve every from_json: each returns
    what it checked or raises ValueError naming what."""
    if not isinstance(data, dict):
        raise ValueError("%s must be an object, got %r" % (what, data))
    for key in keys:
        if key not in data:
            raise ValueError("%s is missing field %r" % (what, key))
    return [data[key] for key in keys]


def json_list(data, what: str) -> list:
    if not isinstance(data, (list, tuple)):
        raise ValueError("%s must be a list, got %r" % (what, data))
    return data


def json_grid(data, shape: tuple[int, ...], what: str) -> np.ndarray:
    """data as a float array of the given shape: lists nested exactly
    len(shape) deep with those lengths, holding numbers (ints and floats,
    numpy floats included; bools are not numbers).  Checked one nesting
    level per pass, by the set of types and lengths on that level."""
    level = [data]
    for size in shape:
        if not (set(map(type, level)) <= {list, tuple} and set(map(len, level)) <= {size}):
            break
        level = list(itertools.chain.from_iterable(level))
    else:
        if all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, level))):
            return np.array(level, dtype=float).reshape(shape)
    kind = "list of %d" % shape[0] if len(shape) == 1 else "%s array of" % " x ".join(map(str, shape))
    raise ValueError("%s must be a %s numbers, got %.80r" % (what, kind, data))


def json_writer(*keys):
    """A to_json method writing the named attributes in order: an object
    with its own to_json goes through it, a tuple or list becomes a new
    list and a dict a new dict, each with its items written by the same
    rule, and any other value is kept, so no container is shared."""

    def to_json(self) -> dict:
        return {key: _json_value(getattr(self, key)) for key in keys}

    return to_json


def _json_value(value):
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    return value


@dataclass(frozen=True, init=False)
class DualNumber:
    """A scalar re + ze*eps with eps**2 = 0."""

    re: float = 0.0
    ze: float = 0.0

    def __init__(self, re=0.0, ze=0.0):
        # each field set once, not through __dict__: a materialized dict
        # would make each of the many long-lived scalars 2.5x larger
        _setattr(self, "re", float(re))
        _setattr(self, "ze", float(ze))
        self.__post_init__()

    def __post_init__(self):
        """Run once per scalar built, after its fields are set, as in a
        dataclass: the benchmark's tracer counts constructions here."""

    def __add__(self, other):
        other = _coerce(other)
        return DualNumber(self.re + other.re, self.ze + other.ze)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return DualNumber(self.re - other.re, self.ze - other.ze)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return DualNumber(-self.re, -self.ze)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return mul(self, inv(_coerce(other)))

    def is_zero(self, tol: float | None = None) -> bool:
        tol = resolve_tol(tol)
        return abs(self.re) <= tol and abs(self.ze) <= tol

    def to_json(self) -> list[float]:
        return [self.re, self.ze]

    @classmethod
    def from_json(cls, data) -> "DualNumber":
        return cls(*json_grid(data, (2,), "dual scalar").tolist())


def _coerce(x) -> DualNumber:
    if isinstance(x, DualNumber):
        return x
    if isinstance(x, (int, float)):
        return DualNumber(float(x), 0.0)
    raise TypeError("cannot treat %r as a dual scalar" % (x,))


ZERO = DualNumber(0.0, 0.0)
ONE = DualNumber(1.0, 0.0)
EPS = DualNumber(0.0, 1.0)


def mul(x: DualNumber, y: DualNumber) -> DualNumber:
    """Product (x1 + x2 eps)(y1 + y2 eps) = x1 y1 + (x1 y2 + x2 y1) eps."""
    return DualNumber(x.re * y.re, x.re * y.ze + x.ze * y.re)


def inv(x: DualNumber, tol: float | None = None) -> DualNumber:
    """Multiplicative inverse 1/re - (ze/re**2) eps.

    Raises NotInvertible when |re| is at or below the zero tolerance.
    """
    if abs(x.re) <= resolve_tol(tol):
        raise NotInvertible("re part %g is within tolerance of zero" % x.re)
    return DualNumber(1.0 / x.re, -x.ze / (x.re * x.re))


def is_invertible(x: DualNumber, tol: float | None = None) -> bool:
    return abs(x.re) > resolve_tol(tol)


def is_zero_divisor(x: DualNumber, tol: float | None = None) -> bool:
    """Nonzero elements with vanishing re part square to zero."""
    return abs(x.re) <= resolve_tol(tol)


def scalar_norm(x: DualNumber) -> float:
    """sqrt(2 re**2 + ze**2); submultiplicative and positive definite."""
    return math.sqrt(2.0 * x.re * x.re + x.ze * x.ze)


class DualVector:
    """A split vector with n dual head slots and m real tail coefficients.

    Its only storage is one contiguous read-only float64 array of the
    2n + m realified coordinates [head re | head ze | tail], read as
    `array`; head entries may be given as DualNumbers, numbers or (re, ze)
    pairs.  `head` boxes them as DualNumbers on first access and caches
    them; `tail`, `n`, `m` and `shape` are read from the array.
    Vectors are immutable (assigning raises FrozenInstanceError); equality
    compares shapes and values, so 0.0 equals -0.0, and the hash agrees.
    """

    __slots__ = ("_arr", "_n", "_head")

    def __init__(self, head, tail):
        head = tuple(map(_coerce_entry, head))
        arr = np.array(
            [h.re for h in head] + [h.ze for h in head] + [float(r) for r in tail],
            dtype=float,
        )
        self._store(arr, len(head), head)

    @classmethod
    def _wrap(cls, arr: np.ndarray, n: int) -> "DualVector":
        """The vector stored as arr, a 1-D float64 array of 2n + m reals
        that nothing else writes to."""
        v = object.__new__(cls)
        v._store(arr, n, None)
        return v

    def _store(self, arr, n, head):
        object.__setattr__(self, "_arr", arr)
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_head", head)
        self.__post_init__()

    def __post_init__(self):
        # run by every constructor once the fields are set, as in a dataclass
        self._arr.setflags(write=False)

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __reduce__(self):
        return (DualVector._wrap, (self._arr, self._n))

    @property
    def array(self) -> np.ndarray:
        """The stored read-only array [head re | head ze | tail]."""
        return self._arr

    @property
    def head(self) -> tuple[DualNumber, ...]:
        if self._head is None:
            n = self._n
            vals = self._arr[: 2 * n].tolist()
            object.__setattr__(self, "_head", tuple(map(DualNumber, vals[:n], vals[n:])))
        return self._head

    @property
    def tail(self) -> tuple[float, ...]:
        return tuple(self._arr[2 * self._n :].tolist())

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return len(self._arr) - 2 * self._n

    @property
    def shape(self) -> tuple[int, int]:
        return (self._n, len(self._arr) - 2 * self._n)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (
            self._n == other._n and self._arr.tolist() == other._arr.tolist()
        )

    def __hash__(self):
        return hash((self._n, *self._arr.tolist()))

    def __repr__(self):
        return "DualVector(head=%r, tail=%r)" % (self.head, self.tail)

    def __add__(self, other: "DualVector") -> "DualVector":
        _check_same_shape(self, other)
        return DualVector._wrap(self._arr + other._arr, self._n)

    def __sub__(self, other: "DualVector") -> "DualVector":
        _check_same_shape(self, other)
        return DualVector._wrap(self._arr - other._arr, self._n)

    def __neg__(self) -> "DualVector":
        return DualVector._wrap(-self._arr, self._n)

    def to_json(self) -> dict:
        n = self._n
        vals = self._arr.tolist()
        return {
            "n": n,
            "m": len(vals) - 2 * n,
            "head": [[vals[i], vals[n + i]] for i in range(n)],
            "tail": vals[2 * n :],
        }

    @classmethod
    def from_json(cls, data) -> "DualVector":
        n, m, head, tail = json_fields(data, "vector", ("n", "m", "head", "tail"))
        n, m = as_index(n, "vector field 'n'"), as_index(m, "vector field 'm'")
        head = json_grid(head, (n, 2), "vector head")
        tail = json_grid(tail, (m,), "vector tail")
        return cls._wrap(np.concatenate([head[:, 0], head[:, 1], tail]), n)


def _coerce_entry(h) -> DualNumber:
    if isinstance(h, DualNumber):
        return h
    if isinstance(h, (int, float)):
        return DualNumber(float(h), 0.0)
    if isinstance(h, (tuple, list)) and len(h) == 2:
        return DualNumber(float(h[0]), float(h[1]))
    raise TypeError("cannot treat %r as a head entry" % (h,))


def _check_same_shape(x: DualVector, y: DualVector) -> None:
    if x.shape != y.shape:
        raise ShapeMismatch("shapes %r and %r differ" % (x.shape, y.shape))


def vector(head=(), tail=()) -> DualVector:
    """Convenience constructor accepting numbers or (re, ze) pairs."""
    return DualVector(tuple(head), tuple(tail))


def zero_vector(n: int, m: int) -> DualVector:
    return DualVector._wrap(np.zeros(2 * n + m), n)


def basis_vector(n: int, m: int, k: int) -> DualVector:
    """Standard basis: slots 0..n-1 are dual heads, n..n+m-1 are eps tails."""
    if not 0 <= k < n + m:
        raise IndexError("basis index %d out of range for shape (%d, %d)" % (k, n, m))
    arr = np.zeros(2 * n + m)
    arr[k if k < n else n + k] = 1.0  # head k's re part, or tail k - n
    return DualVector._wrap(arr, n)


def standard_basis(n: int, m: int) -> list[DualVector]:
    return [basis_vector(n, m, k) for k in range(n + m)]


def scalar_mul(a, v: DualVector) -> DualVector:
    """Scale a vector: heads multiply dually, tails see only Re(a)."""
    a = _coerce(a)
    n, arr = v.n, v.array
    out = a.re * arr
    out[n : 2 * n] += a.ze * arr[:n]  # mul's ze part: a.re * h.ze + a.ze * h.re
    return DualVector._wrap(out, n)


def with_head_entry(v: DualVector, i: int, x: DualNumber) -> DualVector:
    n = v.n
    i, x = range(n)[i], _coerce_entry(x)
    arr = v.array.copy()
    arr[i], arr[n + i] = x.re, x.ze
    return DualVector._wrap(arr, n)


def with_tail_entry(v: DualVector, j: int, r: float) -> DualVector:
    arr = v.array.copy()
    arr[2 * v.n + range(v.m)[j]] = float(r)
    return DualVector._wrap(arr, v.n)


def inner(x: DualVector, y: DualVector) -> float:
    """Real inner product: 2*sum(re*re) + sum(ze*ze) over heads + sum over tails."""
    _check_same_shape(x, y)
    n = x.n
    a, b = x.array.tolist(), y.array.tolist()
    acc = 0.0
    for k in range(n):
        acc += 2.0 * a[k] * b[k] + a[n + k] * b[n + k]
    for k in range(2 * n, len(a)):
        acc += a[k] * b[k]
    return acc


def vector_norm(x: DualVector) -> float:
    return float(row_norms(x.array, x.n))


def row_norms(rows: np.ndarray, n: int) -> np.ndarray:
    """sqrt(inner(x, x)) of one realified row x with n heads, or of each
    row of a 2-D array of them, summed in inner's order.  When some entry
    is at least 2**500 in size, or nonzero and below 2**-501, each row is
    multiplied by the power of two that brings its largest entry into
    [0.5, 1) before summing, and its norm divided by that power, so large
    finite rows do not overflow and tiny ones do not underflow.  The
    scaling is exact, and other arrays are summed as they are."""
    exp = None
    if np.abs(np.frexp(rows)[1]).max(initial=0) > 500:  # 0 for zero, inf and NaN
        exp = np.frexp(np.abs(rows).max(axis=-1, initial=0.0))[1]
        rows = np.ldexp(rows, -exp[..., None])
    # squares first, in one product: 2 * (c * c) is inner's (2 * c) * c for
    # every normal term, and a subnormal one is below half an ulp of a
    # scaled row's largest square
    sq = (rows * rows).T  # entry k of every row, for one row or a 2-D array
    acc = np.zeros(rows.shape[:-1])
    for k in range(n):
        acc += 2.0 * sq[k] + sq[n + k]
    for k in range(2 * n, len(sq)):
        acc += sq[k]
    return np.sqrt(acc) if exp is None else np.ldexp(np.sqrt(acc), exp)


def sharp_action(v: DualVector) -> DualVector:
    """Multiply by eps: head re parts shift into ze, tails are annihilated."""
    n, arr = v.n, v.array
    out = np.zeros_like(arr)
    out[n : 2 * n] = arr[:n]
    return DualVector._wrap(out, n)


def in_ker_sharp(v: DualVector, tol: float | None = None) -> bool:
    """Kernel of eps: all head entries are zero divisors."""
    tol = resolve_tol(tol)
    return all(abs(r) <= tol for r in v.array[: v.n].tolist())


def in_im_sharp(v: DualVector, tol: float | None = None) -> bool:
    """Image of eps: zero-divisor heads and vanishing tails."""
    tol = resolve_tol(tol)
    vals = v.array.tolist()
    return all(abs(r) <= tol for r in vals[: v.n] + vals[2 * v.n :])
