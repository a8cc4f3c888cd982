"""Scalars and vectors over the dual-real algebra.

The scalar type is the two-dimensional commutative algebra R + R*eps with
eps**2 = 0: every element is written re + ze*eps.  Elements with re = 0 are
the zero divisors; everything else is invertible.  Vectors come in split
shape (n, m): n head slots holding full dual scalars and m tail slots
holding the real coefficient r of an implicit r*eps entry.  Storing the bare
coefficient makes a further eps multiplication annihilate tail slots by
construction.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

DEFAULT_TOL = 1e-9

_default_tol = DEFAULT_TOL


class NotInvertible(ValueError):
    """Raised when inverting a scalar whose real part is (near) zero."""


class ShapeMismatch(ValueError):
    """Raised when operands disagree on (n, m) shape."""


def default_tol() -> float:
    return _default_tol


def set_default_tol(tol: float) -> None:
    """Set the library-wide absolute tolerance for zero tests."""
    global _default_tol
    tol = float(tol)
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    _default_tol = tol


def resolve_tol(tol: float | None) -> float:
    return _default_tol if tol is None else float(tol)


def as_index(value, what: str) -> int:
    """An exact integer: ints and numpy integers pass, floats such as 1.7
    or 1.0 and bools raise ValueError instead of being truncated."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError("%s must be an integer, got %r" % (what, value)) from None


@dataclass(frozen=True)
class DualNumber:
    """A scalar re + ze*eps with eps**2 = 0."""

    re: float = 0.0
    ze: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "re", float(self.re))
        object.__setattr__(self, "ze", float(self.ze))

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
        if not isinstance(data, (list, tuple)) or len(data) != 2:
            raise ValueError("dual scalar must be a [re, ze] pair, got %r" % (data,))
        return cls(float(data[0]), float(data[1]))


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


@dataclass(frozen=True)
class DualVector:
    """A split vector with n dual head slots and m real tail coefficients."""

    head: tuple[DualNumber, ...]
    tail: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "head", tuple(_coerce_entry(h) for h in self.head))
        object.__setattr__(self, "tail", tuple(float(r) for r in self.tail))

    @property
    def n(self) -> int:
        return len(self.head)

    @property
    def m(self) -> int:
        return len(self.tail)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.head), len(self.tail))

    def __add__(self, other: "DualVector") -> "DualVector":
        _check_same_shape(self, other)
        return DualVector(
            tuple(a + b for a, b in zip(self.head, other.head)),
            tuple(a + b for a, b in zip(self.tail, other.tail)),
        )

    def __sub__(self, other: "DualVector") -> "DualVector":
        _check_same_shape(self, other)
        return DualVector(
            tuple(a - b for a, b in zip(self.head, other.head)),
            tuple(a - b for a, b in zip(self.tail, other.tail)),
        )

    def __neg__(self) -> "DualVector":
        return DualVector(tuple(-h for h in self.head), tuple(-r for r in self.tail))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "head": [h.to_json() for h in self.head],
            "tail": list(self.tail),
        }

    @classmethod
    def from_json(cls, data) -> "DualVector":
        if not isinstance(data, dict):
            raise ValueError("vector must be an object, got %r" % (data,))
        for key in ("n", "m", "head", "tail"):
            if key not in data:
                raise ValueError("vector is missing field %r" % key)
        head = [DualNumber.from_json(h) for h in data["head"]]
        tail = [float(r) for r in data["tail"]]
        if len(head) != data["n"] or len(tail) != data["m"]:
            raise ValueError(
                "vector fields n=%r, m=%r disagree with head/tail lengths %d/%d"
                % (data["n"], data["m"], len(head), len(tail))
            )
        return cls(tuple(head), tuple(tail))


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
    return DualVector((ZERO,) * n, (0.0,) * m)


def basis_vector(n: int, m: int, k: int) -> DualVector:
    """Standard basis: slots 0..n-1 are dual heads, n..n+m-1 are eps tails."""
    if not 0 <= k < n + m:
        raise IndexError("basis index %d out of range for shape (%d, %d)" % (k, n, m))
    head = [ZERO] * n
    tail = [0.0] * m
    if k < n:
        head[k] = ONE
    else:
        tail[k - n] = 1.0
    return DualVector(tuple(head), tuple(tail))


def standard_basis(n: int, m: int) -> list[DualVector]:
    return [basis_vector(n, m, k) for k in range(n + m)]


def scalar_mul(a, v: DualVector) -> DualVector:
    """Scale a vector: heads multiply dually, tails see only Re(a)."""
    a = _coerce(a)
    return DualVector(
        tuple(mul(a, h) for h in v.head),
        tuple(a.re * r for r in v.tail),
    )


def with_head_entry(v: DualVector, i: int, x: DualNumber) -> DualVector:
    head = list(v.head)
    head[i] = x
    return DualVector(tuple(head), v.tail)


def with_tail_entry(v: DualVector, j: int, r: float) -> DualVector:
    tail = list(v.tail)
    tail[j] = float(r)
    return DualVector(v.head, tuple(tail))


def inner(x: DualVector, y: DualVector) -> float:
    """Real inner product: 2*sum(re*re) + sum(ze*ze) over heads + sum over tails."""
    _check_same_shape(x, y)
    acc = 0.0
    for a, b in zip(x.head, y.head):
        acc += 2.0 * a.re * b.re + a.ze * b.ze
    for r, s in zip(x.tail, y.tail):
        acc += r * s
    return acc


def vector_norm(x: DualVector) -> float:
    return math.sqrt(inner(x, x))


def sharp_action(v: DualVector) -> DualVector:
    """Multiply by eps: head re parts shift into ze, tails are annihilated."""
    return DualVector(
        tuple(DualNumber(0.0, h.re) for h in v.head),
        (0.0,) * v.m,
    )


def in_ker_sharp(v: DualVector, tol: float | None = None) -> bool:
    """Kernel of eps: all head entries are zero divisors."""
    tol = resolve_tol(tol)
    return all(abs(h.re) <= tol for h in v.head)


def in_im_sharp(v: DualVector, tol: float | None = None) -> bool:
    """Image of eps: zero-divisor heads and vanishing tails."""
    tol = resolve_tol(tol)
    return all(abs(h.re) <= tol for h in v.head) and all(
        abs(r) <= tol for r in v.tail
    )
