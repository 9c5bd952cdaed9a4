"""Exact rational-complex scalars.

The group-level identities (factorization round trips, star-product axioms,
the set-theoretic Yang-Baxter equation) are exact theorems, so the group
layer supports an exact backend built on `fractions.Fraction`.  Everything
representation-theoretic runs on ordinary `complex`.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)


class QC:
    """A complex number with exact rational real and imaginary parts.

    Most scalars of the group layer are real, so the arithmetic skips the
    Fraction operations on imaginary parts that are zero.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=_ZERO, im=_ZERO):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __add__(self, other):
        other = _coerce(other)
        if not other.im:
            return QC(self.re + other.re, self.im)
        if not self.im:
            return QC(self.re + other.re, other.im)
        return QC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if not other.im:
            return QC(self.re - other.re, self.im)
        return QC(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if not other.im:
            return QC(self.re * other.re, self.im * other.re if self.im
                      else _ZERO)
        if not self.im:
            return QC(self.re * other.re, self.re * other.im)
        return QC(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if not other.im:
            if not other.re:
                raise ZeroDivisionError(
                    "division by zero rational-complex scalar")
            return QC(self.re / other.re, self.im / other.re if self.im
                      else _ZERO)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero rational-complex scalar")
        return QC((self.re * other.re + self.im * other.im) / d,
                  (self.im * other.re - self.re * other.im) / d)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return "QC(%s, %s)" % (self.re, self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return "%s i" % self.im
        sign = "+" if self.im > 0 else "-"
        return "%s%s%s i" % (self.re, sign, abs(self.im))


def _coerce(value):
    if isinstance(value, QC):
        return value
    if isinstance(value, (int, Fraction)):
        return QC(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError("cannot coerce %r to QC" % (value,))


def parse_scalar(text):
    """Parse "p/q+r/s i" style exact scalars (also bare "p/q" or "r/s i")."""
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty rational-complex scalar")
    try:
        if not compact.endswith("i"):
            return QC(Fraction(compact))
        body = compact[:-1]
        split = max(body.rfind("+"), body.rfind("-"))
        if split <= 0:
            re_txt, im_txt = "0", body
        else:
            re_txt, im_txt = body[:split], body[split:]
        if im_txt in ("", "+", "-"):
            im_txt += "1"
        return QC(Fraction(re_txt), Fraction(im_txt))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("bad rational-complex scalar: %r" % text) from exc


def scalar_to_json(value):
    """QC -> "p/q+r/s i" string; float/complex -> [re, im] pair."""
    if isinstance(value, QC):
        return str(QC(value.re, value.im)) if value.im else str(value.re)
    z = complex(value)
    return [z.real, z.imag]


def scalar_from_json(obj):
    if isinstance(obj, str):
        return parse_scalar(obj)
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(obj[0], obj[1])
    if isinstance(obj, (int, float)):
        return complex(obj)
    raise ValueError("bad scalar in JSON: %r" % (obj,))
