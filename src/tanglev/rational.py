"""Exact rational-complex scalars.

The group-level identities (factorization round trips, star-product axioms,
the set-theoretic Yang-Baxter equation) are exact theorems, so the group
layer supports an exact backend: `QC`, a canonical triple of Python ints
that each operation normalizes with one `math.gcd` (`_qc`): of (a, b, d),
or of (a, d) for a real result.  Exact inputs are mostly real (the
paper's parabolic meridians, `samplers.rational_mat`), so an operation on
two real operands forms only the real numerator; gcd(a, 0, d) = gcd(a, d)
makes its triple the one the complex path would give.
Everything representation-theoretic runs on ordinary `complex`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_new = object.__new__


def _qc(a, b, d):
    """The QC (a + b i)/d, d != 0, reduced to its canonical triple; a real
    one is reduced by gcd(a, d), which equals gcd(a, 0, d)."""
    g = gcd(a, b, d) if b else gcd(a, d)
    if d < 0:
        g = -g
    if g != 1:
        a, b, d = a // g, b // g, d // g
    q = _new(QC)
    q._a = a
    q._b = b
    q._d = d
    return q


class QC:
    """A complex number (a + b i)/d with exact rational parts.

    Stored as ints with d > 0 and gcd(a, b, d) = 1, so equal values have
    equal triples; `re` and `im` read the parts as `Fraction`s.  Sums over
    one denominator, and products and quotients by a real, skip cross terms;
    two real operands skip the imaginary numerator as well.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        # a real int or Fraction is canonical; read Fraction's slots directly
        if type(re) is Fraction:
            if type(im) is Fraction and not im._numerator or (
                    type(im) is int and not im):
                self._a, self._b, self._d = re._numerator, 0, re._denominator
                return
        elif type(re) is int and type(im) is int and not im:
            self._a, self._b, self._d = re, 0, 1
            return
        re = re if type(re) is Fraction else Fraction(re)
        im = im if type(im) is Fraction else Fraction(im)
        p, q = re.denominator, im.denominator
        a, b, d = re.numerator * q, im.numerator * p, p * q
        g = gcd(a, b, d)
        self._a, self._b, self._d = a // g, b // g, d // g

    re = property(lambda self: Fraction(self._a, self._d))
    im = property(lambda self: Fraction(self._b, self._d))

    def __add__(self, other):
        other = other if type(other) is QC else _coerce(other)
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d == f:
            return _qc(a + c, b + e, d)
        if b or e:
            return _qc(a * f + c * d, b * f + e * d, d * f)
        return _qc(a * f + c * d, 0, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        other = other if type(other) is QC else _coerce(other)
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d == f:
            return _qc(a - c, b - e, d)
        if b or e:
            return _qc(a * f - c * d, b * f - e * d, d * f)
        return _qc(a * f - c * d, 0, d * f)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = other if type(other) is QC else _coerce(other)
        c, e = other._a, other._b
        if not e:
            b = self._b
            if not b:
                return _qc(self._a * c, 0, self._d * other._d)
            return _qc(self._a * c, b * c, self._d * other._d)
        a, b = self._a, self._b
        return _qc(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if type(other) is QC else _coerce(other)
        a, b = self._a, self._b
        c, e, f = other._a, other._b, other._d
        if not e:
            if not c:
                raise ZeroDivisionError(
                    "division by zero rational-complex scalar")
            if not b:
                return _qc(a * f, 0, self._d * c)
            return _qc(a * f, b * f, self._d * c)
        # multiply by the conjugate: c^2 + e^2 > 0 since e != 0
        return _qc((a * c + b * e) * f, (b * c - a * e) * f,
                   self._d * (c * c + e * e))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __neg__(self):
        return _qc(-self._a, -self._b, self._d)

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return (self._a, self._b, self._d) == (other._a, other._b, other._d)

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __complex__(self):
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self._a / self._d, self._b / self._d)

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
        return str(value)
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
