"""Each Mat2 carries its determinant through the group layer.

Every producer of `factgroup` hands its result the det that a group
identity gives (det(g*h) = det g det h, det i(g) = 1/det g, conjugation by
a Borel factor keeps det, ...).  Over QC that value must equal the one
formed from the entries exactly, and over floats up to rounding.  A
group-exact op then forms one det per input matrix and no more.  The
carried value is a cache: it takes no part in ==, hash or repr.
"""

import copy
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglev import factgroup, samplers
from tanglev.factgroup import Mat2
from tanglev.rational import QC


def reformed(m):
    return m.m11 * m.m22 - m.m12 * m.m21


def produced(g, h):
    """(producer name, result) for every Mat2 producer of the group layer
    on the pair (g, h); a producer that refuses its input is left out."""
    fg = factgroup.factorize(g)
    calls = {
        "star_mul": lambda: factgroup.star_mul(g, h),
        "star_inv": lambda: factgroup.star_inv(g),
        "xlr": lambda: factgroup.xlr(g, h),
        "xlr_inverse": lambda: factgroup.xlr_inverse(g, h),
        "curl_partner": lambda: factgroup.curl_partner(g),
        "curl_unpartner": lambda: factgroup.curl_unpartner(g),
        "lower_conj": lambda: factgroup._lower_conj(h, fg.a, fg.b),
        "upper_conj": lambda: factgroup._upper_conj(h, fg.beta, fg.alpha),
        "mul": lambda: g * h,
        "inv": lambda: g.inv(),
        "plus": fg.plus,
        "minus": fg.minus,
        "assemble": fg.assemble,
        "identity": factgroup.identity,
    }
    out = []
    for name, call in calls.items():
        try:
            result = call()
        except (factgroup.NotFactorizable, ZeroDivisionError):
            continue
        for m in result if isinstance(result, tuple) else (result,):
            out.append((name, m))
    return out


def _pair(seed, draw):
    rng = random.Random(seed)
    g, h = draw(rng), draw(rng)
    g.det(), h.det()  # so that g * h has both dets known
    return g, h


SEEDS = st.integers(0, 2**32 - 1)


class TestCarriedEqualsReformed:
    @given(SEEDS, st.sampled_from([samplers.rational_mat,
                                   samplers.complex_rational_mat]))
    @settings(max_examples=150, deadline=None)
    def test_exact(self, seed, draw):
        for name, m in produced(*_pair(seed, draw)):
            assert m._det is not None, name
            assert m._det == reformed(m), name

    @given(SEEDS)
    @settings(max_examples=150, deadline=None)
    def test_float(self, seed):
        g, h = _pair(seed, samplers.float_group)
        try:
            factgroup.factorize(g)
        except factgroup.NotFactorizable:
            return
        for name, m in produced(g, h):
            assert m._det is not None, name
            # relative to the products that form the det from the entries
            p, q, d = (complex(v) for v in (m.m11 * m.m22, m.m12 * m.m21,
                                            m._det))
            assert abs(d - (p - q)) <= 1e-12 * max(abs(p), abs(q), abs(d)), \
                name

    def test_product_with_an_unknown_det_carries_none(self):
        g = Mat2(QC(1), QC(2), QC(3), QC(4))
        h = factgroup.identity()
        assert (g * h)._det is None
        assert (g * h).det() == QC(-2)


def fresh(m):
    """m rebuilt through the public constructor, so it carries no det."""
    return Mat2(*m.entries())


def group_exact_op(a, b, c):
    """The op of the `group-exact` benchmark: both YBE sides, (ab)c, a(bc)
    and a i(a)."""
    star = factgroup.star_mul
    return (samplers.yb_sides((a, b, c)), star(star(a, b), c),
            star(a, star(b, c)), star(a, factgroup.star_inv(a)))


class TestFormedOncePerInput:
    @pytest.fixture()
    def formed(self, monkeypatch):
        """Counts the dets formed from entries: det() calls on a matrix
        that carries none."""
        box = {"n": 0}
        det = Mat2.det

        def counted(m):
            box["n"] += getattr(m, "_det", None) is None
            return det(m)
        monkeypatch.setattr(Mat2, "det", counted)
        return box

    @pytest.mark.parametrize("draw", [samplers.rational_mat,
                                      samplers.complex_rational_mat])
    def test_three_per_group_exact_op(self, formed, draw, rng):
        done = 0
        while done < 20:
            a, b, c = (fresh(draw(rng)) for _ in range(3))
            formed["n"] = 0
            try:
                group_exact_op(a, b, c)
            except factgroup.NotFactorizable:
                continue
            assert formed["n"] == 3
            done += 1

    def test_each_input_once(self, formed):
        g = Mat2(QC(Fraction(-4, 3)), QC(1), QC(Fraction(-10, 3)), QC(2))
        assert g.det() == g.det() == QC(Fraction(2, 3))
        factgroup.factorize(g)
        factgroup.star_inv(g)
        assert formed["n"] == 1


class TestValueSemantics:
    def test_carried_det_is_not_part_of_the_value(self, rng):
        g = samplers.complex_rational_mat(rng)
        bare = fresh(g)
        assert g._det is not None and bare._det is None
        assert g == bare and hash(g) == hash(bare) and repr(g) == repr(bare)
        s = factgroup.star_mul(g, g)
        assert s == fresh(s) and hash(s) == hash(fresh(s))
        assert repr(s) == repr(fresh(s))

    def test_repr_and_hash_of_the_entries(self):
        g = Mat2(QC(1), QC(0), QC(Fraction(1, 2)), QC(1))
        g.det()
        assert repr(g) == ("Mat2(m11=QC(1, 0), m12=QC(0, 0), "
                           "m21=QC(1/2, 0), m22=QC(1, 0))")
        assert hash(g) == hash(g.entries())
        assert g != g.entries() and g != g.to_json()

    def test_immutable(self):
        g = factgroup.identity()
        for name in ("m11", "m12", "m21", "m22", "_det"):
            with pytest.raises(FrozenInstanceError):
                setattr(g, name, QC(5))
            with pytest.raises(FrozenInstanceError):
                delattr(g, name)
        assert g == Mat2(QC(1), QC(0), QC(0), QC(1))

    def test_copies_keep_the_value(self, rng):
        g = samplers.rational_mat(rng)
        for other in (copy.copy(g), copy.deepcopy(g),
                      pickle.loads(pickle.dumps(g))):
            assert other == g and other.det() == g.det()
