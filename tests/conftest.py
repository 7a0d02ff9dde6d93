from functools import lru_cache
from math import gcd
from operator import mul

import pytest

from ordcurves.bipoly import squarefree_radical
from ordcurves.veronese import lift

_lift = lru_cache(maxsize=None)(lift)


def _check_hyperplanes(rec, points, d):
    """A curve record holds one hyperplane, a primitive integer vector with a
    positive first nonzero entry whose polynomial vanishes at exactly the
    record's incidence, evaluated on the Fraction lifts.  The curve is
    spanned, so its representative is canonical and equals the PRS radical
    computed independently here."""
    assert len(rec.hyperplanes) == 1
    curve = rec.curve
    assert curve.representative == curve.radical == squarefree_radical(curve.representative)
    for vec in rec.hyperplanes:
        assert all(type(x) is int for x in vec) and gcd(*vec) == 1
        assert next(x for x in vec if x) > 0
        zeros = {i for i, p in enumerate(points)
                 if vec[0] + sum(map(mul, vec[1:], _lift(p, d))) == 0}
        assert zeros == rec.incidence


@pytest.fixture
def check_hyperplanes():
    return _check_hyperplanes
