from functools import lru_cache
from math import comb, gcd
from operator import mul

import pytest

from ordcurves.bipoly import squarefree_radical
from ordcurves.linalg import kernel, primitive
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


def _check_sections(A, basis, verdict):
    """The lemma at `NdVerifyResult` on a passing verdict of the basis B (a
    sequence of indices into A): each (e, section, vector) holds a
    primitive vector, the only vector of `kernel` of the section's degree-e
    rows, and it vanishes on exactly the section's rows among B's.
    Returns the number of sections checked."""
    assert verdict.ok
    for e, idx, vec in verdict.sections:
        rows = [A.homogeneous_lifts(e)[i] for i in basis]
        assert type(vec) is tuple and vec == primitive(vec)
        assert kernel([rows[i] for i in idx], comb(e + 2, 2)) == [vec]
        assert [i for i, row in enumerate(rows) if sum(map(mul, vec, row)) == 0] == list(idx)
    return len(verdict.sections)


@pytest.fixture
def check_sections():
    return _check_sections
