from math import gcd

import pytest

from ordcurves.linalg import vec_dot
from ordcurves.veronese import lift


def _check_hyperplanes(rec, points, d):
    """Each of a curve record's hyperplanes is a distinct primitive integer
    vector with a positive first nonzero entry, and its polynomial vanishes
    at exactly the record's incidence, evaluated on the Fraction lifts."""
    assert len(set(rec.hyperplanes)) == len(rec.hyperplanes)
    for vec in rec.hyperplanes:
        assert all(type(x) is int for x in vec) and gcd(*vec) == 1
        assert next(x for x in vec if x) > 0
        zeros = {i for i, p in enumerate(points) if vec[0] + vec_dot(vec[1:], lift(p, d)) == 0}
        assert zeros == rec.incidence


@pytest.fixture
def check_hyperplanes():
    return _check_hyperplanes
