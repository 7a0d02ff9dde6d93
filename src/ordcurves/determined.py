"""Curves determined by a point set, ordinary curves, and curve richness.

A degree-d curve is determined by A when no other degree-d curve meets A in
a superset of its incidence.  With A not contained in any curve of degree at
most d, these are exactly the pullbacks of the hyperplanes spanned by lifted
subsets of A, so enumeration reduces to finding the C(d+2,2)-1 sized subsets
with affinely independent lifts and deduplicating their hyperplanes.

The scan works on each point's integer row Z^d * (1, lift) (`integer_lift`)
and walks the subsets as a lexicographic prefix tree
(`linalg.hyperplane_leaves`).  A node holds an integer kernel basis of its
prefix's rows, starting from the identity; a child reduces that basis by its
one new row with one fraction-free step (`linalg.kernel_step`).  A row
orthogonal to every basis vector lies in the prefix's span, so every subset
through that child is rank-deficient and its whole subtree is skipped.  So
is every subtree whose later rows cannot complete it: a child on row i
still needing k rows needs rank(rows[i:]) >= k, and these suffix ranks come
from one fold from the end.  Two levels above the leaves the basis is a net
of three vectors; each later row's three dots with it are taken once, and
each pair of later rows gives that leaf's one kernel vector as a
combination of the net by a cross product of their dots, made primitive:
the subset's hyperplane, the same vector a subset-by-subset elimination
gives.  One walk over the subtrees of every first index whose suffix has
full rank fills one map from vector to incidence
(`linalg.spanned_vectors`).  An N-subset with a later least index lies in a
suffix of rank N, so it spans that suffix's one hyperplane, the fold's
kernel vector where the rank first reached N, which is added once if the
walk did not find it; when the rows have rank N no subtree is walked.
At d >= 2, rows that span with at most two rows beyond their C(d+2,2)
columns, such as the carrier-heavy sets at m = N+1..N+3 and a basis's
degree-(d-1) rows up to d = 4, walk no tree at all: every N-subset is read in the
coordinates of one basis of the rows, its vector and incidence from a
cross product of at most two coordinate rows (the coordinates lemma in
`linalg`), with the same map in the same order.

The primitive vector is the hyperplane's only representation.  It is also
the identity of the hyperplane's curve: the polynomial of a spanned
hyperplane is squarefree (the lemma at `veronese.spanned_curve`), so it is
its own radical, and two distinct primitive vectors are two distinct curves.
Dedup on the vectors is therefore dedup on curves, each `CurveRecord` holds
one vector, and a record's polynomial and `PlaneCurve` are built only when a
caller asks for them.  On the prefix tree, a curve's incidence is read off
the leaf that found its vector first, once per distinct vector, by this
lemma: that leaf's rows are the greedy basis of the rows on the hyperplane
(Edmonds 1971; Oxley, Matroid Theory, ch. 1), so a row before the net's
later rows is on the hyperplane exactly when it lies in the span of the
net's rows, and a later row t exactly when c.D_t = 0, its dot with the
vector, for the leaf's cross product c and the row's three net dots D_t.
Proof sketch: leaves come in lexicographic order of their subsets, the
walk cuts no prefix that can still be completed, and a skipped first
index gives only the fold's vector, so the first leaf of a vector is the
lexicographically first independent N-subset of the rows on it; greedy
takes a row exactly when it is outside the span of the rows taken before,
so each row it leaves out before the net's later rows is in the span of
the net's rows, and a row in that span is on the hyperplane.  The walk
carries those rows with each net: the zero rows before its first index,
the net's rows, and the rows its path found dependent.
Each membership is an exact integer test, never a count of the subsets
that spanned the hyperplane, and no curve is evaluated again at every
point.

Curve richness (the largest section of A on a curve of degree <= e) falls
out of the same scan at degree e: a richest section is the zero set of one
of the scanned kernel vectors (see `max_curve_richness`), so no scan over
all subsets of A is needed.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
from fractions import Fraction
from math import comb

from .bipoly import PlaneCurve
from .errors import HypothesisViolation, InvariantViolation
from .linalg import kernel, normalized_key, rank, spanned_vectors
from .veronese import Point, as_point, integer_lift, spanned_curve, vector_to_curve


class PointConfiguration:
    """Distinct rational plane points with a working degree d; compares and
    hashes by (points, d), whatever its caches hold."""

    __slots__ = ("points", "d", "_rows", "_verdict", "__weakref__")

    def __init__(self, points: tuple[Point, ...], d: int):
        self.points = points
        self.d = d
        # degree -> rows; per instance, so a configuration is freed with its rows
        self._rows = {}
        # {(basis index tuple, d): verdict} of the last basis `ndfamilies`
        # verified or grew on this configuration with success; one entry, so a
        # grow, its verify and the projection's catalog walk the basis once
        self._verdict = {}

    def __eq__(self, other):
        if type(other) is not PointConfiguration:
            return NotImplemented
        return self.points == other.points and self.d == other.d

    def __hash__(self):
        return hash((self.points, self.d))

    @staticmethod
    def from_points(points, d: int) -> "PointConfiguration":
        pts = tuple(as_point(p) for p in points)
        if len(set(pts)) != len(pts):
            raise HypothesisViolation("distinct points", "configuration has duplicate points")
        if not pts:
            raise HypothesisViolation("nonempty configuration", "no points given")
        if d < 1:
            raise HypothesisViolation("d >= 1", f"d={d}")
        return PointConfiguration(pts, d)

    def __len__(self):
        return len(self.points)

    def homogeneous_lifts(self, e: int) -> tuple:
        """Integer rows Z^e * (1, lift) of the points (see `integer_lift`),
        built once per degree."""
        rows = self._rows.get(e)
        if rows is None:
            rows = self._rows[e] = tuple(integer_lift(p, e) for p in self.points)
        return rows

    def subset(self, indices) -> tuple[Point, ...]:
        return tuple(self.points[i] for i in indices)

    def incidence_of(self, curve: PlaneCurve) -> frozenset[int]:
        return frozenset(i for i, p in enumerate(self.points) if curve.contains(p))


def vanishing_dim(points, e: int) -> int:
    """Dimension of {p : deg p <= e, p(a) = 0 for all given a} incl. constants."""
    return comb(e + 2, 2) - rank([integer_lift(p, e) for p in points])


def contained_in_curve(config: PointConfiguration, e: int):
    """Whether some curve of degree <= e contains every point; with witness.

    Returns (flag, witness PlaneCurve or None).
    """
    if e < 1:
        raise HypothesisViolation("e >= 1", f"e={e}")
    basis = kernel(config.homogeneous_lifts(e), comb(e + 2, 2))
    if not basis:
        return False, None
    return True, vector_to_curve(basis[0], e)


class CurveRecord:
    """A degree-d curve's incidence with A and the primitive vectors of its hyperplanes.

    Every hyperplane is spanned, so the curve is read off the first one
    (`spanned_curve`, no radical) when first asked for and kept; callers
    that need only incidences and counts build no polynomial.  Records
    compare and hash by (d, incidence, hyperplanes), whether or not the
    curve has been built.
    """

    __slots__ = ("d", "incidence", "hyperplanes", "_curve")

    def __init__(self, d: int, incidence: frozenset[int], hyperplanes: tuple[tuple[int, ...], ...]):
        self.d = d
        self.incidence = incidence
        self.hyperplanes = hyperplanes
        self._curve = None

    def __eq__(self, other):
        if type(other) is not CurveRecord:
            return NotImplemented
        return (self.d, self.incidence, self.hyperplanes) == (
            other.d, other.incidence, other.hyperplanes)

    def __hash__(self):
        return hash((self.d, self.incidence, self.hyperplanes))

    @property
    def curve(self) -> PlaneCurve:
        if self._curve is None:
            self._curve = spanned_curve(self.hyperplanes[0], self.d)
        return self._curve

    def to_json_obj(self):
        # a spanned curve's representative is its radical: one text for both
        text = self.curve.representative.text()
        return {
            "polynomial": text,
            "radical": text,
            "incidence": sorted(self.incidence),
            "hyperplane_count": len(self.hyperplanes),
        }


class DeterminedCurveSet:
    __slots__ = ("d", "n", "records")

    def __init__(self, d: int, n: int | None, records: tuple[CurveRecord, ...]):
        self.d = d
        self.n = n
        self.records = records

    def __len__(self):
        return len(self.records)

    def radicals(self) -> frozenset:
        return frozenset(rec.curve for rec in self.records)

    def to_json_obj(self):
        return {
            "d": self.d,
            "n": self.n,
            "curves": [rec.to_json_obj() for rec in self.records],
        }


def richest(sections) -> tuple[int, tuple[int, ...]]:
    """Largest section size, with the lexicographically first sorted section
    of that size; `sections` is a nonempty collection, read twice."""
    top = max(map(len, sections))
    return top, min(tuple(sorted(s)) for s in sections if len(s) == top)


def spanned_hyperplanes(config: PointConfiguration):
    """The hyperplanes spanned by lifted subsets, as (primitive vector,
    incidence) pairs.

    Every spanned hyperplane contains N = C(d+2,2)-1 affinely independent
    lifted points, so scanning N-subsets with full affine rank is complete.
    The incidence is the set of indices of the points whose lifts lie on
    the hyperplane, read off the scan (`linalg.spanned_vectors`).  The pairs
    come in scan order, unsorted: the order of their greedy bases, the
    lexicographically first N-subset that spans each, along either of the
    scan's paths.
    """
    return list(spanned_vectors(config.homogeneous_lifts(config.d)).items())


def determined_pairs(config: PointConfiguration):
    """The (primitive vector, incidence) pairs of the curves of degree d
    determined by the configuration, in scan order (`spanned_hyperplanes`).

    Requires that no curve of degree <= d contains the whole set; then the
    determined curves are exactly the pullbacks of the spanned hyperplanes.
    The scan also decides the requirement: the rows have rank below
    C(d+2,2) exactly when it finds no hyperplane (rank below N) or one
    through every row (rank N), and only then is `contained_in_curve` run,
    for its witness.  A curve with fewer than N incidences breaks the
    enumeration's invariant; the first such curve in `normalized` order is
    named, and it is looked for only when one exists.
    """
    d = config.d
    pairs = spanned_hyperplanes(config)
    if not pairs or (len(pairs) == 1 and len(pairs[0][1]) == len(config)):
        raise HypothesisViolation(
            "configuration not contained in a degree-<=d curve",
            f"witness curve {contained_in_curve(config, d)[1]}",
        )
    least = comb(d + 2, 2) - 1
    short = [pair for pair in pairs if len(pair[1]) < least]
    if short:
        vec, incidence = min(short, key=lambda pair: normalized_key(pair[0]))
        raise InvariantViolation(
            "determined curve with fewer than C(d+2,2)-1 incidences",
            {"d": d, "curve": spanned_curve(vec, d).representative.text(),
             "incidence": sorted(incidence)},
        )
    return pairs


def enumerate_determined(config: PointConfiguration) -> DeterminedCurveSet:
    """All curves of degree d determined by the configuration, one per spanned hyperplane.

    The checked pairs of `determined_pairs`, as records in the order of
    their vectors' `normalized` forms.  Each spanned hyperplane's
    polynomial spans the vanishing space of an N-subset, N = C(d+2,2)-1,
    with independent rows, a space of dimension 1; by the lemma at
    `veronese.spanned_curve` it is squarefree, so it is its own radical up
    to a scalar, distinct primitive vectors are distinct curves, and every
    curve has exactly one hyperplane.  Each record's incidence is the one
    the scan read off its pencil, with no second pass over the points.
    """
    d = config.d
    pairs = sorted(determined_pairs(config), key=lambda pair: normalized_key(pair[0]))
    return DeterminedCurveSet(d, None, tuple(CurveRecord(d, inc, (vec,)) for vec, inc in pairs))


def ordinary_curves(config: PointConfiguration, n: int, workers: int = 1) -> DeterminedCurveSet:
    """Determined curves meeting the configuration in at most n points.

    `workers` is accepted and ignored: the scan runs in the calling process.
    """
    full = enumerate_determined(config)
    kept = tuple(rec for rec in full.records if len(rec.incidence) <= n)
    return DeterminedCurveSet(config.d, n, kept)


def max_curve_richness(config: PointConfiguration, e: int):
    """Largest |A & C| over curves C of degree <= e, with a witness subset.

    If the degree-e rows of A have rank below C(e+2,2), all of A lies on one
    curve, and the scan says so with no subtree walked: below N =
    C(e+2,2)-1 its rank fold never reaches N and it finds no vector, and at
    N every suffix from the first on has rank N, so it gives the fold's one
    vector, through every row.  Otherwise let I be a richest section.  Its
    vanishing space is one-dimensional: were it larger, passing through a
    point of A outside I (one exists, as A lies on no curve) is one linear
    condition and would leave a nonzero polynomial, a curve through more
    than |I| points.  So I holds N points with independent rows, their
    primitive kernel vector spans the vanishing space of I, and its zero
    rows are exactly I.  Every kernel vector's zero rows, the incidence the
    scan gives it, are a section, so the richest of them is a richest
    section.  The witness is the lexicographically first richest section
    (sorted indices), the one the top-down subset scan
    `oracle.oracle_max_richness` returns.
    """
    if e < 1:
        raise HypothesisViolation("e >= 1", f"e={e}")
    rows = config.homogeneous_lifts(e)
    return richest(spanned_vectors(rows).values() or [range(len(rows))])


# the default threshold's denominator has 2^(3e+8) bits: 128 KiB at e = 4,
# and each step of e multiplies it by 8
DEFAULT_THRESHOLD_MAX_E = 4


def default_regularity_threshold(d: int) -> Fraction:
    """Default richness threshold 1 / 2^(2^(3d+8)); far below any small set's reach."""
    return Fraction(1, 2 ** (2 ** (3 * d + 8)))


# exact: no result can reach this precision, and any rounding raises
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])
_DIRECT_BITS = 2048


def _decimal(n: int) -> Decimal:
    """Decimal(n) by divide and conquer, n = hi * 2^k + lo with k a power of
    two: Decimal(int) alone is quadratic in the digits."""
    if n.bit_length() <= _DIRECT_BITS:
        return Decimal(n)
    k = 1 << ((n.bit_length() - 1).bit_length() - 1)
    hi = _EXACT.multiply(_decimal(n >> k), _EXACT.power(2, k))
    return _EXACT.add(hi, _decimal(n & ((1 << k) - 1)))


def _exact_str(q: Fraction) -> str:
    """str(q) without Python's int-to-str digit limit (Decimal keeps every digit)."""
    text = str(_decimal(q.numerator))
    return text if q.denominator == 1 else f"{text}/{_decimal(q.denominator)}"


class RegularityReport:
    __slots__ = ("is_regular", "ratio", "threshold", "witness")

    def __init__(self, is_regular: bool, ratio: Fraction, threshold: Fraction,
                 witness: tuple[int, ...]):
        self.is_regular = is_regular
        self.ratio = ratio
        self.threshold = threshold
        self.witness = witness

    def to_json_obj(self):
        return {
            "is_regular": self.is_regular,
            "ratio": _exact_str(self.ratio),
            "threshold": _exact_str(self.threshold),
            "witness": list(self.witness),
        }


def regularity_report(config: PointConfiguration, d: int | None = None,
                      threshold: Fraction | None = None) -> RegularityReport:
    """Compare the richest degree-<=d curve against a fraction of |A|.

    The default threshold is astronomically small, so any nonempty desk-scale
    configuration reports not regular; pass a custom threshold to probe
    structure.  The default is refused for d > DEFAULT_THRESHOLD_MAX_E, before
    any work: its denominator alone has 2,525,223 digits at e = 5.  A degree
    below 1 is refused first, before the default is built.
    """
    d = config.d if d is None else d
    if d < 1:
        raise HypothesisViolation("e >= 1", f"e={d}")
    if threshold is None:
        if d > DEFAULT_THRESHOLD_MAX_E:
            raise HypothesisViolation(
                f"default threshold needs e <= {DEFAULT_THRESHOLD_MAX_E}",
                f"e={d}: 1/2^(2^(3e+8)) has a 2^{3 * d + 8}-bit denominator; "
                f"give an explicit threshold for e >= {DEFAULT_THRESHOLD_MAX_E + 1}",
            )
        threshold = default_regularity_threshold(d)
    threshold = Fraction(threshold)
    if threshold <= 0:
        raise HypothesisViolation("threshold > 0", f"threshold={threshold}")
    size, witness = max_curve_richness(config, d)
    ratio = Fraction(size, len(config))
    return RegularityReport(ratio <= threshold, ratio, threshold, witness)
