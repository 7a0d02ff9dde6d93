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
gives.  One walk over the subtrees of every first index whose suffix can
complete an N-subset fills one map from vector to incidence
(`linalg.spanned_vectors`); when the rows have rank N they all lie on one
hyperplane, the fold's last kernel vector, and no subtree is walked.

The primitive vector is the hyperplane's only representation.  It is also
the identity of the hyperplane's curve: the polynomial of a spanned
hyperplane is squarefree (the lemma at `veronese.spanned_curve`), so it is
its own radical, and two distinct primitive vectors are two distinct curves.
Dedup on the vectors is therefore dedup on curves, each `CurveRecord` holds
one vector, and a record's polynomial and `PlaneCurve` are built only when a
caller asks for them.  A curve's incidence is read off the same net, once
per distinct vector, at the net that found it first: the vector's dot
with a row is the cross product's dot with the row's three net dots, so it
vanishes on a row exactly when those three products sum to 0.  The rows
of the net's prefix are on every vector of the net; each other row before
the net's later rows is dotted with each new vector directly.
Each is an exact evaluation of the curve at the point, never inferred from
which subsets spanned the hyperplane, so coincident lifts cannot be double
counted, and no curve is evaluated again at every point.

Curve richness (the largest section of A on a curve of degree <= e) falls
out of the same scan at degree e: a richest section is the zero set of one
of the scanned kernel vectors (see `max_curve_richness`), so no scan over
all subsets of A is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from math import comb

from .bipoly import PlaneCurve
from .errors import HypothesisViolation, InvariantViolation
from .linalg import kernel, normalized_key, rank, spanned_vectors
from .veronese import Point, as_point, integer_lift, spanned_curve, vector_to_curve


@dataclass(frozen=True)
class PointConfiguration:
    """Distinct rational plane points with a working degree d."""

    points: tuple[Point, ...]
    d: int
    # degree -> rows; per instance, so a configuration is freed with its rows
    _rows: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # {(basis index tuple, d): verdict} of the last basis `ndfamilies`
    # verified or grew on this configuration with success; one entry, so a
    # grow, its verify and the projection's catalog walk the basis once
    _verdict: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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


@dataclass(frozen=True)
class CurveRecord:
    """A degree-d curve's incidence with A and the primitive vectors of its hyperplanes.

    Every hyperplane is spanned, so the curve is read off the first one
    (`spanned_curve`, no radical) when first asked for and kept; callers
    that need only incidences and counts build no polynomial.
    """

    d: int
    incidence: frozenset[int]
    hyperplanes: tuple[tuple[int, ...], ...]
    _curve: PlaneCurve | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def curve(self) -> PlaneCurve:
        if self._curve is None:
            object.__setattr__(self, "_curve", spanned_curve(self.hyperplanes[0], self.d))
        return self._curve

    def to_json_obj(self):
        return {
            "polynomial": self.curve.representative.text(),
            "radical": self.curve.radical.text(),
            "incidence": sorted(self.incidence),
            "hyperplane_count": len(self.hyperplanes),
        }


@dataclass(frozen=True)
class DeterminedCurveSet:
    d: int
    n: int | None
    records: tuple[CurveRecord, ...]

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
    """Largest section size, with the lexicographically first sorted section of that size."""
    best = min((sorted(s) for s in sections), key=lambda s: (-len(s), s))
    return len(best), tuple(best)


def spanned_hyperplanes(config: PointConfiguration):
    """The hyperplanes spanned by lifted subsets, as (primitive vector,
    incidence) pairs.

    Every spanned hyperplane contains N = C(d+2,2)-1 affinely independent
    lifted points, so scanning N-subsets with full affine rank is complete.
    The incidence is the set of indices of the points whose lifts lie on
    the hyperplane, read off the scan (`linalg.spanned_vectors`).  The pairs
    come sorted by their vectors' `normalized` forms.
    """
    found = spanned_vectors(config.homogeneous_lifts(config.d))
    return sorted(found.items(), key=lambda item: normalized_key(item[0]))


def enumerate_determined(config: PointConfiguration) -> DeterminedCurveSet:
    """All curves of degree d determined by the configuration, one per spanned hyperplane.

    Requires that no curve of degree <= d contains the whole set; then the
    determined curves are exactly the pullbacks of the spanned hyperplanes.

    Each spanned hyperplane's polynomial spans the vanishing space of an
    N-subset, N = C(d+2,2)-1, with independent rows, a space of dimension
    1; by the lemma at `veronese.spanned_curve` it is squarefree, so it is
    its own radical up to a scalar, distinct primitive vectors are distinct
    curves, and every curve has exactly one hyperplane.  Each record's
    incidence is the one the scan read off its pencil (`spanned_hyperplanes`),
    with no second pass over the points.  Records come in the order of
    their vectors' `normalized` forms.
    """
    d = config.d
    contained, witness = contained_in_curve(config, d)
    if contained:
        raise HypothesisViolation(
            "configuration not contained in a degree-<=d curve",
            f"witness curve {witness}",
        )
    records = []
    for vec, incidence in spanned_hyperplanes(config):
        rec = CurveRecord(d, incidence, (vec,))
        if len(rec.incidence) < comb(d + 2, 2) - 1:
            raise InvariantViolation(
                "determined curve with fewer than C(d+2,2)-1 incidences",
                {"d": d, "curve": rec.curve.representative.text(),
                 "incidence": sorted(rec.incidence)},
            )
        records.append(rec)
    return DeterminedCurveSet(d, None, tuple(records))


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
    curve, and the scan says so: below N = C(e+2,2)-1 its suffix ranks give
    it no subtree and it finds no vector, and at N it finds the one vector
    through every row.  Otherwise let I be a richest section.  Its
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


# the default threshold's denominator has 2^(3e+8) bits: 128 KiB at e = 4, and
# printing it in full takes time quadratic in that size
DEFAULT_THRESHOLD_MAX_E = 4


def default_regularity_threshold(d: int) -> Fraction:
    """Default richness threshold 1 / 2^(2^(3d+8)); far below any small set's reach."""
    return Fraction(1, 2 ** (2 ** (3 * d + 8)))


def _exact_str(q: Fraction) -> str:
    """str(q) without Python's int-to-str digit limit (Decimal keeps every digit)."""
    text = str(Decimal(q.numerator))
    return text if q.denominator == 1 else f"{text}/{Decimal(q.denominator)}"


@dataclass(frozen=True)
class RegularityReport:
    is_regular: bool
    ratio: Fraction
    threshold: Fraction
    witness: tuple[int, ...]

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
    any work: its denominator alone outgrows what can be printed in time.
    """
    d = config.d if d is None else d
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
