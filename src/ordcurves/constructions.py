"""Generators for extremal and random point configurations.

Two construction families make the upper bounds of the enumeration tight: a
line loaded with most of the points plus a small general-position block off
it, and a carrier curve holding all but one point with the lifted points in
general position inside the carrier's hyperplane.  Both are built greedily
with exact certificates; random samplers reject candidates violating the
requested lifted general position.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb
from operator import itemgetter, mul

from .bipoly import PlaneCurve, parse_poly
from .determined import PointConfiguration, contained_in_curve
from .errors import HypothesisViolation, InvariantViolation
from .linalg import dual_basis, kernel_root, kernel_step
from .veronese import integer_lift


class Construction:
    __slots__ = ("config", "provenance")

    def __init__(self, config: PointConfiguration, provenance: dict):
        self.config = config
        self.provenance = provenance

    def to_json_obj(self):
        return {
            "d": self.config.d,
            "points": [[str(x), str(y)] for x, y in self.config.points],
            "provenance": self.provenance,
        }


def _rand_point(rng: random.Random, span: int, den_choices=(1,)):
    den = rng.choice(den_choices)
    return (
        Fraction(rng.randint(-span, span), den),
        Fraction(rng.randint(-span, span), den),
    )


def construct_theorem6(d: int, m: int, seed: int = 0) -> Construction:
    """Line-heavy extremal set: C(d+1,2) block points plus m - C(d+1,2) on a line.

    The block is resampled until certified off every curve of degree d-1,
    which forces the whole set off every curve of degree d.
    """
    if d <= 1:
        raise HypothesisViolation("d > 1", f"d={d}")
    if 2 * m <= max(3 * d * d - 3 * d + 4, d * d + 4 * d):
        raise HypothesisViolation(
            "m > max((3d^2-3d+4)/2, (d^2+4d)/2)",
            f"m={m} fails the bound at d={d}",
        )
    rng = random.Random(seed)
    block_size = comb(d + 1, 2)
    span = 4 * (m + d)
    block: list = []
    for _ in range(4000):
        cand = _rand_point(rng, span)
        if cand[1] == 0 or cand in block:
            continue
        block.append(cand)
        if len(block) < block_size:
            continue
        probe = PointConfiguration.from_points(block, d - 1)
        if contained_in_curve(probe, d - 1)[0]:
            block.pop(rng.randrange(len(block)))
            continue
        break
    else:
        raise HypothesisViolation(
            "block sampling budget", "could not certify a general-position block"
        )
    xs = rng.sample(range(-span, span + 1), m - block_size)
    line_pts = [(Fraction(x), Fraction(0)) for x in sorted(xs)]
    pts = block + line_pts
    config = PointConfiguration.from_points(pts, d)
    contained, witness = contained_in_curve(config, d)
    if contained:
        raise InvariantViolation(
            "line-plus-block set lies on a low-degree curve",
            {"witness": witness.representative.text(), "d": d, "m": m},
        )
    return Construction(
        config,
        {
            "kind": "theorem6",
            "d": d,
            "m": m,
            "seed": seed,
            "line": "y",
            "block_indices": list(range(block_size)),
            "line_indices": list(range(block_size, m)),
            "certificates": {"block_off_lower_degree": True, "not_on_degree_d": True},
        },
    )


def default_carrier(d: int) -> PlaneCurve:
    return PlaneCurve.from_poly(parse_poly(f"y - x^{d}") if d > 1 else parse_poly("y - x"))


def construct_theorem8(d: int, n: int, m: int, seed: int = 0) -> Construction:
    """Carrier-heavy set: m-1 points on the carrier y = x^d plus (0, 1) off it.

    Carrier points are chosen greedily so every lifted subset of size up to
    C(d+2,2)-1 stays affinely independent; each step's obstruction flats are
    finite and each excludes at most d^2 carrier parameters, bounding the
    sweep.

    The test runs in carrier coordinates.  On the integer lift of every
    point (t, t^d), the y column equals the x^d column (the same column at
    d = 1), so the lifts span a subspace of the hyperplane where the two
    agree, and dropping the y column is injective there: a subset of lifts
    keeps its rank, and a lift lies in the span of others exactly when it
    does without that column.  So the span guard runs on rows of N
    columns, testing spans of N-1 lifts, one less than the row length, as
    it does on the samplers' full lifts.
    """
    N = comb(d + 2, 2) - 1
    if n < N:
        raise HypothesisViolation("n >= C(d+2,2)-1", f"n={n} < {N}")
    if m <= 2 * n + 1 - (N + 1):
        raise HypothesisViolation(
            "m > 2n+1-C(d+2,2)", f"m={m} at n={n}, d={d}"
        )
    rng = random.Random(seed)
    window = list(range(-3 * m - 4, 3 * m + 5))
    rng.shuffle(window)
    chosen: list = []
    # every N-subset of the chosen lifts stays independent, tested in
    # carrier coordinates: the lifts without their y column
    guard = _SpanGuard(N)
    pos = 0
    for step in range(m - 1):
        r = min(len(chosen), N - 1)
        budget = d * d * comb(len(chosen), r) + len(chosen) + 2
        tried = 0
        placed = False
        while tried <= budget:
            if pos >= len(window):
                # fresh parameters, one past the window's largest, so that
                # no refused parameter is tried again
                top = max(window) + 1
                extension = list(range(top, top + budget + 1))
                rng.shuffle(extension)
                window.extend(extension)
            t = Fraction(window[pos])
            pos += 1
            pt = (t, t**d)
            if pt in chosen:
                continue
            tried += 1
            z = integer_lift(pt, d)
            z = z[:2] + z[3:]
            if guard.spans(z):
                continue
            chosen.append(pt)
            guard.accept(z)
            placed = True
            break
        if not placed:
            raise InvariantViolation(
                "carrier sweep exhausted beyond the counting budget",
                {"step": step, "budget": budget, "d": d, "m": m},
            )
    pts = [(Fraction(0), Fraction(1))] + chosen
    config = PointConfiguration.from_points(pts, d)
    contained, witness = contained_in_curve(config, d)
    if contained:
        raise InvariantViolation(
            "carrier construction lies on a low-degree curve",
            {"witness": witness.representative.text()},
        )
    return Construction(
        config,
        {
            "kind": "theorem8",
            "d": d,
            "n": n,
            "m": m,
            "seed": seed,
            "carrier": default_carrier(d).representative.text(),
            "off_index": 0,
            "carrier_indices": list(range(1, m)),
            "certificates": {"lifted_general_position_in_hyperplane": True},
        },
    )


class _SpanGuard:
    """Whether a row lies in the span of N = n - 1 accepted rows, n the
    row length, or of all of them while there are fewer.

    A row is accepted only when it does not, so by induction every subset
    of at most n accepted rows is independent.  An accepted row that was
    never tested and breaks this raises InvariantViolation when the next
    row is tested, and nothing is done for the last accepted row until then.

    Below n rows the one subset is every row, and a row lies in its span
    exactly when it is orthogonal to their kernel node, stepped once per
    accepted row.  The n-th accepted row makes the rows a basis B, with the
    A_u of `linalg.dual_basis`, B_i.A_u = D_u [i = u], read off the kernel
    nodes of B's prefixes with no further step, and each later row j is
    kept only through mu_j = (row_j.A_u)_u.  Put lambda = (z.A_u)_u for
    a candidate z.  Every N-subset of the accepted rows is (B \\ U) + T for
    one set T of later rows and one set U of basis columns with
    |U| = |T| + 1, and z lies in its span exactly when det [mu_T; lambda]
    on the columns U is 0.  Proof: the subset is independent, so its span
    is the hyperplane orthogonal to its kernel line.  By the coordinates
    lemma (`linalg`) that line is spanned by the sum of y_u A_u over U, y
    the signed maximal minors of mu_T on U, and z.(sum y_u A_u) =
    sum y_u lambda_u is the Laplace expansion of det [mu_T; lambda] on U
    along its last row.

    So for each nonempty T the guard keeps the |T| x |T| minors of mu_T,
    one per column set (mu_j itself for T = {j}), and a test expands
    det [mu_T; lambda] along lambda on every U from them (`_laplace`): at
    T empty the determinants are the lambda_u, and at |T| = n - 1 the one
    determinant is the dot of mu_T's n minors with lambda's signed
    cofactors, one dot per T.  That is sum_t C(k - n, t) C(n, t + 1) =
    C(k, N) determinants for k rows (Vandermonde), one per N-subset.  Those
    for |T| <= n - 2 are the minors of mu_{T + z}, so an accepted row keeps
    what its own test computed, and no hyperplane is ever built.
    """

    def __init__(self, n_cols: int):
        self.rows: list = []
        self.nodes = [kernel_root(n_cols)]
        self.dual: list = []
        self.levels: list = []
        self.pending: list = []
        self.tested = None

    def spans(self, z) -> bool:
        for row in self.pending:
            self._add(row)
        self.pending.clear()
        self.tested = z, self._minors(z)
        return self.tested[1] is None

    def accept(self, z) -> None:
        self.pending.append(z)

    def _minors(self, z):
        """None when z lies in the span of N accepted rows, or of all of
        fewer; otherwise, from n rows on, the minors of mu_{T + z} for each
        T of at most n - 2 later rows, listed by |T|."""
        if not self.dual:
            return None if not any(sum(map(mul, v, z)) for v in self.nodes[-1][0]) else []
        lam = [sum(map(mul, a, z)) for a in self.dual]
        if not all(lam):
            return None
        n = len(lam)
        signed = lam + [-x for x in lam]
        grown = [[lam]]
        for size, level in enumerate(self.levels, 1):
            if size == n - 1:
                cofactors = [-x if k % 2 else x for k, x in enumerate(reversed(lam))]
                return grown if all(sum(map(mul, m, cofactors)) for m in level) else None
            table = _laplace(n, size)
            coefs = [terms(signed) for _, terms in table]
            new = [[sum(map(mul, c, get(minors))) for (get, _), c in zip(table, coefs)]
                   for minors in level]
            if not all(map(all, new)):
                return None
            grown.append(new)
        return grown

    def _add(self, z) -> None:
        tested, grown = self.tested or (None, None)
        self.tested = None
        if tested is not z:
            grown = self._minors(z)
        if grown is None:
            raise InvariantViolation(
                "an accepted row lies in the span of N accepted rows",
                {"rows": self.rows, "row": list(z)},
            )
        self.rows.append(z)
        if len(self.rows) == len(z):
            self.dual = dual_basis(self.rows, self.nodes)
        elif not self.dual:
            self.nodes.append(kernel_step(self.nodes[-1], z))
        for size, new in enumerate(grown):
            if size < len(self.levels):
                self.levels[size] += new
            else:
                self.levels.append(new)


@cache
def _laplace(n: int, size: int) -> tuple:
    """The Laplace expansion along a new last row lambda that takes the
    maximal minors of a size x n matrix M to those of [M; lambda].

    A maximal minor is listed by its column set, in the order of
    `combinations(range(n), size)`.  One entry (get, terms) per column set U
    of size + 1: `get` picks the minors of M on U less each of its columns
    in turn, and `terms` picks lambda_u for each such column u with the
    sign of its term, (-1)^(size + i) at position i, out of lambda followed
    by -lambda.
    """
    index = {w: i for i, w in enumerate(combinations(range(n), size))}
    return tuple(
        (itemgetter(*(index[U[:i] + U[i + 1:]] for i in range(size + 1))),
         itemgetter(*(u + n * ((size + i) % 2) for i, u in enumerate(U))))
        for U in combinations(range(n), size + 1)
    )


def sample_configuration(kind: str, seed: int = 0, d: int = 1, count: int | None = None,
                         genericity: int | None = None, side: int | None = None) -> Construction:
    """Deterministic configuration samplers; each reads only its own inputs.

    kind 'grid': the side x side integer grid (side 3 when None).  kind
    'random_general': count points, required, with integer coordinates
    bounded by 6 * count + 8; genericity (d when None) is the max degree
    whose lifted subsets of every admissible size must stay affinely
    independent, 0 disables; a negative one is refused.
    """
    d = int(d)
    if kind == "grid":
        side = 3 if side is None else int(side)
        pts = [(Fraction(x), Fraction(y)) for y in range(side) for x in range(side)]
        return Construction(
            PointConfiguration.from_points(pts, d),
            {"kind": "grid", "width": side, "height": side, "d": d, "seed": seed},
        )
    if kind != "random_general":
        raise HypothesisViolation("known sampler kind", f"kind={kind}")
    if count is None:
        raise HypothesisViolation("random_general count given", "count is None")
    count = int(count)
    if genericity is not None and int(genericity) < 0:
        raise HypothesisViolation("genericity >= 0", f"genericity={genericity}")
    g = d if genericity is None else int(genericity)
    span = 6 * count + 8
    rng = random.Random(seed)
    pts: list = []
    guards = [_SpanGuard(comb(e + 2, 2)) for e in range(1, g + 1)]
    budget = 600 * count + 200
    tries = 0
    while len(pts) < count:
        tries += 1
        if tries > budget:
            raise HypothesisViolation(
                "rejection budget", f"could not place {count} points at genericity {g}"
            )
        cand = _rand_point(rng, span)
        if cand in pts:
            continue
        lifts = [integer_lift(cand, e) for e in range(1, g + 1)]
        if any(guard.spans(z) for guard, z in zip(guards, lifts)):
            continue
        pts.append(cand)
        for guard, z in zip(guards, lifts):
            guard.accept(z)
    return Construction(
        PointConfiguration.from_points(pts, d),
        {
            "kind": "random_general",
            "count": count,
            "d": d,
            "genericity": g,
            "span": span,
            "seed": seed,
            "certificates": {"lifted_general_position_degree": g},
        },
    )
