"""Counting nonattacking rider placements on n-by-n boards.

Cells are the integer points (x, y), 1 <= x, y <= n.  Two cells attack
each other when they share a move-1 line or a move-2 line.  So the
board is a bipartite graph H: its left vertices are the move-1 lines,
its right vertices the move-2 lines, and its edges the cells.

Placements are counted by Möbius inversion over the attack arrangement,
the inside-out polytope method of Beck and Zaslavsky ("Inside-out
polytopes", Adv. Math. 2006) as used by Chaiken, Hanusa and Zaslavsky
("A q-Queens Problem. I"):

    ordered placements = sum over set partitions p1, p2 of the pieces
                         of mu(p1) * mu(p2) * hom(G(p1, p2), H)

with mu(p) the product over blocks B of (-1)^(|B|-1) (|B|-1)!.  The
flat G(p1, p2) has the blocks of p1 as left vertices, the blocks of p2
as right vertices and one edge per piece; pieces that share both lines
share a cell, so parallel edges merge and distinct cells come for free.
Dividing by q! gives unordered placements.  The weighted flat shapes
depend on q alone and are built once per q; one routine, _peel, takes
their hom counts per board by passing messages between lines, peeling
leaves and opening each 2-core by pinning one vertex.  The resulting
integer sequences are fitted exactly to candidate quasipolynomials of
degree 2q: a period is tested in integers, by finite differences over
every sample, and only an accepted one is interpolated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import permutations
from math import factorial, prod

from .arrangement import solve_square_system
from .geometry import (Board, InternalInvariantError, Move, _require_int,
                       _require_move_pair)
from .denominator import denominator


class InsufficientData(Exception):
    """Raised when a fit needs more of the counting sequence.

    required_n_max says how far the sequence must extend before the
    attempted fit becomes decidable.
    """

    def __init__(self, message, required_n_max):
        super().__init__(message)
        self.required_n_max = required_n_max


@dataclass(frozen=True)
class CountSeries:
    moves: tuple
    q: int
    values: tuple  # values[n] = placements on the n x n board


# ---------------------------------------------------------------------------
# Weighted flats: the part of the count that depends on q alone.


def _set_partitions(q):
    """Every set partition of q pieces, as block labels in first-use order."""
    labels = [0] * q

    def grow(piece, blocks):
        if piece == q:
            yield tuple(labels)
            return
        for block in range(blocks + 1):
            labels[piece] = block
            yield from grow(piece + 1, max(blocks, block + 1))

    return grow(0, 0)


def _mobius(sizes):
    return prod((-1) ** (s - 1) * factorial(s - 1) for s in sizes)


def _canonical(edges):
    """Isomorphism class of a connected flat, its two sides kept apart.

    The smaller side (move 1 on a tie) is relabelled every way and each
    vertex of the other side is written as the bitmask of its
    neighbours; the least sorted tuple of masks names the class.
    """
    sides = ({a for a, _ in edges}, {b for _, b in edges})
    small = 0 if len(sides[0]) <= len(sides[1]) else 1
    neighbours = {}
    for edge in edges:
        neighbours.setdefault(edge[1 - small], []).append(edge[small])
    best = None
    for order in permutations(range(len(sides[small]))):
        rank = dict(zip(sorted(sides[small]), order))
        masks = tuple(sorted(
            sum(1 << rank[v] for v in vs) for vs in neighbours.values()
        ))
        if best is None or masks < best:
            best = masks
    return small, best


def _components(edges):
    """The edge lists of a graph's connected components, by union-find."""
    parent = {}

    def root(v):
        while v in parent:
            v = parent[v]
        return v

    for s, t in edges:
        rs, rt = root(s), root(t)
        if rs != rt:
            parent[rs] = rt
    parts = {}
    for edge in edges:
        parts.setdefault(root(edge[0]), []).append(edge)
    return list(parts.values())


def _shape(edges, forms, labelled):
    """The flat's connected components, as a sorted tuple of forms.

    A vertex is the int 2 * block + side, so the two sides never share
    one.  forms keeps the first component seen of each isomorphism class
    as that class's form; labelled memoizes a component's form by its
    edge set.
    """
    shape = []
    for component in _components(edges):
        key = frozenset(component)
        if key not in labelled:
            labelled[key] = forms.setdefault(_canonical(key), tuple(component))
        shape.append(labelled[key])
    return tuple(sorted(shape))


@cache
def _flat_table(q):
    """(shape, weight) for every flat of q pieces with nonzero weight.

    One move-1 partition per block-size profile stands for all set
    partitions with that profile, so the weight carries their number,
    counted while the partitions are listed; it is paired with every
    move-2 partition.
    """
    seconds, profiles = [], Counter()
    for labels in _set_partitions(q):
        sizes = Counter(labels).values()
        seconds.append(([2 * b + 1 for b in labels], _mobius(sizes)))
        profiles[tuple(sorted(sizes, reverse=True))] += 1
    table = {}
    forms, labelled = {}, {}
    for sizes, number in profiles.items():
        first = [2 * b for b, size in enumerate(sizes) for _ in range(size)]
        weight = number * _mobius(sizes)
        for second, mu in seconds:
            shape = _shape(set(zip(first, second)), forms, labelled)
            table[shape] = table.get(shape, 0) + weight * mu
    return tuple((shape, w) for shape, w in table.items() if w)


# ---------------------------------------------------------------------------
# Homomorphism counts into the board's line-incidence graph.


class _LineGraph:
    """The n-by-n board with move lines as vertices and cells as edges.

    Side 0 holds the move-1 lines, side 1 the move-2 lines.  across[s][i]
    lists, one entry per cell, the other side's lines that meet line i of
    side s, and degrees[s][i] is its length; an index whose line misses
    the board has degree 0.  A move with a component of n or more puts
    each cell on a line of its own, so it is keyed as the move (1, n).
    """

    def __init__(self, moves, n):
        moves = [m if max(abs(m.c), abs(m.d)) < n else Move(1, n)
                 for m in moves]
        lows = []
        self.across = []
        for move in moves:
            # a line's key x*d - y*c is extreme at a corner of the board
            ends = [x * move.d - y * move.c for x in (1, n) for y in (1, n)]
            lows.append(min(ends))
            self.across.append([[] for _ in range(max(ends) - min(ends) + 1)])
        (c1, d1), (c2, d2) = ((move.c, move.d) for move in moves)
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                i, j = x * d1 - y * c1 - lows[0], x * d2 - y * c2 - lows[1]
                self.across[0][i].append(j)
                self.across[1][j].append(i)
        self.degrees = [[len(js) for js in lines] for lines in self.across]

    def push(self, weights, side):
        """Sum line weights along the cells onto the other side's lines.

        None weighs every line 1; the returned list is never mutated.
        Only lines of nonzero weight are walked.
        """
        if weights is None:
            return self.degrees[1 - side]
        out = [0] * len(self.degrees[1 - side])
        for js, w in zip(self.across[side], weights):
            if w:
                for j in js:
                    out[j] += w
        return out


def _times(weights, message):
    if weights is None:
        return message
    return [x * y for x, y in zip(weights, message)]


def _peel(edges, weight, graph):
    """Weighted homomorphisms of a connected flat into the line graph.

    Vertex v takes the lines of side v & 1, and weight[v] weighs them;
    a missing or None entry weighs each line 1.  Leaves are peeled first, each folding its
    weights into its neighbour's; a tree ends as one weighted vertex.  A
    2-core is opened at its vertex u of highest degree: once u sits on
    line l, each edge (u, t) only asks t to cross l, so u splits into
    one leaf pinned to l per edge, and peeling that leaf keeps t's
    weights on the lines that cross l.  The rest is peeled again for
    every l, its components multiplied.
    """
    adjacent = {}
    for s, t in edges:
        adjacent.setdefault(s, set()).add(t)
        adjacent.setdefault(t, set()).add(s)
    weight = {v: weight.get(v) for v in adjacent}
    leaves = [v for v, vs in adjacent.items() if len(vs) == 1]
    while leaves and len(adjacent) > 1:
        leaf = leaves.pop()
        if len(adjacent.get(leaf, ())) != 1:
            continue
        (v,) = adjacent.pop(leaf)
        adjacent[v].discard(leaf)
        weight[v] = _times(weight[v], graph.push(weight.pop(leaf), leaf & 1))
        if len(adjacent[v]) == 1:
            leaves.append(v)
    if len(adjacent) == 1:
        (last,) = weight.values()
        return sum(last)
    u = max(adjacent, key=lambda v: len(adjacent[v]))
    parts = _components([
        e for e in edges if u not in e and adjacent.keys() >= set(e)
    ])
    lines = len(graph.degrees[u & 1])
    total = 0
    for line, term in enumerate(weight[u] or [1] * lines):
        if not term:
            continue
        crossing = graph.push([k == line for k in range(lines)], u & 1)
        pinned = dict(weight)
        for t in adjacent[u]:
            pinned[t] = _times(weight[t], crossing)
        for part in parts:
            term *= _peel(part, pinned, graph)
            if not term:
                break
        total += term
    return total


def count(moves, q, n):
    """Number of ways to place q mutually nonattacking riders."""
    _require_int(q, "q")
    _require_int(n, "n")
    _require_move_pair(moves)
    graph = _LineGraph(moves, n)
    if q > min(sum(map(bool, lines)) for lines in graph.degrees):
        return 0  # two of the pieces would share a line
    homs = {}
    total = 0
    for shape, weight in _flat_table(q):
        for form in shape:
            if form not in homs:
                homs[form] = _peel(form, {}, graph)
            weight *= homs[form]
        total += weight
    placements, rest = divmod(total, factorial(q))
    if rest:
        raise InternalInvariantError(
            f"ordered count {total} is not divisible by {q}!"
        )
    return placements


def count_series(moves, q, n_max):
    _require_int(n_max, "n_max")
    return CountSeries(
        tuple(moves), q, tuple(count(moves, q, n) for n in range(n_max + 1))
    )


# ---------------------------------------------------------------------------
# Exact quasipolynomial fitting.


@dataclass(frozen=True)
class QuasipolynomialFit:
    degree: int
    period: int
    constituents: tuple  # per residue class: Fraction coeffs, ascending


def _fits(values, period, degree):
    """Whether each residue class lies on a polynomial of degree <= degree.

    The class of r takes the samples values[r], values[r + period], ...
    from n = 1 on; equally spaced samples lie on one such polynomial
    exactly when their (degree + 1)-th differences vanish.
    """
    for r in range(1, period + 1):
        diffs = values[r::period]
        for _ in range(degree + 1):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        if any(diffs):
            return False
    return True


def fit(series, period):
    """Fit one quasipolynomial of the given period, or None if refuted.

    The degree is 2q.  Counts for n >= 1 are used (the empty board is
    not governed by the counting function).  Each residue class needs
    degree + 2 samples; _fits checks every one, and any mismatch refutes
    the period.  Each class of an accepted period is interpolated
    through its first degree + 1 samples.  Refuses a period that is not
    an int (TypeError) or is below 1 (ValueError).
    """

    _require_int(period, "period", 1)
    degree = 2 * series.q
    n_max = len(series.values) - 1
    needed = period * (degree + 2)
    if n_max < needed:
        raise InsufficientData(
            f"period {period} at degree {degree} needs counts up to "
            f"n = {needed}, have {n_max}",
            required_n_max=needed,
        )
    if not _fits(series.values, period, degree):
        return None
    constituents = []
    for r in range(period):
        ns = range(r or period, n_max + 1, period)[: degree + 1]
        constituents.append(tuple(solve_square_system(
            [[n**k for k in range(degree + 1)] for n in ns],
            [series.values[n] for n in ns],
        )))
    return QuasipolynomialFit(degree, period, tuple(constituents))


def minimal_period(series):
    """Smallest period whose degree-2q fit validates, or None when undecided.

    None means every attemptable period was refuted by the data — the
    sequence is too short to reveal its period, not periodic-free.
    """

    degree = 2 * series.q
    n_max = len(series.values) - 1
    period = 1
    while period * (degree + 2) <= n_max:
        if _fits(series.values, period, degree):
            return period
        period += 1
    return None


@dataclass(frozen=True)
class ConjectureReport:
    q: int
    period: int
    denominator: int
    equal: bool


def conjecture_report(moves, q, n_max):
    """Compare the fitted minimal period against the exact denominator.

    The period must divide the denominator; a violation is a bug in
    this library, not a data point, and raises accordingly.  Whether
    they are equal is the open question this report exists to probe.
    """

    series = count_series(moves, q, n_max)
    report = denominator(Board.square(), moves, q)
    period = minimal_period(series)
    if period is None:
        fit(series, report.value)  # raises if D could not be tried
        raise InternalInvariantError(
            f"counts up to n = {n_max} refute the denominator {report.value}"
        )
    if report.value % period != 0:
        raise InternalInvariantError(
            f"fitted period {period} does not divide denominator "
            f"{report.value}"
        )
    return ConjectureReport(q, period, report.value, period == report.value)
