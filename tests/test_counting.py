import hashlib
import os
import subprocess
import sys
from functools import cache
from itertools import combinations
from math import comb, factorial, inf
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from riderflow import (
    Board,
    CountSeries,
    InsufficientData,
    canonical_move,
    conjecture_report,
    count,
    count_series,
    denominator,
    fit,
    minimal_period,
)
from riderflow.counting import _LineGraph, _flat_table

from conftest import MOVE_PAIRS, canonical_move_pairs, move_pairs
from oracles import (
    attack_masks,
    backtrack_count,
    count_pairs_formula,
    evaluate_fit,
    inclusion_exclusion_count,
    newton_fit,
)

BISHOP = (canonical_move(1, 1), canonical_move(1, -1))
LATERAL = (canonical_move(2, 1), canonical_move(2, -1))
ORTH = (canonical_move(2, 1), canonical_move(1, -2))
INC = (canonical_move(2, 1), canonical_move(1, 2))
VERTICAL = (canonical_move(0, 1), canonical_move(3, 1))
NAMED_PAIRS = {
    "BISHOP": BISHOP,
    "LAT": LATERAL,
    "ORTH": ORTH,
    "INC": INC,
    "VERTICAL": VERTICAL,
}


def brute_count(moves, q, n):
    """Direct enumeration over cell subsets with a fresh attack test."""
    cells = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]

    def attacks(a, b):
        dx, dy = a[0] - b[0], a[1] - b[1]
        return any(dx * m.d - dy * m.c == 0 for m in moves)

    total = 0
    for subset in combinations(cells, q):
        if all(not attacks(a, b) for a, b in combinations(subset, 2)):
            total += 1
    return total


@pytest.mark.parametrize("moves", [BISHOP, LATERAL, ORTH])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_count_matches_brute_force(moves, q):
    for n in range(0, 5):
        assert count(moves, q, n) == brute_count(moves, q, n)


def test_count_edge_cases():
    assert count(BISHOP, 0, 3) == 1
    assert count(BISHOP, 0, 0) == 1
    assert count(BISHOP, 2, 0) == 0
    assert count(BISHOP, 1, 4) == 16
    with pytest.raises(ValueError):
        count(BISHOP, -1, 3)


@pytest.mark.parametrize("name", sorted(NAMED_PAIRS))
@pytest.mark.parametrize("q, n_max", [(1, 12), (2, 12), (3, 12), (4, 8)])
def test_count_matches_backtracker(name, q, n_max):
    moves = NAMED_PAIRS[name]
    for n in range(0, n_max + 1):
        assert count(moves, q, n) == backtrack_count(moves, q, n), n


@given(move_pairs(), st.integers(0, 4), st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_count_matches_backtracker_on_random_pairs(moves, q, n):
    assert count(moves, q, n) == backtrack_count(moves, q, n)


@pytest.mark.parametrize("name", sorted(NAMED_PAIRS))
def test_pair_counts_match_the_closed_count(name):
    moves = NAMED_PAIRS[name]
    for n in range(0, 25):
        assert count(moves, 2, n) == count_pairs_formula(moves, n)


# n where the backtracker cannot follow: the counts that period
# certificates rest on reach n in the thousands
LARGE_N = (100, 250)


@pytest.mark.parametrize("n", LARGE_N)
def test_pair_counts_match_the_closed_count_at_large_n(n):
    for moves in NAMED_PAIRS.values():
        assert count(moves, 2, n) == count_pairs_formula(moves, n)


@pytest.mark.parametrize("n", LARGE_N)
def test_a_quarter_turn_keeps_triple_counts_at_large_n(n):
    # rotating the square maps placements to placements, but it changes
    # every line key, so the two riders' line graphs are indexed apart
    moves = (canonical_move(3, 2), canonical_move(4, -3))
    turned = (canonical_move(2, -3), canonical_move(3, 4))
    assert count(moves, 3, n) == count(turned, 3, n)


@pytest.mark.parametrize("n", LARGE_N)
def test_counts_match_inclusion_exclusion_at_large_n(n):
    # (3,2)/(4,-3) has the largest q = 3 denominator, 1,224, of the pairs
    # with |c|, |d| <= 4
    cases = [(moves, q) for moves in NAMED_PAIRS.values() for q in (2, 3)]
    cases.append(((canonical_move(3, 2), canonical_move(4, -3)), 3))
    for moves, q in cases:
        assert count(moves, q, n) == inclusion_exclusion_count(moves, q, n)


def test_rook_counts_match_the_closed_form():
    # q rooks: choose q rows and q columns, then match them up; flats
    # with cycles appear from q = 4, and at q = 8 a pinned vertex can be
    # a cut vertex, so this checks opening 2-cores as well
    rook = (canonical_move(1, 0), canonical_move(0, 1))
    for q in range(0, 9):
        for n in range(0, 10):
            assert count(rook, q, n) == comb(n, q) ** 2 * factorial(q)


# sha256 of count_series values, recorded before 2-cores were opened by
# pinning a vertex: the 28 pairs with |c|, |d| <= 2 at q = 4 (n <= 12),
# q = 5 (n <= 8) and q = 6 (n <= 6), then BISHOP and ORTH at q = 7 and
# q = 8 (n <= 8).  From q = 4 on, some flats have cycles.
COUNT_SERIES_SHA256 = (
    "5d620291ab0ccaf021afa5a2348f04b337ed824c6037af8823e1678375938664"
)


@pytest.mark.slow
def test_count_series_digest():
    cases = [
        (moves, q, n_max)
        for q, n_max in ((4, 12), (5, 8), (6, 6))
        for moves in canonical_move_pairs(2)
    ]
    cases += [(moves, q, 8) for q in (7, 8) for moves in (BISHOP, ORTH)]
    digest = hashlib.sha256()
    for moves, q, n_max in cases:
        values = count_series(moves, q, n_max).values
        digest.update(
            f"{moves[0].c},{moves[0].d} {moves[1].c},{moves[1].d} "
            f"q={q}: {values}\n".encode()
        )
    assert len(cases) == 88
    assert digest.hexdigest() == COUNT_SERIES_SHA256


# sha256 of repr(sorted(_flat_table(q))), recorded while each block-size
# profile's weight came from the relabelling formula q!/prod(s!^k k!).
# The table's entry order is free, since count only sums its terms.
FLAT_TABLE_SHA256 = {
    0: "b94b1cb7d1cbc4e4791574cd93e5514a2b093fe640d2f7d3843a71615941f761",
    1: "1898cf97e0ebd48faf98b373db58b36d368682d25a250338139bf39466353864",
    2: "eeaca8cf7d9dd0e319fb0cbd6141e87f143a6f4243d81a655b8424bc55942ee6",
    3: "fccc232f1d0ec5d7830678caed724e9ba9cf3f412e6ba1f31732c9d3b13c858f",
    4: "b714f6981b64f4b6955c01d35b5a9f5944548c9926b9843648b1bcb52fba57a3",
    5: "cff574fd941d65921efd3ad306fe206ac85cfb53d52ebcc6f4faf511b5a59807",
    6: "cb6ffe5aee085a4d14b245e30172423ade341e01ef7c11b1df7425f5c7319be3",
    7: "870e07a6ba6c1b6337a42f3a2cd13cb1326a2a76ba3c05424e61d16ba0e2f473",
    8: "2506d736feb058714338ad6dcd189d1ad34e0ffca708601623e6c3f015ab5574",
}


@pytest.mark.parametrize("q", sorted(FLAT_TABLE_SHA256))
def test_flat_table_digest(q):
    table = sorted(_flat_table(q))
    digest = hashlib.sha256(repr(table).encode()).hexdigest()
    assert digest == FLAT_TABLE_SHA256[q]


def _run_counting(code, timeout):
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=timeout, env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.slow
def test_bishops_to_seven_pieces_count_in_seconds():
    # most q = 7 flats have cycles; each is opened by pinning one
    # vertex, so n = 36 takes seconds, not a minute
    done = _run_counting(
        "from riderflow import canonical_move as m, count_series\n"
        "print(count_series((m(1, 1), m(1, -1)), 7, 36).values[8])\n",
        timeout=15,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "14082528\n"  # backtrack_count(BISHOP, 7, 8)


def test_count_needs_two_nonparallel_moves():
    with pytest.raises(ValueError):
        count((BISHOP[0], BISHOP[0]), 2, 3)
    with pytest.raises(ValueError):
        count(BISHOP[:1], 2, 3)


def test_more_pieces_than_lines_count_zero_at_once():
    # BISHOP on the 3x3 board has 5 diagonals a side; 50 pieces cannot
    # all sit on different ones, and the q=50 flats must not be built
    done = _run_counting(
        "from riderflow import canonical_move as m, count\n"
        "print(count((m(1, 1), m(1, -1)), 50, 3))\n",
        timeout=20,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"
    assert count(BISHOP, 5, 3) == backtrack_count(BISHOP, 5, 3) == 0
    assert count(BISHOP, 4, 3) == backtrack_count(BISHOP, 4, 3)


@pytest.mark.parametrize("c, n_max", [(7, 9), (99999999999999, 5)])
@pytest.mark.parametrize("q", [2, 3])
def test_a_long_move_counts_like_the_backtracker(c, n_max, q):
    # from n = c on, no two cells share a line of the move (c, 1)
    moves = (canonical_move(c, 1), canonical_move(1, 2))
    for n in range(1, n_max + 1):
        assert count(moves, q, n) == backtrack_count(moves, q, n), n


def test_line_keys_grow_with_the_board_not_the_move():
    graph = _LineGraph((canonical_move(10**5, 1), canonical_move(1, 2)), 3)
    assert all(len(side) <= 2 * 3 * 3 for side in graph.degrees)


def test_attack_masks_symmetric():
    masks = attack_masks(ORTH, 4)
    for i in range(16):
        for j in range(16):
            assert bool(masks[i] >> j & 1) == bool(masks[j] >> i & 1)
        assert not masks[i] >> i & 1


@given(move_pairs(), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_pair_count_formula(moves, n):
    assert count(moves, 2, n) == count_pairs_formula(moves, n)


def test_mirroring_the_moves_preserves_counts():
    mirrored = tuple(canonical_move(m.c, -m.d) for m in ORTH)
    for n in range(1, 6):
        for q in (2, 3):
            assert count(ORTH, q, n) == count(mirrored, q, n)


def test_series_values_indexed_by_n():
    series = count_series(BISHOP, 2, 5)
    assert series.values[0] == 0
    assert series.values[2] == 4
    assert len(series.values) == 6


def bishop_pair_polynomial(n):
    # all pairs minus same-diagonal pairs, summed in closed form
    return comb(n * n, 2) - 4 * comb(n, 3) - 2 * comb(n, 2)


def test_bishop_pairs_against_closed_form():
    for n in range(1, 12):
        assert count(BISHOP, 2, n) == bishop_pair_polynomial(n)


def test_fit_finds_polynomial():
    series = count_series(BISHOP, 2, 14)
    fitted = fit(series, 1)
    assert fitted is not None
    assert fitted.period == 1
    for n in range(1, 30):
        assert evaluate_fit(fitted, n) == bishop_pair_polynomial(n)


def test_fit_rejects_wrong_period():
    series = count_series(BISHOP, 3, 18)
    assert fit(series, 1) is None
    fitted = fit(series, 2)
    assert fitted is not None
    for n in range(1, 19):
        assert evaluate_fit(fitted, n) == series.values[n]


def test_fit_reports_missing_data():
    series = count_series(BISHOP, 2, 6)
    with pytest.raises(InsufficientData) as err:
        fit(series, 2)
    assert err.value.required_n_max == 2 * (2 * 2 + 2)


def test_fit_rejects_bad_period():
    series = count_series(BISHOP, 2, 8)
    with pytest.raises(ValueError):
        fit(series, 0)


def test_minimal_period_bishop():
    assert minimal_period(count_series(BISHOP, 2, 14)) == 1
    assert minimal_period(count_series(BISHOP, 3, 18)) == 2


def test_minimal_period_undecidable_on_short_series():
    assert minimal_period(count_series(BISHOP, 2, 5)) is None


def test_fit_lower_degree():
    # degree 2 is 2q at q = 1
    series = count_series(BISHOP, 1, 8)
    fitted = fit(series, 1)
    assert fitted is not None
    assert fitted.constituents[0] == (0, 0, 1)  # n^2 placements


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fit_and_minimal_period_match_the_newton_oracle(data):
    # a random integer quasipolynomial, possibly with one sample off it
    period = data.draw(st.integers(1, 4), label="period")
    q = data.draw(st.integers(0, 2), label="q")
    degree = 2 * q
    classes = data.draw(st.lists(
        st.lists(st.integers(-50, 50), min_size=degree + 1,
                 max_size=degree + 1),
        min_size=period, max_size=period,
    ), label="coefficients")
    n_max = data.draw(
        st.integers(period * (degree + 2), period * (degree + 4)),
        label="n_max",
    )
    values = [
        sum(c * n**k for k, c in enumerate(classes[n % period]))
        for n in range(n_max + 1)
    ]
    if data.draw(st.booleans(), label="perturbed"):
        n = data.draw(st.integers(0, n_max), label="n")
        values[n] += data.draw(st.sampled_from([-2, -1, 1, 2]))
    series = CountSeries((), q, tuple(values))
    validating = []
    for p in range(1, n_max // (degree + 2) + 1):
        fitted = fit(series, p)
        want = newton_fit(values, p, degree)
        assert (None if fitted is None else fitted.constituents) == want
        if want is not None:
            validating.append(p)
    assert minimal_period(series) == min(validating, default=None)


def test_conjecture_report_bishop_pairs():
    report = conjecture_report(BISHOP, 2, 14)
    assert report.period == 1
    assert report.denominator == 1
    assert report.equal


def test_inclined_q3_period_equals_denominator():
    # period 12 needs n >= 12 * 8; n = 120 leaves three surplus samples
    # in every residue class
    report = conjecture_report(INC, 3, 120)
    assert (report.period, report.denominator) == (12, 12)
    assert report.equal


@pytest.mark.slow
def test_orthogonal_q3_period_equals_denominator():
    # period 20 needs n >= 20 * 8; n = 200 leaves three surplus samples
    # in every residue class
    report = conjecture_report(ORTH, 3, 200)
    assert (report.period, report.denominator) == (20, 20)
    assert report.equal


# The count is a quasipolynomial in n of degree 2q, and its period p
# divides the denominator D (Beck-Zaslavsky).  If p divides a step s, the
# samples count(t + k*s), k = 0 ... 2q + 1, lie in one residue class, on
# one polynomial of degree <= 2q, so their (2q + 1)-th difference
# vanishes for every t >= 1.  At s = D this checks the engine's D against
# the counter.  At s = D/l for a prime l | D, a nonzero difference proves
# p does not divide D/l; as p | D, that for every prime of D proves p = D.
SQUARE_PAIRS = canonical_move_pairs(2)


@cache
def _square_count(moves, q, n):
    return count(moves, q, n)


@cache
def _square_denominator(moves, q):
    return denominator(Board.square(), moves, q).value


def _step_difference(moves, q, t, step):
    return sum(
        (-1) ** k * comb(2 * q + 1, k) * _square_count(moves, q, t + k * step)
        for k in range(2 * q + 2)
    )


def _primes(d):
    primes, p = [], 2
    while d > 1:
        if d % p == 0:
            primes.append(p)
            while d % p == 0:
                d //= p
        p += 1
    return primes


# per q, how many pairs with |c|, |d| <= 4 the step-D check takes: all
# of them at q <= 2; at q = 3 those with |c|, |d| <= 2 and those with
# D <= 12, as the rest count past n = 3 + 7 * 12
STEP_D_PAIRS = {1: 276, 2: 276, 3: 130}


@pytest.mark.parametrize("q", [1, 2, 3])
def test_counts_repeat_with_the_denominator_as_step(q):
    pairs = [
        moves
        for moves in MOVE_PAIRS
        if q < 3 or moves in SQUARE_PAIRS
        or _square_denominator(moves, q) <= 12
    ]
    # t = 2 alone catches INC at q = 3 with D halved; keep all three
    nonzero = [
        (moves, t)
        for moves in pairs
        for t in (1, 2, 3)
        if _step_difference(moves, q, t, _square_denominator(moves, q))
    ]
    assert len(pairs) == STEP_D_PAIRS[q]
    assert nonzero == []


# per q, the largest D whose prime steps are checked and how many pairs
# that leaves: the two D = 120 pairs at q = 4 count past n = 300
PRIME_STEP_PAIRS = {2: (inf, 28), 3: (inf, 28), 4: (24, 26)}


@pytest.mark.parametrize("q", [2, 3, 4])
def test_period_equals_the_denominator_by_prime_steps(q):
    largest_d, checked = PRIME_STEP_PAIRS[q]
    pairs = [
        (moves, d)
        for moves in SQUARE_PAIRS
        for d in [_square_denominator(moves, q)]
        if d <= largest_d
    ]
    uncertified = [
        (moves, prime)
        for moves, d in pairs
        for prime in _primes(d)
        if not any(
            _step_difference(moves, q, t, d // prime) for t in (1, 2)
        )
    ]
    assert len(pairs) == checked
    assert uncertified == []


def test_conjecture_report_needs_data():
    with pytest.raises(InsufficientData):
        conjecture_report(BISHOP, 3, 6)


def test_negative_sizes_are_rejected():
    with pytest.raises(ValueError):
        count(BISHOP, 2, -1)
    with pytest.raises(ValueError):
        count_series(BISHOP, 2, -3)
