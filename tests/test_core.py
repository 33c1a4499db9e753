import io
import random
import sys
import time
import tracemalloc
from collections.abc import Mapping
from contextlib import contextmanager
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcube.base
import qcube.core
import qcube.writer
from qcube.core import (
    CubeError,
    CubeParams,
    Face,
    ParseError,
    Point,
    PointSet,
    SizeGuardError,
    _power_bit_length,
    binom,
    check_guard,
    check_guard_power,
    decimal,
    hamming,
    parse_pointset,
    read_pieces,
)
from qcube.faces import (
    FaceDistribution,
    _sliced_pays,
    distribution,
    distribution_bruteforce,
    faces_containing_bruteforce,
)
from qcube.identities import corollary_s2, corollary_s3, main_rhs, verify_main
from qcube.rank import (
    distance_total,
    random_isometry_image,
    rank,
    rank_bounds,
    rank_closed_small,
)
from qcube.writer import serialize_pointset, serialized_blocks


class TestBinom:
    def test_small_values(self):
        assert binom(5, 2) == 10
        assert binom(0, 0) == 1
        assert binom(7, 7) == 1
        assert binom(7, 0) == 1

    def test_zero_extension_below(self):
        assert binom(3, -1) == 0
        assert binom(0, -5) == 0

    def test_zero_extension_above_matches_subset_count(self):
        # oracle: there are no 7-element subsets of a 4-element set
        assert len(list(combinations(range(4), 7))) == 0
        assert binom(4, 7) == 0

    def test_negative_n_is_an_error(self):
        with pytest.raises(ValueError):
            binom(-1, 0)
        with pytest.raises(ValueError):
            binom(-3, -4)

    def test_matches_exhaustive_subset_enumeration(self):
        for n in range(0, 8):
            for k in range(-2, n + 3):
                expected = sum(1 for _ in combinations(range(n), k)) if k >= 0 else 0
                assert binom(n, k) == expected

    def test_pascal_recurrence_including_extension(self):
        rng = random.Random(101)
        for _ in range(300):
            n = rng.randint(1, 40)
            k = rng.randint(-3, n + 3)
            assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)

    def test_row_sums(self):
        for n in range(0, 31):
            assert sum(binom(n, k) for k in range(n + 1)) == 2**n


class TestParamsAndPoints:
    def test_params_validation(self):
        with pytest.raises(CubeError):
            CubeParams(1, 3)
        with pytest.raises(CubeError):
            CubeParams(2, -1)
        assert CubeParams(3, 4).volume == 81
        assert CubeParams(2, 0).volume == 1

    def test_point_validation(self):
        p = CubeParams(3, 2)
        Point(p, (0, 2))
        with pytest.raises(CubeError):
            Point(p, (0, 3))
        with pytest.raises(CubeError):
            Point(p, (0, -1))
        with pytest.raises(CubeError):
            Point(p, (0, 1, 2))
        with pytest.raises(CubeError, match="coordinate True out of range"):
            Point(p, (True, 0))

    def test_point_equality_and_hash(self):
        p = CubeParams(2, 2)
        assert Point(p, (0, 1)) == Point(p, (0, 1))
        assert Point(p, (0, 1)) != Point(p, (1, 0))
        assert len({Point(p, (0, 1)), Point(p, (0, 1))}) == 1


class TestPointSet:
    def test_canonical_order_and_dedupe(self):
        p = CubeParams(2, 2)
        A = PointSet.from_coords(p, [(1, 1), (0, 0), (1, 1), (0, 1)])
        assert [pt.coords for pt in A] == [(0, 0), (0, 1), (1, 1)]
        assert len(A) == 3

    def test_order_insensitive_equality(self):
        p = CubeParams(3, 2)
        a = PointSet.from_coords(p, [(2, 1), (0, 0)])
        b = PointSet.from_coords(p, [(0, 0), (2, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_rejects_rows_not_in_this_cube(self):
        p2 = CubeParams(2, 2)
        with pytest.raises(CubeError, match="point has 3 coordinates, cube dimension is 2"):
            PointSet(p2, ((0, 1, 0),))
        with pytest.raises(CubeError, match="coordinate 2 out of range for q=2"):
            PointSet(p2, ((0, 1), (0, 2)))
        with pytest.raises(CubeError, match="coordinate -1 out of range"):
            PointSet.from_coords(p2, [(-1, 0)])
        with pytest.raises(CubeError, match="coordinate True out of range"):
            PointSet.from_coords(p2, [(True, False)])
        with pytest.raises(CubeError, match="coordinate '1' out of range"):
            PointSet.from_coords(p2, [("1", "0")])

    def test_from_coords_checks_each_row_as_it_arrives(self):
        def rows():
            yield (0, 1)
            yield (0, 2)
            raise AssertionError("a row after the bad one was read")

        with pytest.raises(CubeError, match="coordinate 2 out of range for q=2"):
            PointSet.from_coords(CubeParams(2, 2), rows())

    def test_engine_paths_build_no_points(self, mkset):
        A = mkset(2, 3, "000 011 101 110 111")
        for check in (rank, distance_total, rank_bounds, rank_closed_small, serialize_pointset):
            check(A)
        verify_main(A, 2, 2, include_terms=True)
        corollary_s3(A, 2, include_terms=True)
        faces_containing_bruteforce(A, 2)
        distribution_bruteforce(A, 1)
        random_isometry_image(A, 1)
        assert "points" not in vars(A)
        assert [pt.coords for pt in A] == list(A.rows)
        assert "points" in vars(A)

        B, _ = parse_pointset("0,1,2\n210\n\n# x\n111\n210", CubeParams(3, 3))
        rank(B)
        distance_total(B)
        distribution(B, 1)
        main_rhs(B, 2, 2)
        corollary_s2(B, 2)
        assert "rows" not in vars(B) and "points" not in vars(B)
        assert B.rows == ((0, 1, 2), (1, 1, 1), (2, 1, 0))

        even = [f"{x:06b}" for x in range(64) if x.bit_count() % 2 == 0]
        C, _ = parse_pointset("\n".join(even), CubeParams(2, 6))
        assert _sliced_pays(C.params, range(5, 6), len(C)) == "walk"
        assert distribution(C, 5).counts == {16: 12, 0: 0}
        assert "slices" in vars(C)
        assert "rows" not in vars(C) and "points" not in vars(C)

    def test_contains_and_rows(self):
        p = CubeParams(2, 3)
        A = PointSet.from_coords(p, [(0, 0, 0), (0, 1, 1)])
        assert Point(p, (0, 1, 1)) in A
        assert Point(p, (1, 1, 1)) not in A
        assert A.coord_rows() == ((0, 0, 0), (0, 1, 1))

    def test_empty_set_is_allowed(self):
        assert len(PointSet(CubeParams(2, 3), ())) == 0


@st.composite
def shuffled_rows(draw):
    q = draw(st.sampled_from((2, 3, 4, 5, 8, 10, 11, 12, 16)))
    n = draw(st.integers(0, 6))
    rows = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * n), max_size=12))
    repeats = draw(st.lists(st.sampled_from(rows), max_size=6)) if rows else []
    return CubeParams(q, n), draw(st.permutations(rows + repeats))


@given(shuffled_rows())
@settings(max_examples=150, deadline=None)
def test_rows_are_canonical_and_round_trip(case):
    params, rows = case
    A = PointSet(params, rows)
    assert A.coord_rows() == A.rows == tuple(sorted(set(rows)))
    w, n = (params.q - 1).bit_length(), params.n
    assert A.packed == tuple(
        sum(c * 2 ** (w * (n - 1 - j)) for j, c in enumerate(row)) for row in A.rows
    )
    assert "points" not in vars(A)
    assert [p.coords for p in A] == list(A.rows)
    if n >= 1:
        assert parse_pointset(serialize_pointset(A), params) == (A, 0)
        if params.q <= 10:
            text = "\n".join(",".join(map(str, row)) for row in rows)
            assert parse_pointset(text, params) == (A, len(rows) - len(A))


def serialize_rows(A):
    """The row-based serializer that serialize_pointset replaced for q <= 10,
    kept as its oracle: each decoded row's digits, joined."""
    sep = "" if A.params.q <= 10 else ","
    return "\n".join(sep.join(str(c) for c in row) for row in A.rows)


@st.composite
def cube_sets(draw):
    """(params, rows): up to 12 rows of a cube with q <= 16 and n <= 9."""
    q, n = draw(st.integers(2, 16)), draw(st.integers(0, 9))
    return CubeParams(q, n), draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * n), max_size=12))


@given(cube_sets())
@example((CubeParams(4, 1), [(3,), (0,)]))
@example((CubeParams(3, 5), [(2, 1, 0, 2, 1)]))
@example((CubeParams(2, 0), [()]))
@settings(max_examples=300, deadline=None)
def test_serialize_from_packed_matches_rows(case):
    params, rows = case
    A = PointSet(params, rows)
    text = serialize_pointset(A)
    if params.q <= 10:
        assert "rows" not in vars(A)  # written from the packed ints alone
    assert text == serialize_rows(A)


@given(cube_sets(), st.integers(1, 5))
@example((CubeParams(2, 3), []), 1)
@example((CubeParams(3, 0), [()]), 1)
@example((CubeParams(3, 5), [(2, 1, 0, 2, 1), (0, 0, 0, 0, 1), (1, 2, 2, 2, 0)]), 2)
@example((CubeParams(4, 3), [(3, 0, 1), (0, 0, 0), (1, 3, 2)]), 2)
@example((CubeParams(13, 3), [(12, 0, 1), (0, 10, 0), (1, 3, 2)]), 2)
@settings(max_examples=300, deadline=None)
def test_blocks_are_the_serialized_lines(case, rows_per_block):
    # What gen writes: each line and its "\n", a block of rows at a time.
    params, rows = case
    A = PointSet(params, rows)
    with mock.patch.object(qcube.writer, "_WRITE_ROWS", rows_per_block):
        blocks = list(serialized_blocks(A))
    assert [block.count("\n") for block in blocks[:-1]] == [rows_per_block] * (len(blocks) - 1)
    text = serialize_pointset(A)
    assert "".join(blocks) == (text + "\n" if text else "")
    assert "".join(blocks) == "".join(line + "\n" for line in serialize_rows(A).splitlines())


# Coordinates a caller might pass, valid for q = 3 or not: bools equal 0 and 1,
# and 1.0 equals 1, so a set of values alone would hide them.
ANY_COORD = st.one_of(st.integers(-1, 3), st.booleans(), st.just(1.0), st.just("1"))


@given(st.lists(st.lists(ANY_COORD, min_size=1, max_size=3).map(tuple), max_size=5))
@settings(max_examples=200, deadline=None)
def test_whole_set_check_matches_row_check(rows):
    params = CubeParams(3, 2)
    try:
        for row in rows:
            Point(params, row)
    except CubeError as exc:
        with pytest.raises(CubeError) as got:
            PointSet(params, rows)
        assert str(got.value) == str(exc)
    else:
        assert PointSet(params, rows).rows == tuple(sorted(set(rows)))


# Pieces of point-set text, well-formed or not: digits, separators and signs
# the field check must refuse, whitespace and line breaks (\r and \x0b end a
# line too), comment marks, non-ASCII digits and digit runs too long for any q.
TEXT_PIECES = st.sampled_from(
    [*"0123456789", ",", "-", "+", "_", " ", "\t", "#", "\r", "\x0b", "\n", "٣", "²",
     "1" * 30, "0" * 25 + "1", "9" * 5000]
)


@st.composite
def point_texts(draw):
    """(params, text): lines that are rows of the cube, in either format,
    mixed with lines of random pieces."""
    q, n = draw(st.integers(2, 16)), draw(st.integers(0, 6))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    line = st.one_of(
        row.map(lambda r: ",".join(map(str, r))),
        row.map(lambda r: "".join(map(str, r))) if q <= 10 else st.nothing(),
        st.lists(TEXT_PIECES, max_size=12).map("".join),
    )
    return CubeParams(q, n), "\n".join(draw(st.lists(line, max_size=6)))


@given(point_texts())
@settings(max_examples=400, deadline=None)
def test_text_parses_to_a_round_tripping_set_or_raises_parse_error(case):
    params, text = case
    try:
        A, dropped = parse_pointset(text, params)
    except ParseError:
        return
    if params.n >= 1:
        assert parse_pointset(serialize_pointset(A), params) == (A, 0)


class TestFace:
    def test_partition_validation(self):
        p = CubeParams(2, 3)
        Face(p, frozenset({0, 2}), ((1, 0),))
        with pytest.raises(CubeError):
            Face(p, frozenset({0, 1}), ((1, 0),))  # overlap
        with pytest.raises(CubeError):
            Face(p, frozenset({0}), ((1, 0),))  # position 2 unaccounted
        with pytest.raises(CubeError):
            Face(p, frozenset({0}), ((1, 0), (2, 5)))  # value out of range

    def test_accepts_mapping_and_normalizes(self):
        p = CubeParams(2, 3)
        f = Face(p, frozenset({1}), {2: 1, 0: 0})
        assert f.fixed_values == ((0, 0), (2, 1))
        assert f.dimension == 1

    def test_points_materialization(self):
        p = CubeParams(3, 2)
        f = Face(p, frozenset({1}), ((0, 2),))
        pts = sorted(pt.coords for pt in f.points())
        assert pts == [(2, 0), (2, 1), (2, 2)]

    def test_zero_dimensional_face_is_a_point(self):
        p = CubeParams(2, 2)
        f = Face(p, frozenset(), ((0, 1), (1, 0)))
        assert [pt.coords for pt in f.points()] == [(1, 0)]


def face_by_positions(params, free_positions, fixed_values):
    """The face checks one position at a time, as Face made them before they
    ran on whole sets: the normalized (free_positions, fixed_values), or the
    CubeError message."""
    free = frozenset(int(i) for i in free_positions)
    items = fixed_values.items() if isinstance(fixed_values, Mapping) else fixed_values
    fixed = tuple(sorted((int(i), int(v)) for i, v in items))
    n, q = params.n, params.q
    fixed_positions = [i for i, _ in fixed]
    if len(set(fixed_positions)) != len(fixed_positions):
        return "duplicate fixed position"
    if free & set(fixed_positions):
        return "a position cannot be both free and fixed"
    if free | set(fixed_positions) != set(range(n)):
        return "free and fixed positions must partition the coordinate set"
    for i, v in fixed:
        if not 0 <= v < q:
            return f"fixed value {v} at position {i} out of range for q={q}"
    return free, fixed


@st.composite
def face_arguments(draw):
    """(params, free_positions, fixed_values): positions from -1 to n + 1 and
    values from -1 to q, as a tuple or list of pairs, with bools, or a dict;
    most draws are faces."""
    q, n = draw(st.integers(2, 5)), draw(st.integers(0, 7))
    if draw(st.booleans()):
        free = draw(st.sets(st.integers(0, n - 1))) if n else set()
        fixed = [(i, draw(st.integers(0, q - 1))) for i in range(n) if i not in free]
        fixed = draw(st.permutations(fixed))
    else:
        free = draw(st.sets(st.integers(-1, n + 1), max_size=4))
        fixed = draw(st.lists(st.tuples(st.integers(-1, n + 1), st.integers(-1, q)), max_size=n + 2))
    form = draw(st.sampled_from(["tuple", "list", "bool", "dict"]))
    if form == "list":
        fixed = [list(pair) for pair in fixed]
    elif form == "bool":
        fixed = [(i, bool(v)) if v in (0, 1) else (i, v) for i, v in fixed]
    elif form == "dict":
        fixed = dict(fixed)
    return CubeParams(q, n), frozenset(free), fixed if form == "dict" else tuple(fixed)


@given(face_arguments())
@settings(max_examples=400, deadline=None)
def test_face_checks_match_the_per_position_checks(case):
    params, free, fixed = case
    want = face_by_positions(params, free, fixed)
    try:
        face = Face(params, free, fixed)
    except CubeError as exc:
        assert str(exc) == want
    else:
        assert (face.free_positions, face.fixed_values) == want
        assert all(type(i) is int and type(v) is int for i, v in face.fixed_values)


class TestRecords:
    """The frozen value classes keep the equality, hashing and repr they had
    as frozen dataclasses."""

    def test_equality_hash_and_repr(self):
        p = CubeParams(2, 3)
        assert repr(p) == "CubeParams(q=2, n=3)"
        assert hash(p) == hash((2, 3)) and p == CubeParams(2, 3) != CubeParams(3, 2)
        assert p != (2, 3) and p.__eq__((2, 3)) is NotImplemented
        face = Face(p, {1}, {2: 1, 0: 0})
        assert repr(face) == (
            "Face(params=CubeParams(q=2, n=3), free_positions=frozenset({1}), fixed_values=((0, 0), (2, 1)))"
        )
        assert hash(face) == hash((p, frozenset({1}), ((0, 0), (2, 1))))
        assert repr(Point(p, [0, 1, 1])) == "Point(params=CubeParams(q=2, n=3), coords=(0, 1, 1))"

    def test_fields_are_frozen(self):
        p = CubeParams(2, 3)
        with pytest.raises(AttributeError, match="cannot assign to field 'q'"):
            p.q = 3
        with pytest.raises(AttributeError, match="cannot delete field 'n'"):
            del p.n
        assert p == CubeParams(2, 3)

    def test_point_set_is_a_cache_key_with_cached_properties(self, mkset):
        A, B = mkset(2, 3, "011 000"), mkset(2, 3, "000 011")
        assert A is not B and A == B and hash(A) == hash((A.params, A.packed))
        assert A.rows is A.rows == ((0, 0, 0), (0, 1, 1))
        assert distribution(A, 1) == distribution(B, 1) and A.memo is not B.memo
        assert "rows" not in vars(B)  # each set caches its own properties

    def test_face_distribution_is_unhashable(self, mkset):
        dist = distribution(mkset(2, 2, "00 11"), 1)
        assert dist == FaceDistribution(CubeParams(2, 2), 1, dict(dist.counts))
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(dist)


class TestHamming:
    def test_examples(self):
        p = CubeParams(3, 4)
        a = Point(p, (0, 1, 2, 2))
        b = Point(p, (2, 1, 0, 1))
        # oracle: positions 0, 2, 3 differ
        assert sum(x != y for x, y in zip(a.coords, b.coords)) == 3
        assert hamming(a, b) == 3
        assert hamming(a, a) == 0

    def test_mismatched_cubes(self):
        a = Point(CubeParams(2, 2), (0, 1))
        b = Point(CubeParams(3, 2), (0, 1))
        with pytest.raises(CubeError):
            hamming(a, b)

    def test_metric_properties(self):
        rng = random.Random(7)
        p = CubeParams(3, 5)
        pts = [Point(p, tuple(rng.randrange(3) for _ in range(5))) for _ in range(30)]
        for _ in range(200):
            a, b, c = rng.choice(pts), rng.choice(pts), rng.choice(pts)
            assert hamming(a, b) == hamming(b, a)
            assert (hamming(a, b) == 0) == (a == b)
            assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


class TestParse:
    def test_compact_digits(self):
        A, dropped = parse_pointset("000\n011", CubeParams(2, 3))
        assert dropped == 0
        assert A.coord_rows() == ((0, 0, 0), (0, 1, 1))

    def test_commas_accepted_for_small_q(self):
        A, _ = parse_pointset("0,1,2", CubeParams(3, 3))
        assert A.coord_rows() == ((0, 1, 2),)

    def test_duplicates_dropped_with_count(self):
        A, dropped = parse_pointset("000\n011\n011\n000", CubeParams(2, 3))
        assert dropped == 2
        assert len(A) == 2

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n000\n   \n# tail\n011\n"
        A, dropped = parse_pointset(text, CubeParams(2, 3))
        assert len(A) == 2 and dropped == 0

    def test_out_of_range_coordinate(self):
        with pytest.raises(ParseError) as info:
            parse_pointset("012", CubeParams(2, 3))
        assert "out of range" in str(info.value)
        assert info.value.line == 1

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as info:
            parse_pointset("000\n011\n0a1", CubeParams(2, 3))
        assert info.value.line == 3

    def test_wrong_length(self):
        with pytest.raises(ParseError):
            parse_pointset("00", CubeParams(2, 3))
        with pytest.raises(ParseError):
            parse_pointset("0,1", CubeParams(2, 3))

    def test_non_integer_token(self):
        with pytest.raises(ParseError):
            parse_pointset("0,x,1", CubeParams(2, 3))

    @pytest.mark.parametrize(
        "text, q, message",
        [
            ("01\n0\u0663", 2, "line 2: invalid character '\u0663'"),
            ("00\n0x", 2, "line 2: invalid character 'x'"),
            ("00\n\n12", 2, "line 3: coordinate 2 out of range for q=2"),
            ("0,1\n1,-1", 2, "line 2: coordinate -1 out of range for q=2"),
            ("0,11\n12,3", 12, "line 2: coordinate 12 out of range for q=12"),
            ("0,0\n0,\u0663", 12, "line 2: not an integer: '\u0663'"),
            ("0,0\n1_0,0", 12, "line 2: not an integer: '1_0'"),
            ("0,0\n0,+1", 3, "line 2: not an integer: '+1'"),
            ("0,123", 12, "line 1: coordinate 123 out of range for q=12"),
            ("12,123", 12, "line 1: coordinate 12 out of range for q=12"),
            ("123,x", 12, "line 1: not an integer: 'x'"),
            ("0,-00123", 12, "line 1: coordinate -123 out of range for q=12"),
            pytest.param(
                "0," + "1" * 5000, 12, "line 1: coordinate 11111111… (5000 digits) out of range for q=12",
                id="5000-digits",
            ),
            pytest.param(
                "0,-" + "9" * 21, 12, "line 1: coordinate -99999999… (21 digits) out of range for q=12",
                id="21-digits-negative",
            ),
            ("5,x", 3, "line 1: not an integer: 'x'"),
            ("2x", 2, "line 1: invalid character 'x'"),
        ],
    )
    def test_message_names_the_first_bad_coordinate(self, text, q, message):
        with pytest.raises(ParseError) as info:
            parse_pointset(text, CubeParams(q, 2))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, q, rows",
        [
            ("09\n90", 10, ((0, 9), (9, 0))),
            ("0,9\n9,0", 10, ((0, 9), (9, 0))),
            (" 1 , 0\n-0,2", 3, ((0, 2), (1, 0))),
            ("15,0\n 0 ,007", 16, ((0, 7), (15, 0))),
            pytest.param("0," + "0" * 5000 + "11\n1,-0", 12, ((0, 11), (1, 0)), id="leading-zeros"),
            pytest.param("01\x0b\t10\r", 2, ((0, 1), (1, 0)), id="vt-and-cr-end-lines"),
        ],
    )
    def test_accepted_lines(self, text, q, rows):
        A, dropped = parse_pointset(text, CubeParams(q, 2))
        assert A.coord_rows() == rows and dropped == 0

    def test_long_field_refused_unconverted(self):
        # int() of a million digits takes seconds, or is refused above
        # sys.get_int_max_str_digits(); the length alone rules it out.
        start = time.perf_counter()
        with pytest.raises(ParseError) as info:
            parse_pointset("0,0\n0," + "7" * 10**6, CubeParams(12, 2))
        assert time.perf_counter() - start < 1
        assert str(info.value) == "line 2: coordinate 77777777… (1000000 digits) out of range for q=12"

    def test_large_q_requires_commas(self):
        params = CubeParams(12, 2)
        A, _ = parse_pointset("11,0", params)
        assert A.coord_rows() == ((11, 0),)
        with pytest.raises(ParseError):
            parse_pointset("110", params)


# Lines the whole-text parse must leave to the per-line loop: not digits,
# not ASCII, signs, underscores, base prefixes, inner spaces and commas.
ODD_LINES = st.sampled_from(["\u0661", "0\u0660", "\u00b2", "1\u0663", "1_0", "+1", "-1", "0b1", "0 1", "0,1", "1,0,1", "#x"])
PADDING = st.sampled_from(["", " ", "\t", "\r", " \t", "\x0b"])


@st.composite
def mixed_texts(draw):
    """(params, text) for q in 2..16: rows in either format with padding,
    comment and blank lines, duplicates, and in about half the texts also
    digit strings of any length and any digit, and ODD_LINES."""
    q, n = draw(st.integers(2, 16)), draw(st.integers(0, 6))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    kinds = [
        row.map(lambda r: "".join(map(str, r))) if q <= 10 else row.map(lambda r: ",".join(map(str, r))),
        st.just(""),
        st.sampled_from(["#", "# a comment", "#0,1"]),
    ]
    if draw(st.booleans()):
        kinds += [
            row.map(lambda r: ",".join(map(str, r))),
            st.lists(st.integers(0, 9), max_size=8).map(lambda r: "".join(map(str, r))),
            ODD_LINES,
        ]
    lines = draw(st.lists(st.tuples(PADDING, st.one_of(kinds), PADDING).map("".join), max_size=10))
    if lines:
        lines += draw(st.lists(st.sampled_from(lines), max_size=3))
    return CubeParams(q, n), "\n".join(draw(st.permutations(lines)))


def _parse_each_line(text, params):
    """parse_pointset of a whole text a line at a time: the oracle of the
    piece by piece parse."""
    packed = []
    qcube.core._pack_lines(text.splitlines(), params, 1, qcube.core._digit_blocks(params), packed)
    A = PointSet._from_packed(params, packed)
    return A, len(packed) - len(A)


def parse_outcome(parse, text, params):
    try:
        return parse(text, params)
    except ParseError as exc:
        return str(exc), exc.line


def readings(text):
    """What parse_pointset may be given for a text: the text itself, and
    read_pieces of a text stream and of a stream of the text's UTF-8 bytes."""
    stream = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")
    return [text, read_pieces(io.StringIO(text)), read_pieces(stream)]


def each_reading(text, params):
    """parse_outcome of each reading of the text, with pieces or reads of
    1 to 12 characters or bytes."""
    outcomes = []
    for size in range(1, 13):
        with mock.patch.object(qcube.base, "_PARSE_CHUNK", size):
            outcomes += [parse_outcome(parse_pointset, source, params) for source in readings(text)]
    return outcomes


def parse_compact(text, params):
    """parse_pointset(text, params) when every piece passes the compact
    checks, None when a piece is left to the per-line parser."""
    per_line = []
    with mock.patch.object(qcube.core, "_pack_lines", lambda *args: per_line.append(args)):
        result = parse_pointset(text, params)
    return None if per_line else result


@given(mixed_texts())
@example((CubeParams(3, 2), "01\n # c\n\n 21\r\n01"))
@example((CubeParams(3, 2), "01\n13"))
@example((CubeParams(2, 2), "01\n0,1"))
@example((CubeParams(2, 1), "\u00b2"))
@settings(max_examples=600, deadline=None)
def test_whole_text_parse_matches_the_per_line_loop(case):
    params, text = case
    assert parse_outcome(parse_pointset, text, params) == parse_outcome(_parse_each_line, text, params)


@given(mixed_texts(), st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_chunked_parse_matches_the_per_line_loop(case, chunk):
    # Whole, and read from a text stream and from a byte stream, whose
    # reads may cut a "\r\n" or a character's UTF-8 bytes.
    params, text = case
    oracle = parse_outcome(_parse_each_line, text, params)
    with mock.patch.object(qcube.base, "_PARSE_CHUNK", chunk):
        for source in readings(text):
            assert parse_outcome(parse_pointset, source, params) == oracle


class TestChunkBoundaries:
    """The parse with pieces of a few characters, and the reader with reads
    of 1 to 12 characters or bytes (each_reading), so that every kind of line
    meets the end of a piece and of a read."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(qcube.base, "_PARSE_CHUNK", 3)

    @pytest.mark.parametrize("sep", ["\r\n", "\x85", "\r", "\n\r"])
    def test_line_ends_and_comments_on_a_boundary(self, sep):
        params = CubeParams(3, 2)
        text = sep.join(["01", "# a comment", "21", "", "# 0,1", "12", "01"]) + sep
        A = PointSet(params, [(0, 1), (2, 1), (1, 2)])
        assert parse_compact(text, params) == (A, 1)
        assert parse_pointset(text, params) == _parse_each_line(text, params)
        assert set(each_reading(text, params)) == {(A, 1)}

    def test_duplicates_across_chunks_are_counted(self):
        params = CubeParams(2, 4)
        text = "\n".join(["0110", "1001", "0110", "1111", "1001", "0110"])
        A = PointSet(params, [(0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 1, 1)])
        assert parse_compact(text, params) == (A, 3)
        assert set(each_reading(text, params)) == {(A, 3)}

    def test_a_bad_digit_in_the_last_chunk_names_its_line(self):
        params = CubeParams(3, 3)
        text = "012\n" * 5 + "# c\n\n013\n"
        assert parse_compact(text, params) is None
        with pytest.raises(ParseError, match=r"^line 8: coordinate 3 out of range for q=3$"):
            parse_pointset(text, params)
        assert set(each_reading(text, params)) == {("line 8: coordinate 3 out of range for q=3", 8)}

    def test_a_comma_line_after_compact_chunks(self):
        params = CubeParams(3, 3)
        text = "012\n210\n111\n0,2,2\n"
        assert parse_compact(text, params) is None
        A = PointSet(params, [(0, 1, 2), (2, 1, 0), (1, 1, 1), (0, 2, 2)])
        assert parse_pointset(text, params) == (A, 0)
        assert set(each_reading(text, params)) == {(A, 0)}

    @pytest.mark.parametrize("q", [2, 3, 10, 12])
    def test_a_written_set_reads_back(self, q):
        params = CubeParams(q, 3)
        rng = random.Random(q)
        A = PointSet(params, [[rng.randrange(q) for _ in range(3)] for _ in range(12)])
        lines = serialize_pointset(A).splitlines()
        text = "# a set\r\n" + "\r\n".join(lines[:5]) + "\r\n\r\n" + "\r".join(lines[3:]) + "\r"
        assert set(each_reading(text, params)) == {(A, 2)}


class TestReadPieces:
    """read_pieces of a byte stream, with reads of 1 to 12 bytes."""

    @staticmethod
    def stream(data):
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")

    @pytest.mark.parametrize("data", [b"01\r10\r\n11\n\r\n\r", "\u0663\r\n01\x85\r\u2028\r1".encode()])
    def test_pieces_are_the_text_as_read_whole(self, data):
        # Universal newlines, as Path.read_text reads a file: "\r\n" and
        # "\r" become "\n", so a file with "\r" line ends is cut too.
        for size in range(1, 13):
            with mock.patch.object(qcube.base, "_PARSE_CHUNK", size):
                pieces = list(read_pieces(self.stream(data)))
            assert "".join(pieces) == self.stream(data).read()
            assert all(piece.endswith("\n") for piece in pieces[:-1])

    @pytest.mark.parametrize("data", [b"01\n10\n\xff1\n", b"01\n1\xe2\x28\n", b"01\n\xf0\x9f\x98", b"0\xe2\x82\xac\n\xc3"])
    def test_a_refused_byte_is_named_at_its_place_in_the_input(self, data):
        # Also when its sequence began in an earlier read.
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        for size in range(1, 13):
            with mock.patch.object(qcube.base, "_PARSE_CHUNK", size):
                with pytest.raises(UnicodeDecodeError) as got:
                    list(read_pieces(self.stream(data)))
            assert str(got.value) == str(whole.value)


class TestWholeTextParse:
    def test_compact_texts_take_it(self):
        params = CubeParams(3, 3)
        A = PointSet(params, [(0, 1, 2), (2, 1, 0)])
        assert parse_compact("# c\n012\n 210 \n\n012\n", params) == (A, 1)
        assert parse_compact("", params) == (PointSet(params, []), 0)
        q2 = CubeParams(2, 4)
        assert parse_compact("0110\n1001", q2) == (PointSet(q2, [(0, 1, 1, 0), (1, 0, 0, 1)]), 0)

    @pytest.mark.parametrize("text", ["012\n0,1,2", "012\n013", "012\n01", "012\n0\u06632", "012\n+12", "012\n1_2"])
    def test_other_texts_go_line_by_line(self, text):
        assert parse_compact(text, CubeParams(3, 3)) is None

    def test_holds_no_more_than_the_per_line_loop(self):
        rng = random.Random(20)
        rows = rng.sample(range(1 << 20), 60_000)
        text = "# 60 000 rows\n" + "\n".join(format(x, "020b") for x in rows) + "\n"
        params = CubeParams(2, 20)
        assert parse_compact(text, params) is not None
        peaks, results = [], []
        for parse in (_parse_each_line, parse_pointset):
            tracemalloc.start()
            try:
                results.append(parse(text, params))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert results[0] == results[1] and results[1][1] == 0
        assert peaks[1] <= peaks[0]
        # At most half as much again as the finished set itself holds.
        packed = results[1][0].packed
        assert peaks[1] <= 1.5 * (sys.getsizeof(packed) + sum(map(sys.getsizeof, packed)))


class TestSerialize:
    def test_compact_form(self, mkset):
        assert serialize_pointset(mkset(2, 3, "011 000")) == "000\n011"

    def test_empty_set(self):
        assert serialize_pointset(PointSet(CubeParams(2, 3), ())) == ""

    def test_comma_form_for_large_q(self):
        params = CubeParams(11, 2)
        A = PointSet.from_coords(params, [(10, 0), (0, 3)])
        text = serialize_pointset(A)
        assert text == "0,3\n10,0"
        B, _ = parse_pointset(text, params)
        assert B == A

    def test_round_trip_random_sets(self):
        rng = random.Random(4242)
        for _ in range(60):
            q = rng.choice([2, 3, 5, 11])
            n = rng.randint(1, 6)
            params = CubeParams(q, n)
            m = rng.randint(0, min(20, params.volume))
            coords = {tuple(rng.randrange(q) for _ in range(n)) for _ in range(m)}
            A = PointSet.from_coords(params, coords)
            B, dropped = parse_pointset(serialize_pointset(A), params)
            assert B == A and dropped == 0


@contextmanager
def int_max_str_digits(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class TestDecimal:
    @pytest.mark.parametrize("limit", [640, 4300])
    @given(bits=st.integers(1, 60_000), seed=st.integers(0, 2**32), negative=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_unlimited_str(self, limit, bits, seed, negative):
        x = random.Random(seed).getrandbits(bits) * (-1 if negative else 1)
        with int_max_str_digits(0):
            expected = str(x)
        with int_max_str_digits(limit):
            assert decimal(x) == expected

    @pytest.mark.parametrize("digits", [4299, 4300, 4301, 9000])
    def test_powers_of_ten_and_neighbours(self, digits):
        for x in (10**digits - 1, 10**digits, 10**digits + 1, -(10**digits)):
            with int_max_str_digits(0):
                expected = str(x)
            assert decimal(x) == expected


def _refusal(check):
    try:
        check()
    except SizeGuardError as exc:
        return str(exc)
    return None


class TestGuardPower:
    @given(
        base=st.one_of(
            st.integers(2, 40), st.integers(2, 10**30), st.sampled_from([2**64 - 1, 2**64, 2**64 + 1])
        ),
        exp=st.one_of(st.integers(0, 60), st.integers(0, 12_000)),
        factor=st.one_of(st.integers(0, 3), st.integers(0, 10**25)),
        guard=st.one_of(st.integers(1, 10**8), st.integers(1, 10**40)),
    )
    # Next to the digits str() converts, 4 300 (and 640): 3^9000 has 4 295
    # digits, 10^4299 has 4 300, and 10^4300 one more.
    @example(base=3, exp=9000, factor=1, guard=10**7)
    @example(base=10, exp=4299, factor=1, guard=10**7)
    @example(base=10, exp=4300, factor=1, guard=10**7)
    @example(base=7, exp=757, factor=10**3, guard=10**7)
    @settings(max_examples=150, deadline=None)
    def test_matches_check_guard_on_the_built_power(self, base, exp, factor, guard):
        for limit in (640, 4300):
            with int_max_str_digits(limit):
                expected = _refusal(lambda: check_guard(factor * base**exp, guard))
                assert _refusal(lambda: check_guard_power(base, exp, guard, factor)) == expected

    @given(
        base=st.one_of(
            st.integers(2, 10**6),
            st.integers(1, 200).map(lambda b: 2**b),
            st.integers(2, 200).map(lambda b: 2**b - 1),
        ),
        exp=st.integers(0, 5000),
        factor=st.integers(1, 10**12),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_length_of_the_power(self, base, exp, factor):
        assert _power_bit_length(base, exp, factor) == (factor * base**exp).bit_length()

    def test_a_huge_power_is_refused_unbuilt(self):
        # 10^(8*10^7) takes 33 MB and seconds to build; its bit length is
        # named at once.
        start = time.perf_counter()
        message = _refusal(lambda: check_guard_power(10**8, 10**7, 10**7))
        assert time.perf_counter() - start < 0.5
        assert message == "instance too large: more than 10^79999999 elementary operations, guard is 10000000"
