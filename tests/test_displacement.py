"""Displacement primitives: golden example, oracles and region plumbing."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from asmc import PreconditionFailed, Region, apply_in_region, h_shift, v_shift
from asmc.displacement import _dense, _displace, _ones, h_unshift, v_unshift

# the printed 6x4 vertical displacement example, byte for byte
V_INPUT = (
    (0, 0, 0, 0),
    (0, 0, 0, 1),
    (0, 0, 0, 0),
    (0, 0, 0, 0),
    (0, 0, 1, 0),
    (1, 0, 0, 0),
)
V_OUTPUT = (
    (0, 0, 0, 1),
    (0, 0, 1, 0),
    (0, 0, 0, 0),
    (0, 0, 0, 0),
    (1, 0, 0, 0),
    (0, 0, 0, 0),
)


def transpose(grid):
    return tuple(zip(*grid))


def flipud(grid):
    return tuple(reversed(grid))


# each primitive's slots as a view of the grid, the way back, and its
# precondition messages: first slot empty, last slot nonzero, all empty
SLOTS = {
    h_shift: (transpose, transpose, ("column 1 empty", "last column nonzero", "no nonzero column")),
    h_unshift: (lambda g: transpose(g)[::-1], lambda s: transpose(s[::-1]),
                ("last column empty", "column 1 nonzero", "no nonzero column")),
    v_shift: (flipud, flipud, ("last row empty", "first row nonzero", "no nonzero row")),
    v_unshift: (tuple, tuple, ("first row empty", "last row nonzero", "no nonzero row")),
}


def shift_by_definition(func, grid):
    """Independent oracle for the four primitives on a dense grid: relabel
    the nonzero slots q_1 < ... < q_k (q_1 = 1, q_k < m) to q_2, ..., q_k,
    m, or raise with the primitive's message."""
    view, back, (first_empty, last_nonzero, none) = SLOTS[func]
    slots = view(grid)
    m = len(slots)
    nonzero = [q for q, line in enumerate(slots) if any(line)]
    if not nonzero:
        raise PreconditionFailed(none)
    if nonzero[0] != 0:
        raise PreconditionFailed(first_empty)
    if nonzero[-1] == m - 1:
        raise PreconditionFailed(last_nonzero)
    out = [(0,) * len(slots[0])] * m
    for src, dst in zip(nonzero, nonzero[1:] + [m - 1]):
        out[dst] = tuple(slots[src])
    return back(tuple(out))


def outcome(f, *args):
    """The value of ``f(*args)``, or the message it failed with."""
    try:
        return f(*args)
    except PreconditionFailed as exc:
        return str(exc)


def all_grids(rows, cols):
    for cells in itertools.product((0, 1), repeat=rows * cols):
        yield tuple(tuple(cells[r * cols : (r + 1) * cols]) for r in range(rows))


def valid_h_inputs(rows, cols):
    """All (0,1)-matrices of the given shape accepted by h_shift."""
    for cells in itertools.product((0, 1), repeat=rows * cols):
        grid = tuple(
            tuple(cells[r * cols : (r + 1) * cols]) for r in range(rows)
        )
        nonzero = [j for j in range(cols) if any(grid[i][j] for i in range(rows))]
        if nonzero and nonzero[0] == 0 and nonzero[-1] < cols - 1:
            yield grid


class TestGolden:
    def test_printed_vertical_example(self):
        assert v_shift(V_INPUT) == V_OUTPUT

    def test_transposed_example_through_conjugation(self):
        # v_shift = flipud . transpose . h_shift . transpose . flipud
        conj = lambda g: transpose(flipud(g))
        assert h_shift(conj(V_INPUT)) == conj(V_OUTPUT)


class TestHShift:
    def test_single_nonzero_column_moves_to_last(self):
        grid = ((1, 0), (1, 0), (0, 0))
        assert h_shift(grid) == ((0, 1), (0, 1), (0, 0))

    def test_nonzero_last_column_rejected(self):
        with pytest.raises(PreconditionFailed, match="last column"):
            h_shift(((1, 1), (0, 0)))

    def test_empty_first_column_rejected(self):
        with pytest.raises(PreconditionFailed, match="column 1"):
            h_shift(((0, 1, 0), (0, 0, 0)))

    def test_all_zero_rejected(self):
        with pytest.raises(PreconditionFailed, match="no nonzero"):
            h_shift(((0, 0), (0, 0)))

    def test_non_binary_entry_rejected(self):
        with pytest.raises(PreconditionFailed):
            h_shift(((1, -1), (0, 0)))

    def test_injective_on_all_small_inputs(self):
        seen = {}
        for grid in valid_h_inputs(3, 4):
            out = h_shift(grid)
            assert out not in seen, (grid, seen[out])
            seen[out] = grid

    def test_preserves_column_multiset_and_ones(self):
        for grid in valid_h_inputs(2, 4):
            out = h_shift(grid)
            assert sorted(transpose(grid)) == sorted(transpose(out))

    def test_unshift_inverts(self):
        for grid in valid_h_inputs(3, 4):
            assert h_unshift(h_shift(grid)) == grid


class TestVShift:
    def test_matches_definition_oracle_exhaustively(self):
        for grid_t in valid_h_inputs(3, 4):
            # reuse the valid-H enumerator through the conjugation
            grid = flipud(transpose(grid_t))
            assert v_shift(grid) == shift_by_definition(v_shift, grid)

    def test_conjugation_identity_exhaustively(self):
        conj = lambda g: transpose(flipud(g))
        for grid_t in valid_h_inputs(3, 4):
            grid = flipud(transpose(grid_t))
            assert v_shift(grid) == flipud(transpose(h_shift(conj(grid))))

    def test_only_last_row_nonzero_moves_to_top(self):
        grid = ((0, 0), (0, 0), (1, 1))
        assert v_shift(grid) == ((1, 1), (0, 0), (0, 0))

    def test_nonzero_first_row_rejected(self):
        with pytest.raises(PreconditionFailed):
            v_shift(((0, 1), (0, 0), (1, 0)))

    def test_unshift_inverts(self):
        for grid_t in valid_h_inputs(3, 4):
            grid = flipud(transpose(grid_t))
            assert v_unshift(v_shift(grid)) == grid

    @given(
        st.integers(2, 5).flatmap(
            lambda m: st.integers(1, 4).flatmap(
                lambda n: st.lists(
                    st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n),
                    min_size=m,
                    max_size=m,
                )
            )
        )
    )
    def test_ones_count_preserved_on_valid_inputs(self, grid):
        grid = tuple(tuple(row) for row in grid)
        try:
            out = v_shift(grid)
        except PreconditionFailed:
            return
        assert sum(map(sum, out)) == sum(map(sum, grid))
        assert sorted(grid) == sorted(out)  # row multiset is preserved


class TestRegion:
    def test_whole_host_region_equals_direct_call(self):
        grid = ((1, 0, 0), (0, 1, 0))
        region = Region(1, 2, 1, 3)
        assert apply_in_region(grid, region, h_shift) == h_shift(grid)

    def test_all_zero_region_fails_with_context(self):
        grid = ((1, 0, 0), (0, 0, 1))
        with pytest.raises(PreconditionFailed, match="no nonzero column.*region"):
            apply_in_region(grid, Region(1, 2, 2, 2), h_shift)

    def test_outside_region_untouched(self):
        grid = ((9, 1, 0), (7, 1, 0))
        out = apply_in_region(grid, Region(1, 2, 2, 3), h_shift)
        assert out == ((9, 0, 1), (7, 0, 1))

    def test_arbitrary_callables_rejected(self):
        with pytest.raises(PreconditionFailed, match="only h_shift and v_shift"):
            apply_in_region(((1, 0),), Region(1, 1, 1, 2), lambda g: g)

    def test_empty_or_out_of_bounds_region_rejected(self):
        with pytest.raises(PreconditionFailed):
            Region(2, 1, 1, 1)
        with pytest.raises(PreconditionFailed):
            apply_in_region(((1, 0),), Region(1, 2, 1, 2), h_shift)


class TestNonIntegerEntries:
    """Entries are never converted: floats, bools and strings are refused."""

    @pytest.mark.parametrize("bad", [1.7, 1.0, True, "x"])
    def test_h_shift(self, bad):
        with pytest.raises(PreconditionFailed, match="not an integer"):
            h_shift(((bad, 0), (0, 0)))

    @pytest.mark.parametrize("bad", [1.7, 1.0, True, "x"])
    def test_v_shift(self, bad):
        with pytest.raises(PreconditionFailed, match="not an integer"):
            v_shift(((0, 0), (bad, 0)))

    @pytest.mark.parametrize("bad", [1.7, 1.0, True, "x"])
    def test_apply_in_region(self, bad):
        with pytest.raises(PreconditionFailed, match="not an integer.*region"):
            apply_in_region(((9, bad, 0),), Region(1, 1, 2, 3), h_shift)

    def test_apply_in_region_checks_the_host_outside_the_window(self):
        with pytest.raises(PreconditionFailed, match="not an integer.*region"):
            apply_in_region(((9.5, 1, 0), (True, 1, 0)), Region(1, 2, 2, 3), h_shift)


class TestErrorsNameTheLine:
    """Each primitive's precondition error names the line that is wrong."""

    @pytest.mark.parametrize(
        "func,grid,message",
        [
            (h_unshift, ((1, 0), (0, 0)), "last column empty"),
            (h_unshift, ((0, 1), (1, 1)), "column 1 nonzero"),
            (h_unshift, ((0, 0), (0, 0)), "no nonzero column"),
            (v_shift, ((0, 0), (1, 0), (0, 0)), "last row empty"),
            (v_shift, ((1, 0), (0, 0), (1, 0)), "first row nonzero"),
            (v_shift, ((0, 0), (0, 0), (0, 0)), "no nonzero row"),
            (v_unshift, ((0, 0), (0, 1), (1, 0)), "first row empty"),
            (v_unshift, ((1, 0), (0, 0), (1, 0)), "last row nonzero"),
        ],
    )
    def test_message(self, func, grid, message):
        with pytest.raises(PreconditionFailed, match=message):
            func(grid)


class TestPointCore:
    """The point core, reached through the dense adapters and directly on
    the 1s of a host, against the dense oracle: same grids, same
    messages."""

    @pytest.mark.parametrize("func", [h_shift, h_unshift, v_shift, v_unshift])
    @pytest.mark.parametrize("shape", [(1, 3), (2, 3), (3, 2), (3, 4)])
    def test_primitives_match_the_oracle_on_every_grid(self, func, shape):
        for grid in all_grids(*shape):
            assert outcome(func, grid) == outcome(shift_by_definition, func, grid), grid

    @pytest.mark.parametrize("func", [h_shift, h_unshift, v_shift, v_unshift])
    def test_region_shift_keeps_the_points_outside_the_window(self, func):
        rng = random.Random(func.__name__)
        columns, inverse = func in (h_shift, h_unshift), func in (h_unshift, v_unshift)
        for _ in range(400):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            host = tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(m))
            top, left = rng.randint(1, m), rng.randint(1, n)
            region = Region(top, rng.randint(top, m), left, rng.randint(left, n))
            window = [row[left - 1 : region.right] for row in host[top - 1 : region.bottom]]
            expected = outcome(shift_by_definition, func, window)
            if isinstance(expected, str):
                in_region = f"{expected} (in region {region})"
            else:
                rows = [list(row) for row in host]
                for row, new in zip(rows[top - 1 : region.bottom], expected):
                    row[left - 1 : region.right] = new
                expected = rows
                in_region = tuple(map(tuple, rows))
            got = outcome(lambda: _dense(_displace(_ones(host), region, columns, inverse), m, n))
            assert got == expected, (host, region)
            if not inverse:
                assert outcome(apply_in_region, host, region, func) == in_region
