"""The CSV writer against Python's own %.17g, value for value."""

import decimal
import warnings
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from infogeo.csvtext import series_to_csv


def row_reference(kind, names, cols):
    """The row-at-a-time writer: one '%.17g' per value, rows joined by newlines."""
    table = np.column_stack(cols)
    template = ",".join(["%.17g"] * table.shape[1])
    lines = [f"# infogeo {kind} csv schema=1", ",".join(names)]
    lines += [template % tuple(row) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def assert_writes_like_the_reference(table, capfd):
    table = np.asarray(table, dtype=float)
    names = [f"c{j}" for j in range(table.shape[1])]
    cols = [table[:, j] for j in range(table.shape[1])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = series_to_csv("test", names, cols)
    expected = row_reference("test", names, cols)
    if text != expected:   # name the first row that differs, not the whole file
        got, want = text.split("\n"), expected.split("\n")
        row = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                   min(len(got), len(want)))
        assert got[row:row + 1] == want[row:row + 1], f"row {row} of {len(want)}"
    assert text == expected
    assert capfd.readouterr() == ("", "")


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(st.floats(), min_size=1, max_size=48), ncol=st.integers(1, 8))
def test_any_doubles_print_as_percent_17g(values, ncol, capfd):
    # st.floats() draws nan, both infinities, both zeros and subnormals
    ncol = min(ncol, len(values))
    assert_writes_like_the_reference(np.reshape(values[:len(values) // ncol * ncol], (-1, ncol)),
                                     capfd)


def test_random_bit_patterns_print_as_percent_17g(capfd):
    bits = np.random.default_rng(20261020).integers(0, 2**64, 10**5, dtype=np.uint64)
    assert_writes_like_the_reference(bits.view(np.float64).reshape(-1, 5), capfd)


def test_powers_of_ten_and_their_neighbours(capfd):
    # 10**X as Python parses it and one ulp either side, for X over the double
    # range: where log10 rounds onto X, or the 17 digits carry to 10**17
    tens = np.array([float(f"1e{x}") for x in range(-323, 309)])
    values = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    assert_writes_like_the_reference(np.concatenate([values, -values])[:, None], capfd)


def test_exact_18_digit_ties_and_near_ties(capfd):
    # odd / 2**(17 - X) in [10**X, 10**(X + 1)) has 18 significant digits, the
    # last a 5: the 17-digit rounding is a tie, decided half to even
    rng = np.random.default_rng(7)
    ties = []
    for x in (-4, -1, 0, 1, 5, 9, 15):
        scale = 2.0 ** (17 - x)
        low, high = 10.0 ** x * scale, min(10.0 ** (x + 1) * scale, 2.0**53)
        odd = 2 * rng.integers(int(low) // 2, int(high) // 2, 40) + 1
        ties += [v for v in (odd / scale).tolist() if 10.0 ** x <= v < 10.0 ** (x + 1)]
    for v in ties:
        digits = decimal.Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    assert len(ties) > 200
    # near-ties: m / 2**52 in [1, 2) times 10**16 is m 5**16 / 2**36, so the
    # m below put its fraction at 1/2 -+ 2**-36, inside the 1e-9 margin
    inverse = pow(5**16, -1, 2**36)
    near = [(2**52 + j * 2**36 + (2**35 + d) * inverse % 2**36) / 2**52
            for d in (1, -1) for j in range(0, 2**16, 331)]
    for v in near:
        assert abs(Fraction(v) * 10**16 % 1 - Fraction(1, 2)) == Fraction(1, 2**36)
    values = ties + near
    assert_writes_like_the_reference(np.reshape(values + [-v for v in values], (-1, 2)), capfd)


def test_specials_in_a_row_and_in_a_column(capfd):
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, np.inf, -np.inf, np.nan, 1.0, 0.1, 1e16, 1e17, 0.5]
    assert_writes_like_the_reference(np.reshape(specials, (1, -1)), capfd)
    assert_writes_like_the_reference(np.reshape(specials, (-1, 1)), capfd)
    assert_writes_like_the_reference(np.empty((0, 3)), capfd)


# one value per digit count before the point, q = 0 .. 17, in fixed notation
# (X = -4 .. 16) and in exponent notation (q = 1), with nsig below, at and
# above q, and the negatives of all of them
_DIGITS = [1.2345678901234567, 1.0, 1.25, 9.99]
_BY_BEFORE_POINT = [sign * d * 10.0 ** e for e in (*range(-4, 17), -5, -300, 17, 300)
                    for d in _DIGITS for sign in (1.0, -1.0)]
_FALLBACK = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310]


def test_cell_texts_at_the_ends_of_the_table(capfd):
    # the cells' words are read one byte on from each cell, so the first and
    # the last cell of a table are where that view meets the buffer's ends:
    # every q at both, in a 1 x 1 table, a single column, a single row and
    # a 3 x 4 table
    middle = [0.5, -3.75e-7]
    for v in _BY_BEFORE_POINT:
        assert_writes_like_the_reference([[v]], capfd)
        line = [v, *middle, v]
        assert_writes_like_the_reference(np.reshape(line, (-1, 1)), capfd)
        assert_writes_like_the_reference(np.reshape(line, (1, -1)), capfd)
        assert_writes_like_the_reference(np.reshape([v, *[1e20] * 10, v], (3, 4)), capfd)


def test_fallback_cells_beside_certified_ones(capfd):
    # each fallback value (formatted by %.17g itself) next to each certified
    # one, before and after it, and at both ends of the table
    for f in _FALLBACK:
        line = [f, *np.ravel([[v, f] for v in _BY_BEFORE_POINT])]
        assert_writes_like_the_reference(np.reshape(line, (-1, 1)), capfd)
        assert_writes_like_the_reference(np.reshape(line, (1, -1)), capfd)
        assert_writes_like_the_reference(np.reshape(line[:-1], (-1, 4)), capfd)
