"""Every cell the CSV writer prints, byte for byte against Python's `%`:
floats at `%.17g` over the whole double range and at its edges (ties,
powers of ten, the switch between fixed and scientific notation), then
whole tables of mixed columns against the per-row writer it replaced."""

import math
from decimal import Decimal

import numpy as np
import pytest

from mirror_dce.circuit import _BLOCK_ROWS, _csv_chunks
from mirror_dce.experiments import _text_column
from oracles import csv_text_per_row


def _assert_printed_as_by_percent(x):
    x = np.asarray(x, dtype=float)
    chunks = _csv_chunks("x", (x,))
    assert next(chunks) == "x\n"
    got = b"".join(chunks).decode().splitlines()
    want = ["%.17g" % v for v in x.tolist()]
    assert len(got) == len(want)
    wrong = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert not wrong, wrong[:5]


def _neighbours(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


def test_random_bit_patterns():
    rng = np.random.default_rng(27)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    subnormal = rng.integers(1, 2**52, 2_000, dtype=np.uint64) | np.uint64(2**63) * (
        rng.random(2_000) < 0.5
    ).astype(np.uint64)
    _assert_printed_as_by_percent(np.concatenate([bits, subnormal]).view(np.float64))


def test_zeros_and_the_ends_of_the_range():
    edges = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
             2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
    _assert_printed_as_by_percent(edges)


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    _assert_printed_as_by_percent(_neighbours(np.concatenate([powers, -powers])))


def test_where_g_switches_notation():
    # %g prints fixed from exponent -4 to 16, else scientific
    _assert_printed_as_by_percent(_neighbours([1e-5, 1e-4, 1e16, 1e17, -1e-4, -1e17]))


def test_near_and_exact_ties():
    # Doubles nearest to 18-digit decimals ending in 5, at every exponent
    rng = np.random.default_rng(5)
    digits = rng.integers(10**16, 10**17, 3_000)
    exponents = rng.integers(-300, 300, 3_000)
    near = [float(Decimal(f"{d}5e{k}")) for d, k in zip(digits.tolist(), exponents.tolist())]
    # Doubles that are 18-digit decimals ending in 5: q / 2**j with q * 5**j
    # of 18 digits, rounded half to even by %
    exact = [q * 2.0**-j for j in range(1, 80) for q in range(1, 400, 2)
             if 10**17 <= q * 5**j < 10**18]
    assert len(exact) > 50
    assert all(Decimal(x).as_tuple().digits[-1] == 5 for x in exact)
    _assert_printed_as_by_percent(near + exact + [-x for x in exact])


@pytest.mark.parametrize("rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 3])
def test_tables_match_the_per_row_writer(rows):
    rng = np.random.default_rng(rows)
    x = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
    x[::97] = 0.0
    x[1::101] = np.nan
    third = rows // 3
    columns = (
        np.arange(rows),
        x,
        np.linspace(0.0, 1.0, rows).astype(np.float32),
        _text_column(["sa", "µ", "aua"], [third, third, rows - 2 * third]),
        rng.integers(0, 3, rows).astype(np.uint8),
    )
    head = "# mirror-dce v1\nn,x,y,label,k"
    head_chunk, *blocks = _csv_chunks(head, columns)
    assert len(blocks) == -(-rows // _BLOCK_ROWS)
    assert (head_chunk.encode() + b"".join(blocks)) == csv_text_per_row(head, columns).encode()


def test_object_cells_print_one_by_one():
    # Equal objects that print apart are not merged into one run
    objects = np.array([0.0, -0.0, 1, True, 1.0, "1", "1", b"1", None], dtype=object)
    chunks = list(_csv_chunks("o", (objects, np.array([True, False] * 4 + [True]))))
    assert "".join(c if isinstance(c, str) else c.decode() for c in chunks) == (
        csv_text_per_row("o", (objects, np.array([True, False] * 4 + [True])))
    )
