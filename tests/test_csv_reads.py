"""Every float cell the CSV reader reads, bit for bit against np.loadtxt:
the writer's `%.17g` cells and Python's repr over the whole double range
and at its edges (powers of ten, decimal ties, cells of more than 24
bytes), cells the kernel leaves to np.loadtxt, then whole tables across
the reader's block cuts."""

import math
from decimal import Decimal

import numpy as np
import pytest

from mirror_dce import circuit, experiments
from mirror_dce.experiments import FORMAT_HEADER, _text_column, _write_table, read_table


def _loadtxt(lines):
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def _assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    wrong = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert not wrong.size, [(got.flat[i], want.flat[i]) for i in wrong[:5]]


def _assert_read_as_by_loadtxt(cells, tmp_path):
    path = tmp_path / "cells.csv"
    path.write_text(f"{FORMAT_HEADER}\nx\n" + "".join(c + "\n" for c in cells))
    _, columns = read_table(path)
    _assert_same_bits(columns["x"], _loadtxt(cells)[:, 0])


def _assert_table_read_as_by_loadtxt(path):
    """The float columns of a table written by `_write_table`, against
    np.loadtxt of its row lines."""
    _, columns = read_table(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    names, rows = lines[at].split(","), lines[at + 1 :]
    floats = [i for i, name in enumerate(names) if name != "trajectory"]
    want = _loadtxt([",".join(row.split(",")[i] for i in floats) for row in rows])
    for j, i in enumerate(floats):
        _assert_same_bits(columns[names[i]], want[:, j])


def _fallback_texts(monkeypatch) -> list[str]:
    """The cells the kernel leaves to np.loadtxt from now on, as they come."""
    seen, fallback = [], circuit._loadtxt_cells

    def record(texts):
        seen.extend(texts)
        return fallback(texts)

    monkeypatch.setattr(circuit, "_loadtxt_cells", record)
    return seen


def _specials():
    return np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324])


def test_random_bit_patterns(tmp_path):
    rng = np.random.default_rng(28)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    subnormal = rng.integers(1, 2**52, 2_000, dtype=np.uint64)
    x = np.concatenate([bits, subnormal]).view(np.float64)
    x = np.concatenate([x, _specials()])
    _assert_table_read_as_by_loadtxt(_write_table(tmp_path / "g.csv", {}, ("x",), (x,)))
    _assert_read_as_by_loadtxt([repr(v) for v in x.tolist()], tmp_path)


def test_powers_of_ten_and_their_neighbours(tmp_path):
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    x = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    x = np.concatenate([x, -x])
    _assert_table_read_as_by_loadtxt(_write_table(tmp_path / "p.csv", {}, ("x",), (x,)))
    cells = [repr(v) for v in x.tolist()] + [f"1e{k}" for k in range(-330, 315)]
    _assert_read_as_by_loadtxt(cells, tmp_path)


def test_exact_decimal_ties(tmp_path, monkeypatch):
    # Doubles that are 18- or 19-digit decimals ending in 5, written in full
    exact = [q * 2.0**-j for j in range(1, 80) for q in range(1, 400, 2)
             if 10**17 <= q * 5**j < 10**19]
    cells = [str(Decimal(x)) for x in exact] + ["2907797429.57421875"]
    # Decimals halfway between two doubles: np.loadtxt rounds them to even,
    # and the kernel, which cannot prove a rounding there, leaves them to it
    halves = [(2**e + (2 * k + 1) * 2 ** (e - 53)) for e in range(53, 64) for k in range(20)]
    halves = [c for h in halves for c in (str(h), str(Decimal(h) / 8)) if len(c) <= 24]
    assert len(cells) > 100 and len(halves) > 200
    seen = _fallback_texts(monkeypatch)
    cells += halves
    _assert_read_as_by_loadtxt(cells + ["-" + c for c in cells], tmp_path)
    assert set(halves) <= set(seen)


def test_cells_wider_than_the_window(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)
    cells = ["%.30e" % v for v in x.tolist()] + ["%.40f" % v for v in x.tolist()]
    cells += ["0." + "0" * 30 + "1", "1" + "0" * 30, "0" * 40 + "7", "-" + "9" * 30 + "e-30"]
    assert all(len(c) > 24 for c in cells)
    _assert_read_as_by_loadtxt(cells, tmp_path)


def test_more_digits_than_an_int64_holds(tmp_path):
    # 20 to 23 digits fit the window but not the kernel's integer
    rng = np.random.default_rng(4)
    ints = [str(int(d)) for d in rng.integers(10**17, 10**18, 200)]
    cells = [f"{a}{b[:k]}" for a, b, k in zip(ints, ints[::-1], rng.integers(2, 6, 200).tolist())]
    cells += [f"{c[:10]}.{c[10:]}" for c in cells] + [f"-{c[:20]}e-{len(c) - 20}" for c in cells]
    assert all(len(c) <= 24 and sum(map(str.isdigit, c.split("e")[0])) >= 20 for c in cells)
    _assert_read_as_by_loadtxt(cells, tmp_path)


def test_a_table_whose_every_cell_falls_back(tmp_path, monkeypatch):
    # Spaces, other spellings, and values outside 1e±280: none is read by the kernel
    rng = np.random.default_rng(9)
    x = rng.standard_normal(300) * 10.0 ** rng.integers(281, 308, 300)
    cells = [" %r" % v for v in x.tolist()] + ["%.17g" % (1 / v) for v in x.tolist()]
    cells += ["Infinity", "+inf", "NAN", "1E400", "0.1e-400", "1e0005", "\t1", "1 "]
    seen = _fallback_texts(monkeypatch)
    _assert_read_as_by_loadtxt(cells, tmp_path)
    assert seen == cells


def test_the_writers_cells_need_no_fallback(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    x = rng.standard_normal(5000) * 10.0 ** rng.integers(-270, 270, 5000)
    x[::50] = np.nan
    x[1::50], x[2::50], x[3::50], x[4::50] = np.inf, -np.inf, 0.0, -0.0
    path = _write_table(tmp_path / "w.csv", {}, ("x",), (x,))
    monkeypatch.setattr(circuit, "_loadtxt_cells", None)
    _, columns = read_table(path)
    _assert_same_bits(columns["x"], x)


@pytest.mark.parametrize(("block", "rows"), [(1, 200), (40, 500), (1000, 3000), (1 << 17, 12000)])
def test_rows_across_block_cuts(tmp_path, monkeypatch, block, rows):
    # Blocks of whole lines, whatever the size read: from one byte to the default
    rng = np.random.default_rng(block)
    third = rows // 3
    columns = (
        rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows),
        np.arange(rows),
        _text_column(["sa", "µ", "aua", "sa"], [third, 1, third, rows - 2 * third - 1]),
    )
    path = _write_table(tmp_path / "b.csv", {"k": "v"}, ("x", "n", "trajectory"), columns)
    monkeypatch.setattr(experiments, "_READ_BYTES", block)
    meta, back = read_table(path)
    assert meta == {"k": "v"}
    _assert_same_bits(back["x"], columns[0])
    assert back["n"] == columns[1].astype(float).tolist()
    assert back["trajectory"] == columns[2].tolist()
    _assert_table_read_as_by_loadtxt(path)


@pytest.mark.parametrize("rows", ["", "\n", "\n\n\r\n"])
def test_zero_row_tables(tmp_path, rows):
    path = tmp_path / "z.csv"
    path.write_bytes(f"{FORMAT_HEADER}\n# k=v\nx,trajectory\n{rows}".encode())
    assert read_table(path) == ({"k": "v"}, {"x": [], "trajectory": []})
