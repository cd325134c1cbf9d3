"""The CLI's numpy writers of spectrum.csv, spectrum.jsonl and chains.jsonl,
imported only by the commands that write them: CSV floats are "%.16e" built
as bytes, and the JSONL writers format each distinct value of a column once."""

from __future__ import annotations

import functools
import json
import math
import time
from pathlib import Path

import numpy as np

from .blackholes import _two_prod
from .cli import _canonical_json

# Rows formatted and written at a time: bounds the memory a writer holds.
_ROW_CHUNK = 16384


def _format_column(values: np.ndarray, fmt) -> tuple[list[str], np.ndarray]:
    """(texts, index) of a 1-D column: fmt of each distinct value, called
    once per value, and each entry's index into texts (the JSONL writers;
    spectrum.csv goes through _format_e16).

    Floats are keyed on their bit patterns, so -0.0 and 0.0 (and distinct nan
    payloads) stay apart and each entry gets exactly the string fmt gives it.
    """
    keys = values.view(np.int64) if values.dtype == np.float64 else values
    distinct, index = np.unique(keys, return_inverse=True)
    # The narrowest index type: a writer holds one index per entry of every column.
    index = index.astype(np.min_scalar_type(distinct.size), copy=False)
    return list(map(fmt, distinct.view(values.dtype).tolist())), index


# "%.16e" as bytes: a cell is "-d.dddddddddddddddde-ddd" (24 bytes at most) and a comma.
_E16_WIDTH = 25
# Magnitudes whose double-double products stay normal; the rest, subnormals
# included, are formatted by `%`.
_E16_MIN, _E16_MAX = 1e-280, 1e280
# Powers of ten 10^s in the table: s = 16 - floor(log10 |x|) over that range.
_POW_MIN, _POW_MAX = -270, 300
# The cells of nan, inf and -inf, by kind 0, 1, 2.
_E16_SPECIAL = (b"nan,", b"inf,", b"-inf,")


@functools.cache
def _e16_tables():
    """(hi, lo) of 10^s for s in [_POW_MIN, _POW_MAX], with hi + lo = 10^s to
    ~2^-106 relative, from exact integers, and the 4-digit text of 0..9999,
    one uint32 of 4 bytes each. Built on the first CSV write."""
    hi, lo = [], []
    for s in range(_POW_MIN, _POW_MAX + 1):
        num, den = 10 ** max(s, 0), 10 ** max(-s, 0)
        h = num / den  # int / int rounds correctly
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    # Row i holds the 4 ASCII digits of i, read as one uint32.
    text = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    digits = text.astype(np.uint8).view(np.uint32).ravel()
    return np.array(hi), np.array(lo), digits


def _format_e16(values: np.ndarray):
    """Byte cells of ("%.16e" % x) + "," for every x of a float64 array.

    Returns (cells, fallback): cells is uint8 of shape values.shape +
    (_E16_WIDTH,) and holds each cell's text with NUL bytes where it is
    shorter than the widest cell (the sign of a positive value, the
    hundreds digit of a 2-digit exponent, the tail of nan), so that
    cells[cells != 0] is the texts in order; fallback marks the values
    formatted by `%` (see below).

    x = N 10^(e-16) with N the 17-digit rounding of |x| 10^(16-e) and
    e = floor(log10 |x|). The product is a double-double, exact to ~1e-14
    in N's units, so N is the correctly rounded value unless its fraction
    is within 1e-9 of one half (a possible tie) or the guess of e misses
    (|x| 10^(16-e) below 10^16, or N = 10^17). Those values and magnitudes
    outside [_E16_MIN, _E16_MAX] take `%`; 0.0, nan and inf are written here.
    """
    pow_hi, pow_lo, digits = _e16_tables()
    x = np.asarray(values, dtype=np.float64)
    neg = np.signbit(x)
    a = np.abs(x)
    normal = (a >= _E16_MIN) & (a <= _E16_MAX)
    a = np.where(normal, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    s = 16 - _POW_MIN - e
    p, p_err = _two_prod(a, pow_hi[s])
    t = p_err + a * pow_lo[s]
    t_int = np.floor(t)
    frac = t - t_int
    # p >= 2^53 is an integer, so N = p + t rounded. The guess of e missed
    # when N has 16 digits before rounding, or 18 after it.
    n_floor = p.astype(np.int64) + t_int.astype(np.int64)
    n = n_floor + (frac > 0.5)
    miss = (p < 2.0**53) | (n_floor < 10**16) | (n >= 10**17) | (np.abs(frac - 0.5) < 1e-9)
    fallback = np.where(normal, miss, np.isfinite(x) & (x != 0))
    plain = normal & ~fallback
    n = np.where(plain, n, 0)
    e = np.where(plain, e, 0)

    # N = lead, then four groups of 4 digits; `//` and a multiply-subtract
    # are cheaper than np.divmod on int64.
    lead = n // 10**16
    upper = n // 10**8 - lead * 10**8
    lower = n - n // 10**8 * 10**8
    groups = np.empty(x.shape + (4,), dtype=np.intp)
    groups[..., 0] = upper // 10**4
    groups[..., 1] = upper - groups[..., 0] * 10**4
    groups[..., 2] = lower // 10**4
    groups[..., 3] = lower - groups[..., 2] * 10**4
    abs_e = np.abs(e)
    cells = np.empty(x.shape + (_E16_WIDTH,), dtype=np.uint8)
    cells[..., 0] = neg * ord("-")
    cells[..., 1] = lead + ord("0")
    cells[..., 2] = ord(".")
    cells[..., 3:19] = np.take(digits, groups).view(np.uint8)
    cells[..., 19] = ord("e")
    cells[..., 20] = np.where(e < 0, ord("-"), ord("+"))
    cells[..., 21:24] = np.take(digits, abs_e)[..., None].view(np.uint8)[..., 1:]
    cells[..., 21] *= abs_e >= 100
    cells[..., 24] = ord(",")

    inf = np.isinf(x)
    special = inf | np.isnan(x)
    if special.any():
        texts = np.array(_E16_SPECIAL, dtype=f"S{_E16_WIDTH}").view(np.uint8)
        cells[special] = texts.reshape(-1, _E16_WIDTH)[np.where(inf, 1 + neg, 0)[special]]
    if fallback.any():
        texts = np.array(["%.16e," % v for v in x[fallback].tolist()], dtype=f"S{_E16_WIDTH}")
        cells[fallback] = texts.view(np.uint8).reshape(-1, _E16_WIDTH)
    return cells, fallback


def _spectrum_columns(grid: SpectrumGrid, thermal: SpectrumGrid | None) -> dict:
    """The output columns of a spectrum, as whole arrays, in CSV order.

    thermal_log_weight is nan throughout when there is no thermal baseline.
    """
    omega, q, j = grid.grid_spec.bins()
    thermal_lw = thermal.log_weight if thermal else np.full(grid.n_bins, np.nan)
    return {
        "omega": omega,
        "q": q,
        "j": j,
        "log_weight": grid.log_weight,
        "weight": grid.weights(),
        "thermal_log_weight": thermal_lw,
        "valid": grid.valid,
    }


# Rows joined into one string at a time by the JSONL writers.
_JSONL_BLOCK = 2048


def _jsonl_rows(columns: dict):
    """Canonical JSON rows (compact, keys sorted, one per line) of named
    columns, _JSONL_BLOCK rows per string. Each column's distinct values are
    formatted once over all the rows given."""
    keys = sorted(columns)
    cells = [_format_column(columns[k], json.dumps) for k in keys]
    # A row is the key pieces with its cells between them: {"a":1,"b":2}.
    row = [None] * (2 * len(keys) + 1)
    row[0::2] = ["{" + json.dumps(keys[0]) + ":", *(f",{json.dumps(k)}:" for k in keys[1:]), "}\n"]
    n_rows = len(cells[0][1])
    for start in range(0, n_rows, _JSONL_BLOCK):
        stop = min(start + _JSONL_BLOCK, n_rows)
        parts = row * (stop - start)
        for k, (texts, index) in enumerate(cells):
            parts[2 * k + 1 :: len(row)] = map(texts.__getitem__, index[start:stop].tolist())
        yield "".join(parts)


def _node_values(values: np.ndarray, spec) -> np.ndarray | None:
    """The value of each omega node, if values (one per bin) is, bit for bit,
    that value repeated over the node's q and j bins; else None."""
    bits = values.view(np.int64).reshape(spec.n_omega, spec.n_q * spec.n_j)
    if (bits == bits[:, :1]).all():
        return values[:: spec.n_q * spec.n_j]
    return None


def write_spectrum_csv(path: Path, grid: SpectrumGrid, thermal, manifest_hash: str) -> None:
    """spectrum.csv: floats as "%.16e" (17 significant digits, round-trip
    exact), assembled as bytes, about _ROW_CHUNK rows at a time.

    A chunk is a box of the (omega, q, j) grid, whole omega nodes unless one
    node holds more than _ROW_CHUNK bins, and its rows are built as one
    (k, n_q, n_j, row) byte array. The omega, q and j cells are formatted
    from the GridSpec axes, one cell per axis value in the box, and
    broadcast into it; so are the thermal baseline's when it is, bit for
    bit, one value per omega node (always, when built by
    spectrum.build_thermal_spectrum). The other columns are formatted bin by
    bin. thermal_log_weight is nan throughout without a baseline.
    """
    spec = grid.grid_spec
    shape = (spec.n_omega, spec.n_q, spec.n_j)
    thermal_nodes = np.full(spec.n_omega, np.nan)
    if thermal is not None:
        thermal_nodes = _node_values(np.ascontiguousarray(thermal.log_weight, np.float64), spec)
    # Each float column in CSV order: (axis, values along that grid axis)
    # or (None, values of the bins).
    columns = [
        (0, spec.omega_nodes()),
        (1, spec.q_values()),
        (2, spec.j_values()),
        (None, grid.log_weight),
        (None, grid.weights()),
        (None, thermal.log_weight) if thermal_nodes is None else (0, thermal_nodes),
    ]
    header = "omega,q,j,log_weight,weight,thermal_log_weight,valid"
    flag_text = np.array([b"false\n", b"true\n"], dtype="S6").view(np.uint8).reshape(2, 6)
    # The chunk's box: indices lo:hi of `axis`, the whole axes after it, and
    # one index of each axis before it.
    axis = next(a for a in range(3) if math.prod(shape[a + 1 :]) <= _ROW_CHUNK)
    inner = math.prod(shape[axis + 1 :])
    k = min(_ROW_CHUNK // inner, shape[axis])
    width = len(columns) * _E16_WIDTH + 6
    # The cells of the axes after `axis` (at most _ROW_CHUNK values), which
    # every chunk takes whole, are formatted once; the rest chunk by chunk.
    whole = {c: _format_e16(values)[0] for c, (along, values) in enumerate(columns)
             if along is not None and along > axis}
    # One row of cells per row of the file, the floats then the flag, NUL
    # where a text is shorter than its cell; reused by every chunk.
    buffer = bytearray(k * inner * width)
    with path.open("wb") as f:
        f.write(f"# manifest_hash={manifest_hash}\n{header}\n".encode())
        for outer in np.ndindex(shape[:axis]):
            for lo in range(0, shape[axis], k):
                hi = min(lo + k, shape[axis])
                box = [slice(i, i + 1) for i in outer] + [slice(lo, hi)] + [slice(None)] * (2 - axis)
                box_shape = (1,) * axis + (hi - lo,) + shape[axis + 1 :]
                start = int(np.ravel_multi_index(outer + (lo,), shape[: axis + 1])) * inner
                stop = start + (hi - lo) * inner
                n_bytes = (stop - start) * width
                rows = np.frombuffer(buffer, np.uint8, n_bytes).reshape(box_shape + (width,))
                for c, (along, values) in enumerate(columns):
                    cell = rows[..., c * _E16_WIDTH : (c + 1) * _E16_WIDTH]
                    if along is None:
                        cell[...] = _format_e16(values[start:stop])[0].reshape(cell.shape)
                    else:
                        cells = whole[c] if c in whole else _format_e16(values[box[along]])[0]
                        stretch = [-1 if a == along else 1 for a in range(3)]
                        cell[...] = cells.reshape(stretch + [_E16_WIDTH])
                flag = flag_text[grid.valid[start:stop].astype(np.intp)]
                rows[..., -6:] = flag.reshape(box_shape + (6,))
                text = buffer if n_bytes == len(buffer) else buffer[:n_bytes]
                f.write(text.translate(None, b"\0"))


def _write_spectrum_jsonl(path: Path, grid: SpectrumGrid, thermal, manifest_hash: str) -> None:
    columns = _spectrum_columns(grid, thermal)
    with path.open("w", encoding="utf-8") as f:
        f.write(_canonical_json({"type": "header", "manifest_hash": manifest_hash}) + "\n")
        for start in range(0, grid.n_bins, _ROW_CHUNK):
            f.writelines(_jsonl_rows({k: v[start : start + _ROW_CHUNK] for k, v in columns.items()}))


class _ChainsJsonl:
    """chains.jsonl, one row per step, written chunk by chunk from the step
    columns of cascade.sample_ensemble; seconds is the time spent in write.

    The rows go to a temporary file, renamed into place when the with block
    ends without an error and removed when it ends with one, so a failed run
    leaves no partial chains.jsonl.
    """

    def __init__(self, path: Path, manifest_hash: str, n_samples: int, seed: int) -> None:
        self.path, self.part = path, path.with_name(path.name + ".part")
        self.header = {"type": "header", "manifest_hash": manifest_hash,
                       "n_samples": n_samples, "seed": seed}
        self.seconds = 0.0

    def __enter__(self) -> "_ChainsJsonl":
        self.file = self.part.open("w", encoding="utf-8")
        self.file.write(_canonical_json(self.header) + "\n")
        return self

    def write(self, columns: dict) -> None:
        t = time.perf_counter()
        self.file.writelines(_jsonl_rows(columns))
        self.seconds += time.perf_counter() - t

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.file.close()
            if exc_type is None:
                self.part.replace(self.path)
        finally:
            self.part.unlink(missing_ok=True)

