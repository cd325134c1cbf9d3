"""The CLI's numpy writers of spectrum.csv, spectrum.jsonl and spectrum.json,
imported only by the spectrum command: CSV floats are "%.16e" built as bytes,
and the JSON row writers format each distinct value of a column once. (The
cascade command's chains.jsonl writer, cli._ChainsJsonl, loads no numpy.)"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

from .blackholes import _two_prod
from .cli import _JSON_NONFINITE, _JSONL_BLOCK, _canonical_json

# Rows formatted and written at a time: bounds the memory a writer holds.
_ROW_CHUNK = 4096


def _json_texts(values: np.ndarray) -> list[str]:
    """json.dumps's text of each value of a 1-D array. A float64 takes the
    text json.encoder gives a float, with no call per value: float.__repr__,
    or NaN, Infinity and -Infinity."""
    if values.dtype != np.float64:
        return list(map(json.dumps, values.tolist()))
    texts = list(map(float.__repr__, values.tolist()))
    if not np.isfinite(values).all():
        texts = [_JSON_NONFINITE.get(t, t) for t in texts]
    return texts


def _format_column(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """(texts, index) of a 1-D column for the JSON row writers: the JSON
    text of each distinct value, formatted once, and each entry's index
    into texts.

    Floats are keyed on their bit patterns, so -0.0 and 0.0 (and distinct nan
    payloads) stay apart and each entry gets exactly the text json.dumps gives it.
    """
    keys = values.view(np.int64) if values.dtype == np.float64 else values
    distinct, index = np.unique(keys, return_inverse=True)
    # The narrowest index type: a writer holds one index per entry of every column.
    index = index.astype(np.min_scalar_type(distinct.size), copy=False)
    return _json_texts(distinct.view(values.dtype)), index


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
    """(hi, lo) of 10^s for s in [_POW_MIN, _POW_MAX], with hi the float64
    nearest 10^s and lo the one nearest 10^s - hi, and the 4-digit text of
    0..9999, one uint32 of 4 bytes each. Built on the first CSV write.

    With p = 10^|s| an exact integer, each rounding is one of Python's
    correctly rounded int-to-float conversions or int / int divisions:
    10^s = p and its residual p - hi for s >= 0, 10^s = 1 / p for s < 0,
    whose residual 1 / p - hi is (d - m p) / (p d) for hi = m / d, d = 2^e,
    divided by p before the exact scaling by 2^-e. The walk reuses p from
    one s to the next.
    """
    hi, lo = [], []
    p = 10 ** -_POW_MIN
    for _ in range(_POW_MIN, 0):
        h = 1 / p
        m, d = h.as_integer_ratio()
        hi.append(h)
        lo.append(math.ldexp((d - m * p) / p, 1 - d.bit_length()))
        p //= 10
    p = 1
    for _ in range(_POW_MAX + 1):
        h = float(p)
        hi.append(h)
        lo.append(float(p - int(h)))
        p *= 10
    # Entry (a, b, c, d) holds the ASCII digits a, b, c, d: read as one uint32, entry abcd.
    text = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for k in range(4):
        text[..., k] = ascii_digits.reshape((10,) + (1,) * (3 - k))
    return np.array(hi), np.array(lo), text.view(np.uint32).ravel()


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
    # The product's arrays are dead from here: freed now, they are not held
    # beside the digit groups and cells, the CSV writer's peak (~0.5 MB per
    # 8192-value chunk).
    del a, s, p, p_err, t, t_int, frac, n_floor
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


# The pieces of a row around its values: (before the first key, between a
# value and the next key, between a key and its value, after the last value).
# A spectrum.jsonl row is compact, one per line; a spectrum.json
# bin is json.dumps's indent-2 object at depth 2, after the separator from
# the bin before it.
_JSONL_ROW = ("{", ",", ":", "}\n")
_JSON_BIN = (",\n    {\n      ", ",\n      ", ": ", "\n    }")


def _json_rows(columns: dict, template: tuple[str, str, str, str] = _JSONL_ROW):
    """JSON rows of named columns, keys sorted, in the row template,
    _JSONL_BLOCK rows per string. Each column's distinct values are
    formatted once over all the rows given."""
    first, between, colon, last = template
    keys = sorted(columns)
    cells = [_format_column(columns[k]) for k in keys]
    # A row is the key pieces with its cells between them: {"a":1,"b":2}.
    row = [None] * (2 * len(keys) + 1)
    row[0::2] = [first + json.dumps(keys[0]) + colon,
                 *(between + json.dumps(k) + colon for k in keys[1:]), last]
    n_rows = len(cells[0][1])
    for start in range(0, n_rows, _JSONL_BLOCK):
        stop = min(start + _JSONL_BLOCK, n_rows)
        parts = row * (stop - start)
        for k, (texts, index) in enumerate(cells):
            parts[2 * k + 1 :: len(row)] = map(texts.__getitem__, index[start:stop].tolist())
        yield "".join(parts)


# The columns of a spectrum row, in CSV order.
_SPECTRUM_COLUMNS = ("omega", "q", "j", "log_weight", "weight", "thermal_log_weight", "valid")


def _spectrum_boxes(grid: SpectrumGrid, thermal, convert=np.asarray):
    """The spectrum's columns box by box: (shape, {name: convert(column)})
    per box of the (omega, q, j) grid, each column broadcast against shape.

    A box is whole omega nodes, about _ROW_CHUNK bins, cut along q (then j)
    where one node holds more, so its bins are consecutive rows. omega, q
    and j are the GridSpec axes; thermal is the baseline's float64 log-weight
    at each omega node, shape (n_omega,), or None for nan on every row. A
    column is cut to the box along the axes it spans and kept whole along
    those it is broadcast over; one that every box takes whole is converted
    once. weight is computed per box, by the rule of SpectrumGrid.weights.
    """
    from .spectrum import exp_weights  # not at the top: the cascade command loads no spectrum code

    spec = grid.grid_spec
    shape = (spec.n_omega, spec.n_q, spec.n_j)
    omega, q, j = spec.axes()
    thermal = np.full(spec.n_omega, np.nan) if thermal is None else thermal
    columns = dict(zip(_SPECTRUM_COLUMNS, (
        omega, q[None], j[None, None], grid.log_weight.reshape(shape), None,
        thermal.reshape(spec.n_omega, 1, 1), grid.valid.reshape(shape))))
    # A box is indices lo:lo + k of `axis`, the whole axes after it and one
    # index of each axis before it.
    axis = next(a for a in range(3) if math.prod(shape[a + 1 :]) <= _ROW_CHUNK)
    k = min(_ROW_CHUNK // math.prod(shape[axis + 1 :]), shape[axis])
    whole = {name: convert(values) for name, values in columns.items()
             if values is not None and max(values.shape[: axis + 1]) == 1}
    for outer in np.ndindex(shape[:axis]):
        for lo in range(0, shape[axis], k):
            box = (*(slice(i, i + 1) for i in outer), slice(lo, lo + k))
            cut = {name: values[tuple(b if n > 1 else slice(None)
                                      for b, n in zip(box, values.shape))]
                   for name, values in columns.items() if values is not None}
            cut["weight"] = exp_weights(cut["log_weight"], cut["valid"])
            yield cut["log_weight"].shape, {
                name: whole[name] if name in whole else convert(cut[name]) for name in columns}


def write_spectrum_csv(path: Path, grid: SpectrumGrid, thermal, manifest_hash: str) -> None:
    """spectrum.csv: floats as "%.16e" (17 significant digits, round-trip
    exact), assembled as bytes box by box (see _spectrum_boxes). Each
    column's cells are broadcast into the box's rows, one byte array of the
    box's shape, so a grid axis is formatted once per value in the box."""
    flag_text = np.array([b"false\n", b"true\n"], dtype="S6").view(np.uint8).reshape(2, 6)

    def cells(values: np.ndarray) -> np.ndarray:
        if values.dtype == np.bool_:
            return flag_text[values.astype(np.intp)]
        return _format_e16(values)[0]

    width = (len(_SPECTRUM_COLUMNS) - 1) * _E16_WIDTH + flag_text.shape[1]
    # One row of cells per row of the file, NUL where a text is shorter than
    # its cell; sized by the first box, the largest, and reused by the rest.
    buffer = bytearray()
    with path.open("wb") as f:
        f.write(f"# manifest_hash={manifest_hash}\n{','.join(_SPECTRUM_COLUMNS)}\n".encode())
        for shape, box in _spectrum_boxes(grid, thermal, cells):
            n_bytes = math.prod(shape) * width
            if n_bytes > len(buffer):
                buffer = bytearray(n_bytes)
            rows = np.frombuffer(buffer, np.uint8, n_bytes).reshape(shape + (width,))
            at = 0
            for column in box.values():
                rows[..., at : at + column.shape[-1]] = column
                at += column.shape[-1]
            del box  # not held while the next box is formatted
            text = buffer if n_bytes == len(buffer) else buffer[:n_bytes]
            f.write(text.translate(None, b"\0"))


def _spectrum_rows(grid: SpectrumGrid, thermal, template=_JSONL_ROW):
    """The spectrum's rows in the row template, box by box (see _spectrum_boxes)."""
    for shape, box in _spectrum_boxes(grid, thermal):
        yield from _json_rows({name: np.broadcast_to(values, shape).ravel()
                               for name, values in box.items()}, template)


def _write_spectrum_jsonl(path: Path, grid: SpectrumGrid, thermal, manifest_hash: str) -> None:
    with path.open("w", encoding="utf-8") as f:
        f.write(_canonical_json({"type": "header", "manifest_hash": manifest_hash}) + "\n")
        f.writelines(_spectrum_rows(grid, thermal))


def _write_spectrum_json(path: Path, grid: SpectrumGrid, thermal, payload: dict) -> None:
    """spectrum.json: json.dumps(payload with "bins", sort_keys=True, indent=2)
    and a newline, bins being one object per row of spectrum.jsonl. The bins
    are streamed as spectrum.jsonl's rows are, between the head and the tail
    of the document dumped with one marker bin in their place."""
    mark = "bins go here"
    text = json.dumps(dict(payload, bins=[mark]), sort_keys=True, indent=2)
    head, _, tail = text.partition("\n    " + json.dumps(mark))
    rows = _spectrum_rows(grid, thermal, _JSON_BIN)
    with path.open("w", encoding="utf-8") as f:
        f.write(head)
        f.write(next(rows)[1:])  # no separator before the first bin
        f.writelines(rows)
        f.write(tail + "\n")
