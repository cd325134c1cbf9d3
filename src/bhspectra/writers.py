"""The CLI's numpy writers of spectrum.csv, spectrum.jsonl and spectrum.json,
imported only by the spectrum command. A file's rows are one layout of
byte cells, assembled box by box by _spectrum_bytes: CSV floats are
"%.16e" built as bytes, JSON floats float.__repr__'s text. (The cascade
command's chains.jsonl writer, cli._ChainsJsonl, loads no numpy.)"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

from .blackholes import _two_prod
from .cli import _JSON_NONFINITE, _canonical_json

# Rows formatted and written at a time: bounds the memory a writer holds.
_ROW_CHUNK = 4096


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


# The columns of a spectrum row, in CSV order.
_SPECTRUM_COLUMNS = ("omega", "q", "j", "log_weight", "weight", "thermal_log_weight", "valid")


def _spectrum_boxes(grid: SpectrumGrid, thermal, convert):
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


# The cells of a flag: CSV's end its row, JSON's are json.dumps's.
_CSV_FLAGS = np.array([b"false\n", b"true\n"]).view(np.uint8).reshape(2, -1)
_JSON_FLAGS = np.array([b"false", b"true"]).view(np.uint8).reshape(2, -1)


def _csv_cells(values: np.ndarray) -> np.ndarray:
    """The CSV cells of a column: "%.16e," per float, or a flag and the newline."""
    if values.dtype == np.bool_:
        return _CSV_FLAGS[values.astype(np.intp)]
    return _format_e16(values)[0]


def _json_cells(values: np.ndarray) -> np.ndarray:
    """json.dumps's text of every value of a float64 or bool array, as byte
    cells of shape values.shape + (width,), NUL-padded to the widest text.
    A float takes the text json.encoder gives it, with no call per value:
    float.__repr__, or NaN, Infinity and -Infinity."""
    if values.dtype == np.bool_:
        return _JSON_FLAGS[values.astype(np.intp)]
    texts = list(map(float.__repr__, values.ravel().tolist()))
    if not np.isfinite(values).all():
        texts = [_JSON_NONFINITE.get(t, t) for t in texts]
    return np.array(texts, dtype="S").view(np.uint8).reshape(values.shape + (-1,))


def _json_layout(start: str, between: str, colon: str, end: str) -> list:
    """The layout of a JSON object of the spectrum's columns, keys sorted:
    start, each key, colon and cell, between after each cell but the last,
    then end."""
    layout = []
    for name in sorted(_SPECTRUM_COLUMNS):
        layout += [f'{between if layout else start}"{name}"{colon}'.encode(), name]
    return [*layout, end.encode()]


# A row's layout: column names, whose cells the converter makes, and the
# constant byte pieces between them, in file order. A CSV row is
# _SPECTRUM_COLUMNS, whose cells carry their separators; a spectrum.jsonl row is
# compact, one per line; a spectrum.json bin is json.dumps's indent-2 object
# at depth 2, after the separator from the bin before it.
_JSONL_LAYOUT = _json_layout("{", ",", ":", "}\n")
_JSON_LAYOUT = _json_layout(",\n    {\n      ", ",\n      ", ": ", "\n    }")


def _spectrum_bytes(grid: SpectrumGrid, thermal, layout: list, convert):
    """The bytes of the spectrum's rows in layout, one bytearray per box of
    _spectrum_boxes, each column converted to byte cells once per box.

    The cells and pieces are broadcast into the box's rows, one byte array
    of the box's shape, NUL where a text is shorter than its cell; the NULs
    are dropped. The array is reused while the boxes' sizes agree (a CSV
    row's width is fixed, a JSON row's changes with its cells'), and
    replaced by one of the box's size when they do not.
    """
    layout = [p if isinstance(p, str) else np.frombuffer(p, np.uint8) for p in layout]
    buffer = bytearray()
    for shape, box in _spectrum_boxes(grid, thermal, convert):
        parts = [box[p] if isinstance(p, str) else p for p in layout]
        width = sum(part.shape[-1] for part in parts)
        n_bytes = math.prod(shape) * width
        if n_bytes != len(buffer):
            buffer = bytearray(n_bytes)
        rows = np.frombuffer(buffer, np.uint8).reshape(shape + (width,))
        at = 0
        for part in parts:
            rows[..., at : at + part.shape[-1]] = part
            at += part.shape[-1]
        del box, parts, rows  # not held while the next box is converted
        yield buffer.translate(None, b"\0")


def write_spectrum_csv(path: Path, grid: SpectrumGrid, thermal, manifest_hash: str) -> None:
    """spectrum.csv: floats as "%.16e" (17 significant digits, round-trip
    exact), flags as false and true."""
    with path.open("wb") as f:
        f.write(f"# manifest_hash={manifest_hash}\n{','.join(_SPECTRUM_COLUMNS)}\n".encode())
        f.writelines(_spectrum_bytes(grid, thermal, _SPECTRUM_COLUMNS, _csv_cells))


def _write_spectrum_jsonl(path: Path, grid: SpectrumGrid, thermal, manifest_hash: str) -> None:
    with path.open("wb") as f:
        f.write(_canonical_json({"type": "header", "manifest_hash": manifest_hash}).encode() + b"\n")
        f.writelines(_spectrum_bytes(grid, thermal, _JSONL_LAYOUT, _json_cells))


def _write_spectrum_json(path: Path, grid: SpectrumGrid, thermal, payload: dict) -> None:
    """spectrum.json: json.dumps(payload with "bins", sort_keys=True, indent=2)
    and a newline, bins being one object per row of spectrum.jsonl. The bins
    are streamed as spectrum.jsonl's rows are, between the head and the tail
    of the document dumped with one marker bin in their place."""
    mark = "bins go here"
    text = json.dumps(dict(payload, bins=[mark]), sort_keys=True, indent=2)
    head, _, tail = text.partition("\n    " + json.dumps(mark))
    rows = _spectrum_bytes(grid, thermal, _JSON_LAYOUT, _json_cells)
    with path.open("wb") as f:
        f.write(head.encode())
        f.write(memoryview(next(rows))[1:])  # no separator before the first bin
        f.writelines(rows)
        f.write(tail.encode() + b"\n")
