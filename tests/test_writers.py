"""Column-formatting row writers against the per-row code they replaced.

The oracles below are the old writers, one `%`/`json.dumps` call per value
per row. The new writers format each distinct value of a column once, so
the grids here are full of the values that could trip that up: repeats,
-0.0 next to 0.0, nan, +-inf, and columns longer than one write chunk.
"""

import dataclasses
import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from bhspectra import BlackHoleState, CascadePolicy, Family, sample_cascade
from bhspectra import writers
from bhspectra.cascade import sample_ensemble
from bhspectra.grids import GridSpec, Normalization, SpectrumGrid
from bhspectra.spectrum import build_spectrum, build_thermal_spectrum

SPECIAL = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 5e-324, 1.7976931348623157e308])


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _oracle_rows(grid, thermal):
    spec = grid.grid_spec
    weights = grid.weights()
    bins = itertools.product(spec.omega_nodes(), spec.q_values(), spec.j_values())
    for i, (omega, q, j) in enumerate(bins):
        yield {
            "omega": float(omega),
            "q": float(q),
            "j": float(j),
            "log_weight": float(grid.log_weight[i]),
            "weight": float(weights[i]),
            "thermal_log_weight": float(thermal.log_weight[i]) if thermal else float("nan"),
            "valid": bool(grid.valid[i]),
        }


def _oracle_csv(grid, thermal, manifest_hash) -> str:
    out = [f"# manifest_hash={manifest_hash}\n", "omega,q,j,log_weight,weight,thermal_log_weight,valid\n"]
    for row in _oracle_rows(grid, thermal):
        cells = [
            "%.16e" % row[k]
            for k in ("omega", "q", "j", "log_weight", "weight", "thermal_log_weight")
        ]
        out.append(",".join([*cells, "true" if row["valid"] else "false"]) + "\n")
    return "".join(out)


def _oracle_spectrum_jsonl(grid, thermal, manifest_hash) -> str:
    out = [_canonical({"type": "header", "manifest_hash": manifest_hash}) + "\n"]
    out.extend(_canonical(row) + "\n" for row in _oracle_rows(grid, thermal))
    return "".join(out)


def _oracle_chains_jsonl(chains, manifest_hash, n_samples, seed) -> str:
    header = {"type": "header", "manifest_hash": manifest_hash, "n_samples": n_samples, "seed": seed}
    out = [_canonical(header) + "\n"]
    for index, chain in enumerate(chains):
        mass_before = chain.initial.m
        for step_no, step in enumerate(chain.steps):
            out.append(
                _canonical(
                    {
                        "sample_index": index,
                        "step": step_no,
                        "omega": step.emission.omega,
                        "q": step.emission.q,
                        "j": step.emission.j,
                        "mass_before": mass_before,
                        "log_weight_raw": step.log_weight,
                        "log_prob_norm": step.log_prob,
                    }
                )
                + "\n"
            )
            mass_before = step.state_after.m
    return "".join(out)


def _chain_columns(chains) -> dict:
    """The writer's step columns, flattened from chain objects step by step."""
    rows = []
    for index, chain in enumerate(chains):
        mass_before = chain.initial.m
        for step_no, step in enumerate(chain.steps):
            e = step.emission
            rows.append(
                (index, step_no, e.omega, e.q, e.j, mass_before, step.log_weight, step.log_prob)
            )
            mass_before = step.state_after.m
    names = (
        "sample_index", "step", "omega", "q", "j", "mass_before", "log_weight_raw", "log_prob_norm"
    )
    dtypes = (np.int64, np.int64) + (np.float64,) * 6
    values = list(zip(*rows)) or [()] * len(names)
    return {name: np.array(v, dtype=dtype) for name, dtype, v in zip(names, dtypes, values)}


def _column(rng, n: int) -> np.ndarray:
    """Random floats drawn from a small pool, so values repeat, plus specials."""
    pool = np.concatenate([SPECIAL, rng.normal(scale=100.0, size=50), rng.normal(size=n)])
    return pool[rng.integers(0, pool.size, size=n)]


KN = BlackHoleState(Family.KERR_NEWMAN, 2.0, 0.5, 0.5)

# Grids of 1, 7, 1000 and one write chunk + 3 bins. Their axes hold -0.0
# (a negative step times 0), subnormals and values past 1e280, which the
# CSV writer formats with `%`. The CSV writer's chunks are whole omega nodes:
# the last two grids have n_q * n_j = 21, which does not divide the chunk,
# and n_q * n_j above the chunk, which splits each node along q.
SPECS = [
    GridSpec(omega_max=1.0, n_omega=1),
    GridSpec(omega_max=2.0, n_omega=7, omega_min=0.5),
    GridSpec(omega_max=1.5, n_omega=10, q_step=-0.5, n_q=10, j_step=5e-324, n_j=10),
    GridSpec(omega_max=1e300, n_omega=writers._ROW_CHUNK + 3),
    GridSpec(omega_max=1.5, n_omega=800, q_step=0.125, n_q=3, j_step=-0.25, n_j=7),
    GridSpec(omega_max=1.5, n_omega=2, q_step=-0.5, n_q=130, j_step=0.25, n_j=130),
]


def _grid(rng, spec: GridSpec) -> SpectrumGrid:
    """Random log-weights, special values included, and flags on the bins of spec."""
    return SpectrumGrid(
        log_weight=_column(rng, spec.n_bins),
        valid=rng.random(spec.n_bins) < 0.7,
        normalization=Normalization.RAW,
        source_state=KN,
        grid_spec=spec,
    )


# exp of the huge log-weights drawn here overflows to inf, as it should.
@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
@pytest.mark.parametrize("spec", SPECS, ids=[str(spec.n_bins) for spec in SPECS])
@pytest.mark.parametrize("with_thermal", [True, False])
def test_spectrum_writers_match_per_row_oracle(tmp_path, spec, with_thermal):
    rng = np.random.default_rng(spec.n_bins)
    grid = _grid(rng, spec)
    thermal = _grid(rng, spec) if with_thermal else None
    writers.write_spectrum_csv(tmp_path / "s.csv", grid, thermal, "abc")
    assert (tmp_path / "s.csv").read_text() == _oracle_csv(grid, thermal, "abc")
    writers._write_spectrum_jsonl(tmp_path / "s.jsonl", grid, thermal, "abc")
    assert (tmp_path / "s.jsonl").read_text() == _oracle_spectrum_jsonl(grid, thermal, "abc")


KN_SPEC = GridSpec(omega_max=1.5, n_omega=2000, q_step=0.125, n_q=3, j_step=-0.125, n_j=3)


def _kn_grids():
    """A Kerr-Newman spectrum and its thermal baseline, more rows than a chunk."""
    assert KN_SPEC.n_bins > writers._ROW_CHUNK
    return (build_spectrum(KN, KN_SPEC, Normalization.UNIT_SUM),
            build_thermal_spectrum(KN, KN_SPEC, Normalization.UNIT_SUM))


# Chunk sizes around the 4 x 3 x 7 grid below: runs of j values (1, 5),
# whole j runs of one node (20), whole nodes (21, 22, 100).
@pytest.mark.parametrize("chunk", [1, 5, 20, 21, 22, 100])
def test_csv_writer_chunks_are_boxes_of_the_grid(tmp_path, monkeypatch, chunk):
    spec = GridSpec(omega_max=1.5, n_omega=4, q_step=0.125, n_q=3, j_step=-0.125, n_j=7)
    grid = build_spectrum(KN, spec, Normalization.UNIT_SUM)
    thermal = build_thermal_spectrum(KN, spec, Normalization.UNIT_SUM)
    monkeypatch.setattr(writers, "_ROW_CHUNK", chunk)
    for t in (thermal, None):
        writers.write_spectrum_csv(tmp_path / "s.csv", grid, t, "abc")
        assert (tmp_path / "s.csv").read_text() == _oracle_csv(grid, t, "abc")


PER_BIN = ("log_weight", "valid")


def _permuted(grid, order):
    return dataclasses.replace(grid, **{k: getattr(grid, k)[order] for k in PER_BIN})


def _swap(n: int, a: int, b: int) -> np.ndarray:
    order = np.arange(n)
    order[[a, b]] = b, a
    return order


def _set(grid, field, index, value):
    column = getattr(grid, field).copy()
    column[index] = value
    return dataclasses.replace(grid, **{field: column})


# omega, q and j come from the grid's GridSpec, so the thermal baseline is
# the one column that can break its axis pattern: each case breaks it, down
# to one bit. Rows 0 and n_q * n_j are the first two of different omega.
# -0.0 in a node of 0.0 (which == takes for the same value) and one nan in a
# node must break it too, so the pattern is compared bit for bit.
NODE = KN_SPEC.n_q * KN_SPEC.n_j
BROKEN = {
    "permuted": lambda g, t: (
        _permuted(g, np.random.default_rng(5).permutation(g.n_bins)),
        _permuted(t, np.random.default_rng(5).permutation(g.n_bins)),
    ),
    "rows-swapped": lambda g, t: (
        _permuted(g, _swap(g.n_bins, 0, NODE)),
        _permuted(t, _swap(g.n_bins, 0, NODE)),
    ),
    "thermal-ulp": lambda g, t: (g, _set(t, "log_weight", 1, np.nextafter(t.log_weight[1], 0))),
    "thermal-signed-zero": lambda g, t: (
        g, _set(_set(t, "log_weight", slice(NODE, 2 * NODE), 0.0), "log_weight", NODE + 1, -0.0)),
    "thermal-nan": lambda g, t: (g, _set(t, "log_weight", -1, np.nan)),
}


def _count_formatted(monkeypatch):
    seen = []
    format_e16 = writers._format_e16

    def counted(values):
        seen.append(np.size(values))
        return format_e16(values)

    monkeypatch.setattr(writers, "_format_e16", counted)
    return seen


def test_csv_writer_formats_grid_axes_once(tmp_path, monkeypatch):
    grid, thermal = _kn_grids()
    seen = _count_formatted(monkeypatch)
    writers.write_spectrum_csv(tmp_path / "s.csv", grid, thermal, "abc")
    assert (tmp_path / "s.csv").read_text() == _oracle_csv(grid, thermal, "abc")
    spec = grid.grid_spec
    assert sum(seen) == 2 * grid.n_bins + 2 * spec.n_omega + spec.n_q + spec.n_j


@pytest.mark.parametrize("break_axes", BROKEN.values(), ids=BROKEN.keys())
def test_csv_writer_checks_each_axis_bit_for_bit(tmp_path, monkeypatch, break_axes):
    grid, thermal = break_axes(*_kn_grids())
    seen = _count_formatted(monkeypatch)
    writers.write_spectrum_csv(tmp_path / "s.csv", grid, thermal, "abc")
    assert (tmp_path / "s.csv").read_text() == _oracle_csv(grid, thermal, "abc")
    # At least one column went through the formatter row by row.
    assert sum(seen) >= 3 * grid.n_bins


def _fake_chain(rng, n_steps: int):
    values = _column(rng, 6 * n_steps + 1)
    steps = [
        SimpleNamespace(
            emission=SimpleNamespace(omega=values[6 * k], q=values[6 * k + 1], j=values[6 * k + 2]),
            state_after=SimpleNamespace(m=values[6 * k + 3]),
            log_weight=values[6 * k + 4],
            log_prob=values[6 * k + 5],
        )
        for k in range(n_steps)
    ]
    return SimpleNamespace(initial=SimpleNamespace(m=values[-1]), steps=steps)


def _write_chains_jsonl(path, chunks, manifest_hash, n_samples, seed) -> None:
    with writers._ChainsJsonl(path, manifest_hash, n_samples, seed) as out:
        for columns in chunks:
            out.write(columns)


def test_chains_writer_matches_per_row_oracle_on_special_values(tmp_path):
    rng = np.random.default_rng(1)
    chains = [_fake_chain(rng, int(k)) for k in rng.integers(0, 40, size=900)]
    assert sum(len(c.steps) for c in chains) > writers._ROW_CHUNK
    _write_chains_jsonl(tmp_path / "c.jsonl", [_chain_columns(chains)], "abc", len(chains), 7)
    assert (tmp_path / "c.jsonl").read_text() == _oracle_chains_jsonl(chains, "abc", len(chains), 7)


@pytest.mark.parametrize(
    "state,policy",
    [
        (BlackHoleState(Family.SCHWARZSCHILD, 2.0), CascadePolicy(energy_quantum=0.125)),
        (
            BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 1.0),
            CascadePolicy(energy_quantum=0.125, charge_quantum=0.125),
        ),
        (
            BlackHoleState(Family.KERR_NEWMAN, 2.0, 0.5, 0.5, alpha=1.5),
            CascadePolicy(energy_quantum=0.125, stop_mass=0.5, charge_quantum=0.125,
                          spin_quantum=0.125),
        ),
        # No charge channel: chains make partial progress, then stick.
        (BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 0.875), CascadePolicy(energy_quantum=0.25)),
    ],
    ids=["schw", "rn", "kn-alpha", "rn-stuck"],
)
def test_chains_writer_matches_per_row_oracle_on_sampled_chains(tmp_path, state, policy):
    # The CLI's many-chain walk against 30 one-chain walks, row by row.
    chains = [sample_cascade(state, policy, 3, i) for i in range(30)]
    chunks = []
    sample_ensemble(state, policy, 30, 3, chunks.append)
    _write_chains_jsonl(tmp_path / "c.jsonl", chunks, "abc", 30, 3)
    assert (tmp_path / "c.jsonl").read_text() == _oracle_chains_jsonl(chains, "abc", 30, 3)


def test_chains_writer_with_no_steps(tmp_path):
    chains = [SimpleNamespace(initial=SimpleNamespace(m=1.0), steps=[])]
    _write_chains_jsonl(tmp_path / "c.jsonl", [_chain_columns(chains)], "abc", 1, 0)
    assert (tmp_path / "c.jsonl").read_text() == _oracle_chains_jsonl(chains, "abc", 1, 0)


def test_format_column_keeps_signed_zero_and_order():
    values = np.array([0.0, -0.0, np.nan, 0.0, -np.nan, -0.0, np.inf])
    for fmt in ("%.16e".__mod__, json.dumps):
        texts, index = writers._format_column(values, fmt)
        assert [texts[i] for i in index.tolist()] == [fmt(v) for v in values.tolist()]
        assert len(texts) == 5  # 0.0, -0.0, nan, -nan, inf


def test_e16_digit_table_matches_the_string_built_table():
    want = np.frombuffer("".join(f"{i:04d}" for i in range(10_000)).encode(), np.uint32)
    digits = writers._e16_tables()[2]
    assert digits.dtype == want.dtype and digits.shape == want.shape
    assert digits.tobytes() == want.tobytes()


def _e16_edge_cases() -> np.ndarray:
    """Values where a "%.16e" formatter can go wrong, both signs."""
    from decimal import Decimal

    rng = np.random.default_rng(6)
    # Exact ties at the 18th significant digit: m / 2^(17 - e), m odd, in
    # [10^e, 10^(e + 1)) is (k + 1/2) 10^(e - 16) for an integer k.
    ties = []
    for e in range(-7, 16):
        for f in rng.uniform(1.0, 10.0, size=40):
            m = int(f * 10.0**e * 2.0 ** (17 - e)) | 1
            x = m / 2 ** (17 - e)
            digits = Decimal(x).as_tuple().digits
            if m < 2**53 and len(digits) == 18 and digits[-1] == 5:
                ties.append(x)
    assert len(ties) > 500
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    bounds = np.array([1e-280, 1e280, 2.2250738585072014e-308, 5e-324, 1.7976931348623157e308])
    near = np.concatenate([powers, bounds])
    exps = [m * 10.0**k for k in (-101, -100, -99, -98, 98, 99, 100, 101)
            for m in (1.0, 1.5, 9.999999999999999, *rng.uniform(1, 10, size=20))]
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        up = np.nextafter(near, np.inf)
    values = np.concatenate([
        ties, near, np.nextafter(near, 0.0), up, exps,
        [0.0, np.inf, np.nan, np.finfo(np.float64).tiny],
    ])
    nan_payloads = np.array([0x7FF8000000000001, 0x7FF0000000000001, 0xFFF8000000000000],
                            dtype=np.uint64).view(np.float64)
    return np.concatenate([values, -values, nan_payloads])


def test_format_e16_matches_percent_formatting():
    rng = np.random.default_rng(2017)
    # Random bit patterns: every exponent, both signs, nan payloads, subnormals.
    bits = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64, endpoint=False)
    values = np.concatenate([bits.view(np.float64), _e16_edge_cases()])
    cells, fallback = writers._format_e16(values)
    got = cells[cells != 0].tobytes()
    want = ("%.16e," * len(values) % tuple(values.tolist())).encode()
    if got != want:
        got, want = got.split(b","), want.split(b",")
        bad = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        pytest.fail(f"{values[bad]!r}: {got[bad]!r} != {want[bad]!r}")
    # Only out-of-range magnitudes and a sliver of the rest take `%`.
    magnitude = np.abs(values)
    in_range = (magnitude >= writers._E16_MIN) & (magnitude <= writers._E16_MAX)
    assert np.count_nonzero(fallback & in_range) < 0.01 * np.count_nonzero(in_range)
    assert not fallback[~np.isfinite(values) | (values == 0)].any()
