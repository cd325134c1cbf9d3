"""Column-formatting row writers against the per-row code they replaced.

The oracles below are the old writers, one `%`/`json.dumps` call per value
per row. The new writers format a grid axis once per box of rows (or, for
chains.jsonl, each channel once) and assemble the rows as byte cells, so
the grids here are full of the values that could trip that up: repeats,
-0.0 next to 0.0, nan, +-inf, the widest texts, and columns longer than one
write chunk.
"""

import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from bhspectra import BlackHoleState, CascadePolicy, Family, sample_cascade
from bhspectra import cli, writers
from bhspectra.blackholes import state_to_record
from bhspectra.cascade import _Row, cascade_ensemble_stats
from bhspectra.spectrum import (GridSpec, Normalization, SpectrumGrid, build_spectrum,
                                build_thermal_spectrum)

SPECIAL = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 5e-324, 1.7976931348623157e308])


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _oracle_rows(grid, thermal):
    """One dict per bin; thermal is one value per omega node, or None."""
    spec = grid.grid_spec
    weights = grid.weights()
    bins = itertools.product(enumerate(spec.omega_nodes()), spec.q_values(), spec.j_values())
    for i, ((node, omega), q, j) in enumerate(bins):
        yield {
            "omega": float(omega),
            "q": float(q),
            "j": float(j),
            "log_weight": float(grid.log_weight[i]),
            "weight": float(weights[i]),
            "thermal_log_weight": float(thermal[node]) if thermal is not None else float("nan"),
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


def _oracle_spectrum_json(grid, thermal, payload) -> str:
    bins = list(_oracle_rows(grid, thermal))
    return json.dumps(dict(payload, bins=bins), sort_keys=True, indent=2) + "\n"


def _json_payload(grid) -> dict:
    """The fields cli.cmd_spectrum puts around the bins of spectrum.json."""
    return {"manifest_hash": "abc", "state": state_to_record(grid.source_state),
            "grid_spec": dataclasses.asdict(grid.grid_spec),
            "normalization": grid.normalization.value, "log_norm": grid.log_norm}


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


def _oracle_steps_jsonl(chains, manifest_hash, n_samples, seed) -> str:
    """chains.jsonl of the writer's input, one json.dumps per row: each step
    a (cascade row, channel) pair, the emitted hairs the row's hairs less
    the channel's remnant's."""
    header = {"type": "header", "manifest_hash": manifest_hash, "n_samples": n_samples, "seed": seed}
    out = [_canonical(header) + "\n"]
    for index, steps in chains:
        for step_no, (row, c) in enumerate(steps):
            m, q, j = row.hairs
            out.append(_canonical({
                "sample_index": index, "step": step_no, "omega": m - row.m2[c],
                "q": q - row.q2[c], "j": j - row.j2[c], "mass_before": m,
                "log_weight_raw": row.logw[c], "log_prob_norm": row.logp[c]}) + "\n")
    return "".join(out)


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
    """Random log-weights, special values included, and flags on the bins of
    spec. The log-weights whose weight overflows float64 (inf and the largest
    double) are on invalid bins: a valid one raises, as the package never makes."""
    log_weight = _column(rng, spec.n_bins)
    return SpectrumGrid(
        log_weight=log_weight,
        valid=(rng.random(spec.n_bins) < 0.7) & ~(log_weight > 709.0),
        normalization=Normalization.RAW,
        source_state=KN,
        grid_spec=spec,
    )


def _thermal_column(rng, n_omega: int) -> np.ndarray:
    """A random thermal log-weight per omega node, holding as many of the
    SPECIAL values as fit, in random places."""
    column = _column(rng, n_omega)
    k = min(n_omega, SPECIAL.size)
    column[rng.choice(n_omega, k, replace=False)] = SPECIAL[:k]
    return column


def _per_node(thermal: SpectrumGrid) -> np.ndarray:
    """The column the CLI hands the writers: a thermal grid's value at each omega node."""
    return thermal.log_weight.reshape(thermal.grid_spec.n_omega, -1)[:, 0].copy()


@pytest.mark.parametrize("spec", SPECS, ids=[str(spec.n_bins) for spec in SPECS])
@pytest.mark.parametrize("with_thermal", [True, False])
def test_spectrum_writers_match_per_row_oracle(tmp_path, spec, with_thermal):
    rng = np.random.default_rng(spec.n_bins)
    grid = _grid(rng, spec)
    thermal = _thermal_column(rng, spec.n_omega) if with_thermal else None
    writers.write_spectrum_csv(tmp_path / "s.csv", grid, thermal, "abc")
    assert (tmp_path / "s.csv").read_text() == _oracle_csv(grid, thermal, "abc")
    writers._write_spectrum_jsonl(tmp_path / "s.jsonl", grid, thermal, "abc")
    assert (tmp_path / "s.jsonl").read_text() == _oracle_spectrum_jsonl(grid, thermal, "abc")


@pytest.mark.parametrize("spec", SPECS, ids=[str(spec.n_bins) for spec in SPECS])
@pytest.mark.parametrize("with_thermal", [True, False])
def test_spectrum_json_matches_whole_document_oracle(tmp_path, spec, with_thermal):
    rng = np.random.default_rng(spec.n_bins)
    grid = _grid(rng, spec)
    thermal = _thermal_column(rng, spec.n_omega) if with_thermal else None
    payload = _json_payload(grid)
    writers._write_spectrum_json(tmp_path / "s.json", grid, thermal, payload)
    assert (tmp_path / "s.json").read_text() == _oracle_spectrum_json(grid, thermal, payload)


# The CSV writer holds one chunk of rows and the cells of its columns, plus
# the axes. Measured: 1.63 MB at 2^17 bins, 2.44 MB at 2^19.
@pytest.mark.parametrize("n_omega", [1 << 15, 1 << 17], ids=["2^17-bins", "2^19-bins"])
def test_csv_writer_peak_memory(tmp_path, n_omega):
    state = BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 1.0)
    spec = GridSpec(omega_max=1.5, n_omega=n_omega, q_step=0.25, n_q=4)
    grid = build_spectrum(state, spec, Normalization.UNIT_SUM)
    thermal = _per_node(build_thermal_spectrum(state, spec, Normalization.UNIT_SUM))
    tracemalloc.start()
    try:
        writers.write_spectrum_csv(tmp_path / "s.csv", grid, thermal, "abc")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.9e6


# The JSONL writer holds one chunk of rows and their cells' texts, plus the
# omega axis: no column of n_bins values (24 B per bin for the three axes).
# A short chunk keeps the run under tracemalloc quick and the bound tight.
@pytest.mark.parametrize("with_thermal", [True, False], ids=["thermal", "no-thermal"])
def test_jsonl_writer_peak_memory(tmp_path, monkeypatch, with_thermal):
    monkeypatch.setattr(writers, "_ROW_CHUNK", 1024)
    state = BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 1.0)
    spec = GridSpec(omega_max=1.5, n_omega=1 << 13, q_step=0.25, n_q=4)
    grid = build_spectrum(state, spec, Normalization.UNIT_SUM)
    thermal = (_per_node(build_thermal_spectrum(state, spec, Normalization.UNIT_SUM))
               if with_thermal else None)
    tracemalloc.start()
    try:
        writers._write_spectrum_jsonl(tmp_path / "s.jsonl", grid, thermal, "abc")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1e6


# The JSON writer holds one box of its indented rows, their cells and the
# box's bytes, plus the omega axis, at the box size the CLI writes. Measured
# at 2^17 bins: 2.44 MB with the thermal column, 2.35 MB without; the bound
# is that and ~20%.
@pytest.mark.parametrize("with_thermal", [True, False], ids=["thermal", "no-thermal"])
def test_json_writer_peak_memory(tmp_path, with_thermal):
    state = BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 1.0)
    spec = GridSpec(omega_max=1.5, n_omega=1 << 15, q_step=0.25, n_q=4)
    grid = build_spectrum(state, spec, Normalization.UNIT_SUM)
    thermal = (_per_node(build_thermal_spectrum(state, spec, Normalization.UNIT_SUM))
               if with_thermal else None)
    payload = _json_payload(grid)
    tracemalloc.start()
    try:
        writers._write_spectrum_json(tmp_path / "s.json", grid, thermal, payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.9e6


KN_SPEC = GridSpec(omega_max=1.5, n_omega=2000, q_step=0.125, n_q=3, j_step=-0.125, n_j=3)


def _kn_grids():
    """A Kerr-Newman spectrum and its thermal baseline per node, more rows than a chunk."""
    assert KN_SPEC.n_bins > writers._ROW_CHUNK
    return (build_spectrum(KN, KN_SPEC, Normalization.UNIT_SUM),
            _per_node(build_thermal_spectrum(KN, KN_SPEC, Normalization.UNIT_SUM)))


# Chunk sizes around the 4 x 3 x 7 grid below: runs of j values (1, 5),
# whole j runs of one node (20), whole nodes (21, 22, 100).
@pytest.mark.parametrize("chunk", [1, 5, 20, 21, 22, 100])
def test_csv_writer_chunks_are_boxes_of_the_grid(tmp_path, monkeypatch, chunk):
    spec = GridSpec(omega_max=1.5, n_omega=4, q_step=0.125, n_q=3, j_step=-0.125, n_j=7)
    grid = build_spectrum(KN, spec, Normalization.UNIT_SUM)
    thermal = _per_node(build_thermal_spectrum(KN, spec, Normalization.UNIT_SUM))
    monkeypatch.setattr(writers, "_ROW_CHUNK", chunk)
    for t in (thermal, None):
        writers.write_spectrum_csv(tmp_path / "s.csv", grid, t, "abc")
        assert (tmp_path / "s.csv").read_text() == _oracle_csv(grid, t, "abc")


def _count_formatted(monkeypatch, converter="_format_e16"):
    seen = []
    convert = getattr(writers, converter)

    def counted(values):
        seen.append(np.size(values))
        return convert(values)

    monkeypatch.setattr(writers, converter, counted)
    return seen


def test_csv_writer_formats_grid_axes_once(tmp_path, monkeypatch):
    grid, thermal = _kn_grids()
    seen = _count_formatted(monkeypatch)
    writers.write_spectrum_csv(tmp_path / "s.csv", grid, thermal, "abc")
    assert (tmp_path / "s.csv").read_text() == _oracle_csv(grid, thermal, "abc")
    spec = grid.grid_spec
    assert sum(seen) == 2 * grid.n_bins + 2 * spec.n_omega + spec.n_q + spec.n_j


@pytest.mark.parametrize("suffix", ["jsonl", "json"])
def test_json_writers_format_grid_axes_once(tmp_path, monkeypatch, suffix):
    # As the CSV writer's, and the flags too: log_weight, weight and valid
    # row by row, omega and thermal once per node, q and j once per file.
    grid, thermal = _kn_grids()
    seen = _count_formatted(monkeypatch, "_json_cells")
    path = tmp_path / f"s.{suffix}"
    if suffix == "jsonl":
        writers._write_spectrum_jsonl(path, grid, thermal, "abc")
        want = _oracle_spectrum_jsonl(grid, thermal, "abc")
    else:
        writers._write_spectrum_json(path, grid, thermal, _json_payload(grid))
        want = _oracle_spectrum_json(grid, thermal, _json_payload(grid))
    assert path.read_text() == want
    spec = grid.grid_spec
    assert sum(seen) == 3 * grid.n_bins + 2 * spec.n_omega + spec.n_q + spec.n_j


PER_BIN = ("log_weight", "valid")


def _permuted(grid, order):
    return dataclasses.replace(grid, **{k: getattr(grid, k)[order] for k in PER_BIN})


def _swap(n: int, a: int, b: int) -> np.ndarray:
    order = np.arange(n)
    order[[a, b]] = b, a
    return order


def _set(column, index, value):
    column = column.copy()
    column[index] = value
    return column


# Each case breaks a pattern a writer could lean on, down to one bit: the
# per-bin columns out of grid order, or neighbouring thermal nodes one ulp
# apart, -0.0 beside 0.0 (which == takes for the same value) and a nan.
# Rows 0 and n_q * n_j are the first two of different omega.
NODE = KN_SPEC.n_q * KN_SPEC.n_j
BROKEN = {
    "permuted": lambda g, t: (
        _permuted(g, np.random.default_rng(5).permutation(g.n_bins)),
        t[np.random.default_rng(5).permutation(t.size)],
    ),
    "rows-swapped": lambda g, t: (_permuted(g, _swap(g.n_bins, 0, NODE)), t[_swap(t.size, 0, 1)]),
    "thermal-ulp": lambda g, t: (g, _set(t, 1, np.nextafter(t[0], 0))),
    "thermal-signed-zero": lambda g, t: (g, _set(_set(t, 1, 0.0), 2, -0.0)),
    "thermal-nan": lambda g, t: (g, _set(t, -1, np.nan)),
}


@pytest.mark.parametrize("break_axes", BROKEN.values(), ids=BROKEN.keys())
def test_csv_writer_checks_each_axis_bit_for_bit(tmp_path, monkeypatch, break_axes):
    grid, thermal = break_axes(*_kn_grids())
    seen = _count_formatted(monkeypatch)
    writers.write_spectrum_csv(tmp_path / "s.csv", grid, thermal, "abc")
    assert (tmp_path / "s.csv").read_text() == _oracle_csv(grid, thermal, "abc")
    # However its nodes' bits are broken, the thermal column is formatted
    # once per node, as the grid axes are.
    spec = grid.grid_spec
    assert sum(seen) == 2 * grid.n_bins + 2 * spec.n_omega + spec.n_q + spec.n_j


def _fake_chains(rng, n_chains: int) -> list:
    """The writer's input over 20 cascade rows of one to three channels full
    of special values: (sample index, steps) per chain, the steps sharing
    rows and channels."""
    rows = []
    for _ in range(20):
        k = int(rng.integers(1, 4))
        values = _column(rng, 3 + 5 * k).tolist()  # Python floats, as a cascade row holds
        cells = (tuple(values[3 + i * k:3 + (i + 1) * k]) for i in range(5))
        rows.append(_Row((k, 0, 0), tuple(values[:3]), ((0, 0, 0),) * k, *cells, ()))
    chains = []
    for index, n_steps in enumerate(rng.integers(0, 40, size=n_chains).tolist()):
        picks = rng.integers(0, len(rows), size=n_steps).tolist()
        chains.append((index, [(rows[r], int(rng.integers(0, rows[r].key[0]))) for r in picks]))
    return chains


def _write_chains_jsonl(path, chains, manifest_hash, n_samples, seed) -> None:
    with cli._ChainsJsonl(path, manifest_hash, n_samples, seed) as out:
        for index, steps in chains:
            out.write(index, steps)


def _write_ensemble_chains(path, state, policy, n_samples, seed) -> None:
    """chains.jsonl of a per-sample ensemble, each chain handed to the writer
    as the CLI hands it."""
    with cli._ChainsJsonl(path, "abc", n_samples, seed) as out:
        cascade_ensemble_stats(state, policy, n_samples, seed, on_chain=out.write)


def test_chains_writer_matches_per_row_oracle_on_special_values(tmp_path):
    chains = _fake_chains(np.random.default_rng(1), 900)
    assert sum(len(steps) for _, steps in chains) > 3 * cli._JSONL_BLOCK
    _write_chains_jsonl(tmp_path / "c.jsonl", chains, "abc", 900, 7)
    assert (tmp_path / "c.jsonl").read_text() == _oracle_steps_jsonl(chains, "abc", 900, 7)


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
        # Signed zeros: every state but the initial one carries the pinned
        # 0.0, so only step 0 emits "q":-0.0 (or "j":-0.0).
        (BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, -0.0),
         CascadePolicy(energy_quantum=0.125, charge_quantum=0.125)),
        (BlackHoleState(Family.KERR_NEWMAN, 2.0, 0.5, -0.0),
         CascadePolicy(energy_quantum=0.125, charge_quantum=0.125, spin_quantum=0.125)),
    ],
    ids=["schw", "rn", "kn-alpha", "rn-stuck", "rn-minus-zero-q", "kn-minus-zero-j"],
)
def test_chains_writer_matches_per_row_oracle_on_sampled_chains(tmp_path, state, policy):
    # The CLI's many-chain walk against 30 one-chain walks, row by row.
    chains = [sample_cascade(state, policy, 3, i) for i in range(30)]
    _write_ensemble_chains(tmp_path / "c.jsonl", state, policy, 30, 3)
    assert (tmp_path / "c.jsonl").read_text() == _oracle_chains_jsonl(chains, "abc", 30, 3)


def test_chains_writer_matches_per_row_oracle_across_blocks(tmp_path):
    # 64 quanta and 1030 samples: the rows fill several of the writer's blocks.
    state, policy = BlackHoleState(Family.SCHWARZSCHILD, 4.0), CascadePolicy(energy_quantum=0.0625)
    _write_ensemble_chains(tmp_path / "c.jsonl", state, policy, 1030, 11)
    chains = [sample_cascade(state, policy, 11, i) for i in range(1030)]
    assert sum(chain.n_steps for chain in chains) > 2 * cli._JSONL_BLOCK
    assert (tmp_path / "c.jsonl").read_text() == _oracle_chains_jsonl(chains, "abc", 1030, 11)


def test_chains_writer_keeps_a_zero_hair_sign_after_its_twin_state(tmp_path):
    # BlackHoleState(..., -0.0) == BlackHoleState(..., 0.0): the table cached
    # for one must not serve the other, whose initial row differs.
    policy = CascadePolicy(energy_quantum=0.125, charge_quantum=0.125)
    for q in (0.0, -0.0, 0.0):
        _write_ensemble_chains(tmp_path / "c.jsonl",
                               BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, q), policy, 5, 1)
        step0 = json.loads((tmp_path / "c.jsonl").read_text().splitlines()[1])
        assert np.signbit(step0["q"]) == np.signbit(q)


def test_chains_writer_with_no_steps(tmp_path):
    _write_chains_jsonl(tmp_path / "c.jsonl", [(0, [])], "abc", 1, 0)
    assert (tmp_path / "c.jsonl").read_text() == _oracle_steps_jsonl([(0, [])], "abc", 1, 0)


@pytest.mark.parametrize("dtype", [np.float64, np.bool_])
def test_json_cells_match_json_dumps_on_every_kind_of_value(dtype):
    rng = np.random.default_rng(12)
    if dtype is np.bool_:
        values = np.array([True, False])
    else:
        # Random bit patterns cover every exponent, subnormals, nan payloads
        # and infinities; the edges hold the widest texts, which a cell too
        # narrow would cut.
        bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 20_000,
                            dtype=np.int64, endpoint=True)
        edges = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                          np.finfo(np.float64).max, 1.0, 0.1, 1e16, 1e-5,
                          -1.2345678901234567e-308, -2.2250738585072014e-308])
        values = np.concatenate([edges, bits.view(np.float64)])
    want = [json.dumps(v) for v in values.tolist()]
    cells = writers._json_cells(values)
    assert cells.dtype == np.uint8 and cells.shape[:-1] == values.shape
    assert [cell.tobytes().rstrip(b"\0").decode() for cell in cells] == want
    # A column shaped as a grid axis keeps its shape, each cell as wide as its widest text.
    column = writers._json_cells(values[:2].reshape(2, 1, 1))
    assert column.shape == (2, 1, 1, max(map(len, want[:2])))
    assert [cell.tobytes().rstrip(b"\0").decode() for cell in column.reshape(2, -1)] == want[:2]


def test_e16_power_tables_match_the_exact_construction():
    # The construction the tables were first built with: 10^s as an exact
    # ratio of integers, each float an int / int division.
    hi, lo = [], []
    for s in range(writers._POW_MIN, writers._POW_MAX + 1):
        num, den = 10 ** max(s, 0), 10 ** max(-s, 0)
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    got_hi, got_lo, _ = writers._e16_tables()
    assert got_hi.dtype == got_lo.dtype == np.float64
    assert got_hi.tobytes() == np.array(hi).tobytes()
    assert got_lo.tobytes() == np.array(lo).tobytes()


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
