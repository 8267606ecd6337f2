"""Dataset assembly: sensor/query grids, interpolation exactness, split
bookkeeping, per-trajectory provenance, and the measurement-noise model."""

import numpy as np
import pytest

from gridonet.dataset import (
    SplitSpec,
    add_input_noise,
    build_test,
    build_train,
    query_mesh,
    sensor_times,
    split_pools,
    trajectory_rng,
)
from gridonet.gridsim import FaultScenario, Trajectory

GRID = (np.arange(900) + 1) * (1.0 / 100.0)  # the simulator's time grid


def make_traj(traj_id, values, times=GRID, kind="N1"):
    sc = FaultScenario(kind=kind, tripped=(3,) if kind == "N1" else (3, 4), t_f=1.6)
    return Trajectory(
        traj_id=traj_id, scenario=sc, bus_id=4,
        times=np.asarray(times, dtype=float),
        values=np.asarray(values, dtype=float),
    )


def test_sensors_land_on_the_sampling_grid():
    spec = SplitSpec()
    st = sensor_times(spec)
    assert st.shape == (200,)
    assert st[0] == 0.01 and st[-1] == 2.0
    rng = np.random.default_rng(0)
    tr = make_traj(0, rng.uniform(0.8, 1.1, size=900))
    U, _, _ = build_train([tr], spec, seed=0)
    # at the default rates every sensor coincides with a recorded sample
    assert np.array_equal(U[0], tr.values[:200])


def test_constant_trajectory_targets():
    tr = make_traj(0, np.ones(900))
    U, Y, G = build_train([tr], SplitSpec(queries=5), seed=1)
    assert U.shape == (5, 200) and Y.shape == G.shape == (5, 1)
    assert np.all(G == 1.0)
    U, _, G = build_test([tr], SplitSpec())
    assert np.all(U == 1.0) and np.all(G == 1.0)


def test_midpoint_interpolation():
    spec = SplitSpec()
    y = query_mesh(spec)[0]
    times = np.array([0.0, y - 0.007, y + 0.007, 9.0])
    values = np.array([0.9, 0.9, 1.1, 1.1])
    _, _, G = build_test([make_traj(0, values, times=times)], spec)
    assert abs(G[0, 0] - 1.0) < 1e-9


def test_query_mesh_shape():
    mesh = query_mesh(SplitSpec())
    assert mesh.shape == (500,)
    assert mesh[0] > 2.0
    assert mesh[-1] == 9.0
    assert np.all(np.diff(mesh) > 0)
    pool = [make_traj(i, np.full(900, 0.9 + 0.01 * i)) for i in range(3)]
    U, test_mesh, G = build_test(pool, SplitSpec())
    assert U.shape == (3, 200) and test_mesh.shape == (500,) and G.shape == (3, 500)
    assert np.array_equal(test_mesh, mesh)
    assert np.array_equal(G[:, 0], [0.9 + 0.01 * i for i in range(3)])  # pool order


def test_affine_trajectory_is_interpolated_exactly():
    tr = make_traj(0, 0.3 + 0.05 * GRID)
    _, mesh, G = build_test([tr], SplitSpec())
    assert np.allclose(G, 0.3 + 0.05 * mesh, rtol=0, atol=1e-12)
    _, Y, G = build_train([tr], SplitSpec(queries=20), seed=3)
    assert np.max(np.abs(G - (0.3 + 0.05 * Y))) < 1e-12
    assert np.all((2.0 < Y) & (Y <= 9.0))


def _light_pool(ids, kind):
    times = np.array([0.0, 9.0])
    values = np.array([1.0, 1.0])
    return [make_traj(i, values, times=times, kind=kind) for i in ids]


def test_split_counts_and_id_disjointness():
    n1 = _light_pool(range(1000), "N1")
    n2 = _light_pool(range(1000, 2000), "N2")
    train, test = split_pools(n1, n2, 0.7, seed=9)
    assert len(train) == 1400 and len(test) == 600
    tr_ids = {t.traj_id for t in train}
    te_ids = {t.traj_id for t in test}
    assert tr_ids.isdisjoint(te_ids)
    assert tr_ids | te_ids == set(range(2000))


def test_split_is_deterministic_and_shuffled():
    n1 = _light_pool(range(50), "N1")
    n2 = _light_pool(range(50, 100), "N2")
    a_train, a_test = split_pools(n1, n2, 0.7, seed=4)
    b_train, b_test = split_pools(n1, n2, 0.7, seed=4)
    assert [t.traj_id for t in a_train] == [t.traj_id for t in b_train]
    assert [t.traj_id for t in a_test] == [t.traj_id for t in b_test]
    c_train, _ = split_pools(n1, n2, 0.7, seed=5)
    assert [t.traj_id for t in a_train] != [t.traj_id for t in c_train]
    # the shuffle actually mixes the pools
    assert any(t.scenario.kind == "N2" for t in a_train[:70])


def test_split_rejects_degenerate_fractions():
    n1 = _light_pool(range(3), "N1")
    n2 = _light_pool(range(3, 6), "N2")
    with pytest.raises(ValueError):
        split_pools(n1, n2, 0.01, seed=0)
    with pytest.raises(ValueError):
        split_pools([], n2, 0.7, seed=0)


def test_build_train_determinism():
    rng = np.random.default_rng(8)
    pool = [make_traj(i, rng.uniform(0.8, 1.1, 900)) for i in range(5)]
    a = build_train(pool, SplitSpec(queries=4), seed=21)
    b = build_train(pool, SplitSpec(queries=4), seed=21)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = build_train(pool, SplitSpec(queries=4), seed=22)
    assert not np.array_equal(a[1], c[1])


def test_queries_nest_across_Q():
    rng = np.random.default_rng(13)
    pool = [make_traj(i, rng.uniform(0.8, 1.1, 900)) for i in range(4)]
    small = build_train(pool, SplitSpec(queries=3), seed=6)
    large = build_train(pool, SplitSpec(queries=10), seed=6)

    def by_input(rows):
        """The query times of each input function, keyed by its U row."""
        out = {}
        for u, y in zip(rows[0], rows[1][:, 0]):
            out.setdefault(u.tobytes(), set()).add(y)
        return out

    big = by_input(large)
    assert len(big) == len(pool)
    for u, ys in by_input(small).items():
        assert ys <= big[u]


def test_sample_provenance():
    rng = np.random.default_rng(30)
    tr = make_traj(17, rng.uniform(0.8, 1.1, 900), kind="N2")
    seed = 41
    _, Y, G = build_train([tr], SplitSpec(queries=6), seed=seed)
    ys = trajectory_rng(seed, tr).uniform(2.0, 9.0, size=6)
    expected = {(float(y), float(np.interp(y, tr.times, tr.values))) for y in ys}
    assert set(zip(Y[:, 0].tolist(), G[:, 0].tolist())) == expected


def test_noise_zero_sigma_is_identity():
    u = np.linspace(0.9, 1.1, 200)
    out = add_input_noise(u, 0.0, seed=3)
    assert np.array_equal(out, u)
    out[0] = 99.0  # returned array is a copy
    assert u[0] != 99.0
    with pytest.raises(ValueError):
        add_input_noise(u, -0.1, seed=3)


def test_noise_moments_and_independence():
    base = np.zeros(100000)
    noise = add_input_noise(base, 0.01, seed=123)
    assert 0.0099 < noise.std() < 0.0101
    assert abs(noise.mean()) < 1e-4
    rho = np.corrcoef(noise[:-1], noise[1:])[0, 1]
    assert abs(rho) < 0.02


def test_short_trajectory_rejected():
    tr = make_traj(0, np.ones(850), times=GRID[:850])
    with pytest.raises(ValueError):
        build_train([tr], SplitSpec(), seed=0)
    with pytest.raises(ValueError):
        build_test([tr], SplitSpec())


def test_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(m=1)
    with pytest.raises(ValueError):
        SplitSpec(queries=0)
    with pytest.raises(ValueError):
        SplitSpec(train_frac=1.0)
    with pytest.raises(ValueError):
        SplitSpec(t_cl=9.0, T=9.0)
    for bad in (dict(m=20.0), dict(queries=True), dict(n_mesh=10.5)):
        with pytest.raises(ValueError, match="must be an int"):
            SplitSpec(**bad)


def test_spec_needs_a_mesh_point():
    with pytest.raises(ValueError):
        SplitSpec(n_mesh=0)
