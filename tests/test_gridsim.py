"""Simulator checks: load flow against the published 9-bus solution, Kron
reduction against first-principles KCL, RK4 against step refinement, energy
conservation in the lossless undamped limit, and the scenario machinery."""

import dataclasses
import hashlib
import platform

import numpy as np
import pytest

from gridonet import gridsim as G


def make_rhs(model: G.GridModel, y_red: np.ndarray, E: np.ndarray, Pm: np.ndarray):
    """Swing-equation right-hand side for one network topology."""
    k = np.pi * G.F0 / np.asarray(model.H)
    D = np.asarray(model.D)

    def rhs(delta, omega):
        eph = E * np.exp(1j * delta)
        pe = (eph * np.conj(y_red @ eph)).real
        return omega, k * (Pm - pe - D * omega)

    return rhs


def rk4_segment(rhs, delta, omega, t0: float, t1: float, h_max: float):
    """Classic RK4 from t0 to t1 with uniform steps of size <= h_max: the
    generic numpy oracle of gridsim.make_fast_stepper."""
    span = t1 - t0
    if span <= 0:
        return delta, omega
    n = G._n_steps(span, h_max)
    h = span / n
    for _ in range(n):
        k1d, k1w = rhs(delta, omega)
        k2d, k2w = rhs(delta + 0.5 * h * k1d, omega + 0.5 * h * k1w)
        k3d, k3w = rhs(delta + 0.5 * h * k2d, omega + 0.5 * h * k2w)
        k4d, k4w = rhs(delta + h * k3d, omega + h * k3w)
        delta = delta + (h / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        omega = omega + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
    return delta, omega


@pytest.fixture(scope="module")
def base_model():
    return G.build_model()


@pytest.fixture(scope="module")
def base_eq(base_model):
    return G.equilibrium(base_model)


def test_power_flow_matches_published_solution(base_model):
    # classic WSCC-9 operating point (values tabulated to 4 decimals)
    m = base_model
    pf = G.solve_power_flow(m)
    # the injections at V meet the specified ones: P off the slack bus, Q at PQ buses
    want = np.zeros(m.n_bus, dtype=complex)
    want[list(m.gen_bus[1:])] += m.gen_p
    for bus, p, q in m.loads:
        want[bus] -= complex(p, q)
    miss = pf.V * np.conj(G.ybus(m) @ pf.V) - want
    assert np.max(np.abs(np.delete(miss.real, m.gen_bus[0]))) < 1e-9
    assert np.max(np.abs(np.delete(miss.imag, list(m.gen_bus)))) < 1e-9
    vm = np.abs(pf.V)
    va = np.degrees(np.angle(pf.V))
    assert abs(vm[4] - 0.9956) < 5e-4
    assert abs(vm[5] - 1.0127) < 5e-4
    assert abs(vm[7] - 1.0159) < 5e-4
    assert abs(va[1] - 9.28) < 0.02
    assert abs(va[2] - 4.6648) < 0.02
    assert abs(pf.S_gen[0].real - 0.7164) < 5e-4
    assert abs(pf.S_gen[0].imag - 0.2705) < 5e-4


def test_equilibrium_matches_published_emfs(base_eq):
    assert np.allclose(base_eq.E, [1.0566, 1.0502, 1.0170], atol=5e-4)
    assert np.allclose(
        np.degrees(base_eq.delta0), [2.2717, 19.7315, 13.1664], atol=0.02
    )
    assert np.allclose(base_eq.Pm, [0.7164, 1.63, 0.85], atol=5e-4)


def test_reduction_satisfies_kcl_intact(base_model, base_eq):
    # independent check: recovered voltages satisfy nodal current balance
    # of the full (unreduced) network, and y_red reproduces machine currents
    y_red, rec = G.kron_reduce(base_model, (), base_eq)
    eph = base_eq.E * np.exp(1j * base_eq.delta0)
    V = rec @ eph
    yg = 1.0 / (1j * np.asarray(base_model.xdp))
    i_mach = (eph - V[list(base_model.gen_bus)]) * yg
    balance = (G.ybus(base_model) + np.diag(base_eq.y_load)) @ V
    for i, bus in enumerate(base_model.gen_bus):
        balance[bus] -= i_mach[i]
    assert np.max(np.abs(balance)) < 1e-10
    assert np.max(np.abs(y_red @ eph - i_mach)) < 1e-10
    assert np.max(np.abs(V - base_eq.V0)) < 1e-10


def test_reduction_satisfies_kcl_random_trips(base_model, base_eq):
    rng = np.random.default_rng(7)
    trips = G.admissible_trips(base_model, "N2")
    for trip in [trips[rng.integers(len(trips))] for _ in range(5)]:
        y_red, rec = G.kron_reduce(base_model, trip, base_eq)
        # random EMF phasors, not just the equilibrium ones
        eph = (1.0 + 0.1 * rng.standard_normal(3)) * np.exp(
            1j * rng.uniform(-1, 1, 3)
        )
        V = rec @ eph
        yg = 1.0 / (1j * np.asarray(base_model.xdp))
        i_mach = (eph - V[list(base_model.gen_bus)]) * yg
        balance = (G.ybus(base_model, trip) + np.diag(base_eq.y_load)) @ V
        for i, bus in enumerate(base_model.gen_bus):
            balance[bus] -= i_mach[i]
        assert np.max(np.abs(balance)) < 1e-10
        assert np.max(np.abs(y_red @ eph - i_mach)) < 1e-10


def test_equilibrium_is_ode_fixed_point(base_model, base_eq):
    y_red, _ = G.kron_reduce(base_model, (), base_eq)
    rhs = make_rhs(base_model, y_red, base_eq.E, base_eq.Pm)
    ddelta, domega = rhs(base_eq.delta0, np.zeros(3))
    assert np.max(np.abs(ddelta)) == 0.0
    assert np.max(np.abs(domega)) < 1e-8


def test_no_fault_run_stays_at_equilibrium(base_model):
    sc = G.FaultScenario(kind="N1", tripped=(3,), t_f=9.0)
    tr = G.simulate(base_model, sc)
    assert tr.times.shape == (900,)
    assert tr.times[0] == 0.01 and tr.times[-1] == 9.0
    v0 = abs(G.equilibrium(base_model).V0[base_model.monitor_bus])
    assert np.max(np.abs(tr.values - v0)) < 1e-6


def test_pre_fault_segment_is_flat(base_model, base_eq):
    sc = G.FaultScenario(kind="N1", tripped=(5,), t_f=1.62)  # on the 100 Hz grid
    tr = G.simulate(base_model, sc)
    mon = base_model.monitor_bus
    v0 = abs(base_eq.V0[mon])
    pre = tr.values[tr.times < sc.t_f]
    post = tr.values[tr.times > sc.t_f]
    assert np.max(np.abs(pre - v0)) < 1e-6
    assert np.max(np.abs(post - v0)) > 1e-3  # the fault actually bites
    # the window [t_f, t_cl] is closed: the sample at t_f is recovered through the
    # faulted network from the equilibrium angles, since no step crossed t_f yet
    k = int(np.flatnonzero(tr.times == sc.t_f)[0])
    _, rec_fault = G.kron_reduce(base_model, sc.tripped, base_eq)
    v_fault = abs(rec_fault[mon] @ (base_eq.E * np.exp(1j * base_eq.delta0)))
    assert abs(tr.values[k] - v_fault) < 1e-9
    assert abs(v_fault - v0) > 1e-3
    assert abs(tr.values[k - 1] - v0) < 1e-6


def test_rk4_step_refinement(base_model):
    # discretization error at the default step, against a 10x finer run
    sc = G.FaultScenario(kind="N2", tripped=(9, 10), t_f=1.5)
    coarse = G.simulate(base_model, sc, h_max=1e-3)
    fine = G.simulate(base_model, sc, h_max=1e-4)
    assert np.max(np.abs(coarse.values - fine.values)) < 1e-5


def test_fast_stepper_matches_generic_rk4(base_model, base_eq):
    y_red, _ = G.kron_reduce(base_model, (4,), base_eq)
    rhs = make_rhs(base_model, y_red, base_eq.E, base_eq.Pm)
    step = G.make_fast_stepper(base_model, y_red, base_eq.E, base_eq.Pm)
    delta = base_eq.delta0 + np.array([0.0, 0.3, -0.2])
    omega = np.array([0.1, -0.5, 0.4])
    d_ref, w_ref = rk4_segment(rhs, delta, omega, 0.0, 1.0, 1e-3)
    out = step((*delta, *omega), 1e-3, 1000)
    assert np.max(np.abs(np.array(out[:3]) - d_ref)) < 1e-12
    assert np.max(np.abs(np.array(out[3:]) - w_ref)) < 1e-12


def test_fast_stepper_runs_on_floats(base_model):
    # numpy coefficients (y_red, E, Pm, numpy damping) and a numpy-scalar state
    # must not put the loop on numpy scalars, nor change a bit of its result
    model = dataclasses.replace(base_model, D=tuple(np.array([0.1254, 0.0339, 0.0160])))
    eq = G.equilibrium(model)
    y_red, _ = G.kron_reduce(model, (4,), eq)
    step = G.make_fast_stepper(model, y_red, eq.E, eq.Pm)
    state = (*(eq.delta0 + np.array([0.0, 0.3, -0.2])), *np.array([0.1, -0.5, 0.4]))
    assert all(type(x) is np.float64 for x in state)
    out = step(state, np.float64(1e-3), 100)
    ref = step(tuple(float(x) for x in state), 1e-3, 100)
    assert [type(x) for x in out] == [float] * 6
    assert np.array(out).tobytes() == np.array(ref).tobytes()


def _oracle_segment(model, y_red, eq):
    rhs = make_rhs(model, y_red, eq.E, eq.Pm)
    return lambda delta, omega: rk4_segment(rhs, delta, omega, 0.0, 0.1, 1e-3)


def _fast_segment(model, y_red, eq):
    step = G.make_fast_stepper(model, y_red, eq.E, eq.Pm)

    def segment(delta, omega):
        state = step((*delta, *omega), 1e-3, 100)
        return np.array(state[:3]), np.array(state[3:])

    return segment


@pytest.mark.parametrize("make_segment", [_oracle_segment, _fast_segment],
                         ids=["oracle", "fast"])
def test_lossless_undamped_energy_conservation(base_model, make_segment):
    # no damping, no series resistance, purely reactive loads
    model = dataclasses.replace(
        base_model, D=(0.0, 0.0, 0.0),
        branches=tuple(dataclasses.replace(br, r=0.0) for br in base_model.branches),
        loads=tuple((bus, 0.0, q) for bus, _, q in base_model.loads))
    eq = G.equilibrium(model)
    y_red, _ = G.kron_reduce(model, (), eq)
    assert np.max(np.abs(y_red.real)) < 1e-12  # purely reactive reduction
    B = y_red.imag
    E = eq.E
    M = np.asarray(model.H) / (np.pi * G.F0)  # coefficient of the angular acceleration

    def energy(delta, omega):
        kinetic = 0.5 * np.sum(M * omega**2)
        potential = -np.sum(eq.Pm * delta)
        for i in range(3):
            for j in range(i + 1, 3):
                potential -= E[i] * E[j] * B[i, j] * np.cos(delta[i] - delta[j])
        return kinetic + potential

    segment = make_segment(model, y_red, eq)  # 0.1 s in 100 RK4 steps
    delta = eq.delta0 + np.array([0.05, -0.08, 0.12])
    omega = np.zeros(3)
    e0 = energy(delta, omega)
    drift = 0.0
    for _ in range(50):
        delta, omega = segment(delta, omega)
        drift = max(drift, abs(energy(delta, omega) - e0))
    assert drift / max(1.0, abs(e0)) < 1e-6


def test_simulate_is_deterministic(base_model):
    sc = G.FaultScenario(kind="N2", tripped=(3, 8), t_f=1.7)
    a = G.simulate(base_model, sc)
    b = G.simulate(base_model, sc)
    assert np.array_equal(a.values, b.values)


# sha256 of simulate's |V| bytes in each case of _pinned_runs, recorded on
# the host below: math.sin and math.cos come from its libm, np.exp and the
# recovery matmul from its numpy
SIM_PINS_HOST = ["numpy 2.4.6", "glibc 2.36", "machine x86_64"]
SIM_PINS = {
    "N1 pool": "b50120879465ef6a56d4f37ae76a1fe5d8f064ce96ed472e3dffadef6f1971ec",
    "N2 pool": "c37326141b54bb85d616feb762148985d205d12687cbda51d2ce5d01664ee2e3",
    "no fault": "cbd1b7d4a95a682a2788004134a894fdd25fb4dfedb8a44e6dd1acfda96a8282",
    "t_f on the grid": "97074300c37a9935dc2a805ffd76f275320f62046b6e5884bead30c70ee9c0c3",
    "h_max 1e-4": "f2ebe949471b0d0af63375574eb4b90fb97a91bfe7a6a6ffb34e69023cbbbb49",
    "h_max 3e-3, t_cl 1.955": "f2d875b9f223f490ab6006180d5dc72223d74746dc5ea9b602c48d7ab50e8d4a",
}


def _sim_host() -> list[str]:
    return [f"numpy {np.__version__}", " ".join(platform.libc_ver()),
            f"machine {platform.machine()}"]


def _pinned_runs():
    """(case, |V| bytes): generated pools on a stressed grid, then single runs
    off the default step and timing on the default grid."""
    stressed = G.build_model(load_scale=1.51)
    for kind, count, seed in (("N1", 4, 3), ("N2", 6, 4)):
        pool = G.generate_pool(stressed, count, kind, seed=seed)
        yield f"{kind} pool", b"".join(tr.values.tobytes() for tr in pool)
    runs = {
        "no fault": (G.FaultScenario(kind="N1", tripped=(3,), t_f=9.0), 1e-3),
        "t_f on the grid": (G.FaultScenario(kind="N1", tripped=(5,), t_f=1.62), 1e-3),
        "h_max 1e-4": (G.FaultScenario(kind="N2", tripped=(9, 10), t_f=1.5), 1e-4),
        "h_max 3e-3, t_cl 1.955": (
            G.FaultScenario(kind="N2", tripped=(3, 8), t_f=1.6213, t_cl=1.955), 3e-3),
    }
    base = G.build_model()
    for case, (sc, h_max) in runs.items():
        yield case, G.simulate(base, sc, h_max=h_max).values.tobytes()


def test_simulate_bytes_are_pinned():
    got = {case: hashlib.sha256(values).hexdigest() for case, values in _pinned_runs()}
    moved = sorted(case for case in SIM_PINS.keys() | got.keys()
                   if SIM_PINS.get(case) != got.get(case))
    assert not moved, (
        f"simulate moved from its pins in {moved}: {[got.get(c) for c in moved]}; "
        f"pinned on {SIM_PINS_HOST}, this host runs {_sim_host()}")


def test_admissible_trips_counts(base_model):
    n1 = G.admissible_trips(base_model, "N1")
    n2 = G.admissible_trips(base_model, "N2")
    # double-circuit corridors: every single and pairwise circuit outage
    # leaves the grid connected, transformers are never candidates
    assert len(n1) == 12
    assert len(n2) == 66
    trippable = set(G.trippable_ids(base_model))
    assert all(set(t) <= trippable for t in n1 + n2)
    with pytest.raises(ValueError):
        G.admissible_trips(base_model, "N3")


def test_transformer_trip_would_disconnect(base_model):
    # tripping a transformer isolates its machine; the reduction refuses
    with pytest.raises(G.ScenarioRejected):
        G.kron_reduce(base_model, (0,), G.equilibrium(base_model))


def test_sampled_fault_window(base_model):
    scs = G.sample_scenarios(base_model, 10000, "N1", seed=11)
    dt = np.array([s.t_cl - s.t_f for s in scs])
    assert np.all((dt >= 0.2) & (dt <= 0.5))
    assert np.all([1.5 <= s.t_f <= 1.8 for s in scs])
    assert abs(dt.mean() - 0.35) < 0.01
    assert {s.kind for s in scs} == {"N1"}


def test_scenario_validation():
    with pytest.raises(ValueError):
        G.FaultScenario(kind="N3", tripped=(3,), t_f=1.6)
    with pytest.raises(ValueError):
        G.FaultScenario(kind="N1", tripped=(3, 4), t_f=1.6)
    with pytest.raises(ValueError):
        G.FaultScenario(kind="N2", tripped=(3, 3), t_f=1.6)
    with pytest.raises(ValueError):
        G.FaultScenario(kind="N1", tripped=(3,), t_f=2.5, T=9.0, t_cl=2.0)
    # t_f at or past the horizon is the explicit no-fault scenario
    G.FaultScenario(kind="N1", tripped=(3,), t_f=9.0)


def test_pool_roundtrip(tmp_path, base_model):
    pool = G.generate_pool(base_model, 3, "N2", seed=5)
    assert [tr.traj_id for tr in pool] == [0, 1, 2]
    path = tmp_path / "pool.jsonl"
    G.save_pool(path, pool)
    loaded = G.load_pool(path, path.read_bytes())
    assert len(loaded) == 3
    for a, b in zip(pool, loaded):
        assert a.traj_id == b.traj_id
        assert a.scenario == b.scenario
        assert a.bus_id == b.bus_id
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.times, b.times)


def test_model_hash_tracks_physical_changes(base_model):
    digest = G.model_hash(base_model)
    assert digest == G.model_hash(G.build_model())
    assert digest != G.model_hash(G.build_model(load_scale=1.1))
    assert digest != G.model_hash(G.build_model(monitor_bus=5))
    br = base_model.branches[3]
    changed = {  # one change per GridModel field
        "branches": base_model.branches[:3] + (dataclasses.replace(br, x=br.x * 1.01),)
                    + base_model.branches[4:],
        "gen_bus": (0, 2, 1),
        "H": (23.64, 6.40, 3.02),
        "D": (0.1254, 0.0339, 0.0161),
        "xdp": (0.0608, 0.1198, 0.1814),
        "slack_v": 1.03,
        "pv_v": (1.025, 1.02),
        "gen_p": (1.63, 0.86),
        "loads": base_model.loads[:2] + ((7, 1.00, 0.36),),
        "monitor_bus": 7,
        "n_bus": 10,
    }
    assert set(changed) == {f.name for f in dataclasses.fields(G.GridModel)}
    for field, value in changed.items():
        assert getattr(base_model, field) != value, field
        assert G.model_hash(dataclasses.replace(base_model, **{field: value})) != digest, field


def test_monitor_bus_selects_channel(base_model):
    sc = G.FaultScenario(kind="N1", tripped=(7,), t_f=1.6)
    a = G.simulate(G.build_model(monitor_bus=4), sc)
    b = G.simulate(G.build_model(monitor_bus=7), sc)
    assert a.bus_id == 4 and b.bus_id == 7
    assert np.max(np.abs(a.values - b.values)) > 1e-4
