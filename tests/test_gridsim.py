"""Simulator checks: load flow against the published 9-bus solution, Kron
reduction against first-principles KCL, RK4 against step refinement, energy
conservation in the lossless undamped limit, and the scenario machinery."""

import numpy as np
import pytest

from gridonet import gridsim as G


@pytest.fixture(scope="module")
def base_model():
    return G.build_model()


@pytest.fixture(scope="module")
def base_eq(base_model):
    return G.equilibrium(base_model)


def test_power_flow_matches_published_solution(base_model):
    # classic WSCC-9 operating point (values tabulated to 4 decimals)
    pf = G.solve_power_flow(base_model)
    assert pf.residual < 1e-9
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
    rhs = G.make_rhs(base_model, y_red, base_eq.E, base_eq.Pm)
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
    rhs = G.make_rhs(base_model, y_red, base_eq.E, base_eq.Pm)
    step = G.make_fast_stepper(base_model, y_red, base_eq.E, base_eq.Pm)
    delta = base_eq.delta0 + np.array([0.0, 0.3, -0.2])
    omega = np.array([0.1, -0.5, 0.4])
    d_ref, w_ref = G.rk4_segment(rhs, delta, omega, 0.0, 1.0, 1e-3)
    out = step((*delta, *omega), 1e-3, 1000)
    assert np.max(np.abs(np.array(out[:3]) - d_ref)) < 1e-12
    assert np.max(np.abs(np.array(out[3:]) - w_ref)) < 1e-12


def _oracle_segment(model, y_red, eq):
    rhs = G.make_rhs(model, y_red, eq.E, eq.Pm)
    return lambda delta, omega: G.rk4_segment(rhs, delta, omega, 0.0, 0.1, 1e-3)


def _fast_segment(model, y_red, eq):
    step = G.make_fast_stepper(model, y_red, eq.E, eq.Pm)

    def segment(delta, omega):
        state = step((*delta, *omega), 1e-3, 100)
        return np.array(state[:3]), np.array(state[3:])

    return segment


@pytest.mark.parametrize("make_segment", [_oracle_segment, _fast_segment],
                         ids=["oracle", "fast"])
def test_lossless_undamped_energy_conservation(make_segment):
    model = G.build_model(damping=(0.0, 0.0, 0.0), lossless=True)
    eq = G.equilibrium(model)
    y_red, _ = G.kron_reduce(model, (), eq)
    assert np.max(np.abs(y_red.real)) < 1e-12  # purely reactive reduction
    B = y_red.imag
    E = eq.E
    M = model.inertia_coeff

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
    pool, rejections = G.generate_pool(base_model, 3, "N2", seed=5)
    assert [tr.traj_id for tr in pool] == [0, 1, 2]
    path = tmp_path / "pool.jsonl"
    G.save_pool(path, pool, base_model, seed=5, rejections=rejections)
    loaded, manifest = G.load_pool(path)
    assert manifest["model_hash"] == G.model_hash(base_model)
    assert manifest["count"] == 3 and manifest["kinds"] == ["N2"]
    for a, b in zip(pool, loaded):
        assert a.traj_id == b.traj_id
        assert a.scenario == b.scenario
        assert a.bus_id == b.bus_id
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.times, b.times)


def test_model_hash_tracks_physical_changes(base_model):
    assert G.model_hash(base_model) == G.model_hash(G.build_model())
    assert G.model_hash(base_model) != G.model_hash(G.build_model(load_scale=1.1))
    assert G.model_hash(base_model) != G.model_hash(G.build_model(monitor_bus=5))


def test_monitor_bus_selects_channel(base_model):
    sc = G.FaultScenario(kind="N1", tripped=(7,), t_f=1.6)
    a = G.simulate(G.build_model(monitor_bus=4), sc)
    b = G.simulate(G.build_model(monitor_bus=7), sc)
    assert a.bus_id == 4 and b.bus_id == 7
    assert np.max(np.abs(a.values - b.values)) > 1e-4
