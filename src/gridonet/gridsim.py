"""Classical-model transient simulator for a 3-machine 9-bus grid.

Machines are constant-EMF-behind-transient-reactance; loads are converted to
constant impedances at the pre-fault operating point, so Kron reduction turns
the network equations into an ODE in the rotor angles:

    M_i  d2(delta_i)/dt2 = P_m,i - P_e,i(delta) - D_i d(delta_i)/dt,
    M_i = H_i / (pi f0)

A contingency disconnects one or two transmission circuits at t_f and
restores them at the clearing time t_cl. Every transmission corridor is
built as two parallel circuits (each at twice the corridor impedance, half
the charging), so the corridor admittances match the textbook single-circuit
values while any single- or double-circuit trip leaves the network connected.
Bus voltage phasors are recovered from the generator EMFs through the
reduction's voltage-recovery map.

Bus indices are 0-based: buses 0-2 are the machine terminals, 3-8 the rest
of the classic numbering (bus index 7 is the textbook bus-8 load bus).

`generate_pools` simulates half of a command's scenarios in a forked child
(threads cannot share Python-float work); errors keep a serial loop's order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import pickle
import signal
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import Error

__all__ = [
    "ScenarioRejected",
    "SimulationDiverged",
    "PowerFlowError",
    "PoolError",
    "SimulationLost",
    "Branch",
    "GridModel",
    "FaultScenario",
    "Trajectory",
    "build_model",
    "ybus",
    "solve_power_flow",
    "equilibrium",
    "kron_reduce",
    "make_fast_stepper",
    "simulate",
    "admissible_trips",
    "sample_scenarios",
    "generate_pools",
    "save_pool",
    "load_pool",
    "model_hash",
]

F0 = 60.0  # nominal frequency, Hz
_TRIPS = {"N1": 1, "N2": 2}  # contingency kind: lines it trips


class ScenarioRejected(Error):
    """Contingency cannot be simulated (disconnected or singular network)."""


class SimulationDiverged(Error):
    """Integration produced a non-finite or non-physical state."""

    def __init__(self, msg, scenario=None):
        super().__init__(msg)
        self.scenario = scenario


class PowerFlowError(Error):
    """The pre-fault power flow has no solution Newton-Raphson can find."""


class SimulationLost(Error):
    """The forked child simulating half of the pools ended without a result."""


class PoolError(Error):
    """A pool file holds a record that is not a trajectory of its scenario."""


@dataclass(frozen=True)
class Branch:
    f: int
    t: int
    r: float
    x: float
    b_ch: float  # total charging susceptance of this circuit
    trippable: bool


@dataclass(frozen=True)
class GridModel:
    branches: tuple
    gen_bus: tuple = (0, 1, 2)
    H: tuple = (23.64, 6.40, 3.01)  # inertia constants, s
    D: tuple = (0.1254, 0.0339, 0.0160)  # damping, pu power per rad/s
    xdp: tuple = (0.0608, 0.1198, 0.1813)  # transient reactances
    slack_v: float = 1.04
    pv_v: tuple = (1.025, 1.025)
    gen_p: tuple = (1.63, 0.85)  # setpoints of machines 2 and 3
    loads: tuple = ((4, 1.25, 0.50), (5, 0.90, 0.30), (7, 1.00, 0.35))
    monitor_bus: int = 4
    n_bus: int = 9


# corridor data: (from, to, r, x, total charging b) in the 0-based numbering
_CORRIDORS = (
    (3, 4, 0.0100, 0.0850, 0.176),
    (3, 5, 0.0170, 0.0920, 0.158),
    (4, 6, 0.0320, 0.1610, 0.306),
    (5, 8, 0.0390, 0.1700, 0.358),
    (6, 7, 0.0085, 0.0720, 0.149),
    (7, 8, 0.0119, 0.1008, 0.209),
)
_TRANSFORMERS = ((0, 3, 0.0576), (1, 6, 0.0625), (2, 8, 0.0586))


def build_model(load_scale: float = 1.0, monitor_bus: int = 4) -> GridModel:
    """Assemble the default 9-bus model.

    `load_scale` multiplies every load and the machine-2/3 setpoints together,
    stressing the grid uniformly.
    """
    branches = []
    for f, t, x in _TRANSFORMERS:
        branches.append(Branch(f, t, 0.0, x, 0.0, trippable=False))
    for f, t, r, x, b in _CORRIDORS:
        # two parallel circuits at doubled impedance and half charging each
        for _ in range(2):
            branches.append(Branch(f, t, 2.0 * r, 2.0 * x, b / 2.0, trippable=True))
    s = load_scale
    return GridModel(
        branches=tuple(branches),
        gen_p=tuple(p * s for p in GridModel.gen_p),
        loads=tuple((bus, p * s, q * s) for bus, p, q in GridModel.loads),
        monitor_bus=monitor_bus,
    )


def trippable_ids(model: GridModel) -> list[int]:
    return [i for i, br in enumerate(model.branches) if br.trippable]


def ybus(model: GridModel, tripped=()) -> np.ndarray:
    """Bus admittance matrix of the branch network (loads excluded)."""
    tripped = frozenset(tripped)
    Y = np.zeros((model.n_bus, model.n_bus), dtype=complex)
    for i, br in enumerate(model.branches):
        if i in tripped:
            continue
        y = 1.0 / complex(br.r, br.x)
        sh = 0.5j * br.b_ch
        Y[br.f, br.f] += y + sh
        Y[br.t, br.t] += y + sh
        Y[br.f, br.t] -= y
        Y[br.t, br.f] -= y
    return Y


def _connected(model: GridModel, tripped) -> bool:
    tripped = frozenset(tripped)
    adj = [[] for _ in range(model.n_bus)]
    for i, br in enumerate(model.branches):
        if i in tripped:
            continue
        adj[br.f].append(br.t)
        adj[br.t].append(br.f)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == model.n_bus


@dataclass(frozen=True)
class PowerFlow:
    V: np.ndarray  # complex bus voltages
    S_gen: np.ndarray  # complex power injected by each machine


def solve_power_flow(model: GridModel) -> PowerFlow:
    """Newton-Raphson on the intact network with PQ loads: at most 50
    iterations, to a largest mismatch below 1e-11."""
    tol, max_iter = 1e-11, 50
    n = model.n_bus
    Y = ybus(model)
    p_spec = np.zeros(n)
    q_spec = np.zeros(n)
    p_spec[model.gen_bus[1]] += model.gen_p[0]
    p_spec[model.gen_bus[2]] += model.gen_p[1]
    for bus, p, q in model.loads:
        p_spec[bus] -= p
        q_spec[bus] -= q

    slack = model.gen_bus[0]
    pv = list(model.gen_bus[1:])
    pq = [b for b in range(n) if b != slack and b not in pv]
    vm = np.ones(n)
    vm[slack] = model.slack_v
    vm[pv] = model.pv_v
    va = np.zeros(n)
    ang_idx = pv + pq  # unknown angles
    mag_idx = pq  # unknown magnitudes

    def mismatch(x):
        va_ = va.copy()
        vm_ = vm.copy()
        va_[ang_idx] = x[: len(ang_idx)]
        vm_[mag_idx] = x[len(ang_idx) :]
        V = vm_ * np.exp(1j * va_)
        S = V * np.conj(Y @ V)
        dp = S.real[ang_idx] - p_spec[ang_idx]
        dq = S.imag[mag_idx] - q_spec[mag_idx]
        return np.concatenate([dp, dq]), V

    x = np.concatenate([va[ang_idx], vm[mag_idx]])
    for _ in range(max_iter):
        f, V = mismatch(x)
        if np.max(np.abs(f)) < tol:
            break
        # forward-difference Jacobian; the system is small enough not to care
        J = np.empty((x.size, x.size))
        h = 1e-7
        for j in range(x.size):
            xp = x.copy()
            xp[j] += h
            J[:, j] = (mismatch(xp)[0] - f) / h
        try:
            x = x - np.linalg.solve(J, f)
        except np.linalg.LinAlgError:
            raise PowerFlowError("power flow Jacobian is singular") from None
    else:
        raise PowerFlowError(f"power flow did not converge in {max_iter} iterations")
    S = V * np.conj(Y @ V)
    S_gen = S[list(model.gen_bus)].copy()
    # machine injection = bus injection plus the local load, if any
    for bus, p, q in model.loads:
        if bus in model.gen_bus:
            S_gen[model.gen_bus.index(bus)] += complex(p, q)
    return PowerFlow(V=V, S_gen=S_gen)


@dataclass(frozen=True)
class Equilibrium:
    E: np.ndarray  # internal EMF magnitudes
    delta0: np.ndarray  # internal rotor angles, rad
    Pm: np.ndarray  # mechanical powers
    y_load: np.ndarray  # constant-impedance load admittance per bus
    V0: np.ndarray  # pre-fault bus voltages


def equilibrium(model: GridModel) -> Equilibrium:
    pf = solve_power_flow(model)
    Vg = pf.V[list(model.gen_bus)]
    Ig = np.conj(pf.S_gen / Vg)
    E = Vg + 1j * np.asarray(model.xdp) * Ig
    y_load = np.zeros(model.n_bus, dtype=complex)
    for bus, p, q in model.loads:
        y_load[bus] = complex(p, -q) / abs(pf.V[bus]) ** 2
    return Equilibrium(
        E=np.abs(E),
        delta0=np.angle(E),
        Pm=(E * np.conj(Ig)).real,
        y_load=y_load,
        V0=pf.V,
    )


def kron_reduce(model: GridModel, tripped, eq: Equilibrium):
    """Eliminate all physical buses, keeping the machine internal nodes.

    Returns (Y_red 3x3, recovery 9x3) with V_bus = recovery @ E_phasor.
    """
    if not _connected(model, tripped):
        raise ScenarioRejected(f"network disconnected after tripping {sorted(tripped)}")
    ng, nb = len(model.gen_bus), model.n_bus
    A = np.zeros((ng + nb, ng + nb), dtype=complex)
    A[ng:, ng:] = ybus(model, tripped) + np.diag(eq.y_load)
    for i, bus in enumerate(model.gen_bus):
        yg = 1.0 / (1j * model.xdp[i])
        A[i, i] += yg
        A[ng + bus, ng + bus] += yg
        A[i, ng + bus] -= yg
        A[ng + bus, i] -= yg
    try:
        X = np.linalg.solve(A[ng:, ng:], A[ng:, :ng])
    except np.linalg.LinAlgError as e:
        raise ScenarioRejected(f"singular reduction for trip {sorted(tripped)}: {e}")
    y_red = A[:ng, :ng] - A[:ng, ng:] @ X
    recovery = -X
    return y_red, recovery


def _n_steps(span: float, h_max: float) -> int:
    """The fewest uniform steps of size <= h_max that cover `span` (at least one)."""
    return max(1, math.ceil(span / h_max - 1e-12))


def make_fast_stepper(model: GridModel, y_red: np.ndarray, E: np.ndarray, Pm: np.ndarray):
    """Specialized 3-machine RK4 stepper on Python floats.

    Identical arithmetic, up to float associativity, to the generic numpy RK4
    oracle in tests/test_gridsim.py, which checks it. Returns step(state, h, n),
    which advances any six reals (d0,d1,d2,w0,w1,w2) by n steps of size h and
    returns six Python floats.
    """
    from math import cos, sin

    if len(model.gen_bus) != 3:
        raise ValueError("fast stepper is specialized to 3 machines")
    G, B = y_red.real.tolist(), y_red.imag.tolist()
    e0, e1, e2 = float(E[0]), float(E[1]), float(E[2])
    c0, c1, c2 = G[0][0] * e0 * e0, G[1][1] * e1 * e1, G[2][2] * e2 * e2
    a01, b01 = e0 * e1 * G[0][1], e0 * e1 * B[0][1]
    a02, b02 = e0 * e2 * G[0][2], e0 * e2 * B[0][2]
    a12, b12 = e1 * e2 * G[1][2], e1 * e2 * B[1][2]
    k0, k1_, k2_ = [math.pi * F0 / float(H) for H in model.H]
    D0, D1, D2 = map(float, model.D)
    p0, p1, p2 = float(Pm[0]), float(Pm[1]), float(Pm[2])

    def acc(d0, d1, d2, w0, w1, w2):
        s01, co01 = sin(d0 - d1), cos(d0 - d1)
        s02, co02 = sin(d0 - d2), cos(d0 - d2)
        s12, co12 = sin(d1 - d2), cos(d1 - d2)
        pe0 = c0 + a01 * co01 + b01 * s01 + a02 * co02 + b02 * s02
        pe1 = c1 + a01 * co01 - b01 * s01 + a12 * co12 + b12 * s12
        pe2 = c2 + a02 * co02 - b02 * s02 + a12 * co12 - b12 * s12
        return (
            k0 * (p0 - pe0 - D0 * w0),
            k1_ * (p1 - pe1 - D1 * w1),
            k2_ * (p2 - pe2 - D2 * w2),
        )

    def step(state, h, n):
        d0, d1, d2, w0, w1, w2 = map(float, state)
        h = float(h)
        hh = 0.5 * h
        h6 = h / 6.0
        for _ in range(n):
            a10, a11, a12_ = acc(d0, d1, d2, w0, w1, w2)
            # stage 2 at midpoint using k1
            e0d, e1d, e2d = d0 + hh * w0, d1 + hh * w1, d2 + hh * w2
            e0w, e1w, e2w = w0 + hh * a10, w1 + hh * a11, w2 + hh * a12_
            a20, a21, a22 = acc(e0d, e1d, e2d, e0w, e1w, e2w)
            # stage 3 at midpoint using k2
            f0d, f1d, f2d = d0 + hh * e0w, d1 + hh * e1w, d2 + hh * e2w
            f0w, f1w, f2w = w0 + hh * a20, w1 + hh * a21, w2 + hh * a22
            a30, a31, a32 = acc(f0d, f1d, f2d, f0w, f1w, f2w)
            # stage 4 at the full step using k3
            g0d, g1d, g2d = d0 + h * f0w, d1 + h * f1w, d2 + h * f2w
            g0w, g1w, g2w = w0 + h * a30, w1 + h * a31, w2 + h * a32
            a40, a41, a42 = acc(g0d, g1d, g2d, g0w, g1w, g2w)
            d0 += h6 * (w0 + 2.0 * (e0w + f0w) + g0w)
            d1 += h6 * (w1 + 2.0 * (e1w + f1w) + g1w)
            d2 += h6 * (w2 + 2.0 * (e2w + f2w) + g2w)
            w0 += h6 * (a10 + 2.0 * (a20 + a30) + a40)
            w1 += h6 * (a11 + 2.0 * (a21 + a31) + a41)
            w2 += h6 * (a12_ + 2.0 * (a22 + a32) + a42)
        return d0, d1, d2, w0, w1, w2

    return step


@dataclass(frozen=True)
class FaultScenario:
    kind: str  # "N1" or "N2"
    tripped: tuple  # branch indices
    t_f: float
    t_cl: float = 2.0
    T: float = 9.0
    sample_rate: float = 100.0

    def __post_init__(self):
        object.__setattr__(self, "tripped", tuple(self.tripped))  # a pool file holds a list
        if self.kind not in _TRIPS:
            raise ValueError(f"kind must be N1 or N2, got {self.kind!r}")
        if len(set(self.tripped)) != len(self.tripped):
            raise ValueError("tripped lines must be distinct")
        if len(self.tripped) != _TRIPS[self.kind]:
            raise ValueError(f"{self.kind} scenario must trip {_TRIPS[self.kind]} lines")
        if not (0 < self.T < np.inf and 0 < self.sample_rate < np.inf):
            raise ValueError(f"need finite T, sample_rate > 0, got {self.T}, {self.sample_rate}")
        # t_f at or past the horizon is an equilibrium run: its window [t_f, t_cl] is empty
        if not (0 < self.t_f < self.t_cl < self.T or self.t_cl < self.T <= self.t_f):
            raise ValueError(
                f"need 0 < t_f < t_cl < T, or t_cl < T <= t_f for no fault, "
                f"got {self.t_f}, {self.t_cl}, {self.T}"
            )

    @property
    def n_samples(self) -> int:
        """The length of `times`: T * sample_rate, rounded."""
        return int(round(self.T * self.sample_rate))

    @property
    def times(self) -> np.ndarray:
        """The sample grid dt, 2 dt, ..., T with dt = 1 / sample_rate."""
        return (np.arange(self.n_samples) + 1) * (1.0 / self.sample_rate)


@dataclass(frozen=True)
class Trajectory:
    traj_id: int
    scenario: FaultScenario
    bus_id: int
    times: np.ndarray
    values: np.ndarray


def simulate(
    model: GridModel,
    scenario: FaultScenario,
    h_max: float = 1e-3,
    eq: Equilibrium | None = None,
) -> Trajectory:
    """Integrate one contingency and record |V| at the monitor bus.

    The integration is deterministic. `eq` lets pool generation reuse the
    power-flow solution across scenarios; a Kron reduction (~0.05 ms, two
    per run) is not worth a cache. Each sample interval is cut at t_f and
    t_cl where they lie strictly inside it; a segment follows the topology
    at its midpoint, and a sample is recovered with the topology at its
    time. The fault window is the closed interval [t_f, t_cl].
    """
    if eq is None:
        eq = equilibrium(model)

    def phase(tripped):
        """(stepper, monitor-bus recovery row) of one topology."""
        y_red, recovery = kron_reduce(model, tripped, eq)
        return make_fast_stepper(model, y_red, eq.E, eq.Pm), recovery[model.monitor_bus]

    t_f, t_cl = scenario.t_f, scenario.t_cl
    phases = (phase(()), phase(scenario.tripped))  # phases[t_f <= t <= t_cl]
    times = scenario.times
    values = np.empty(len(times))
    state = (*eq.delta0, 0.0, 0.0, 0.0)
    t_prev = 0.0
    for k, t_next in enumerate(times.tolist()):  # Python floats: a window test is a bool
        cuts = [t_prev, *(b for b in (t_f, t_cl) if t_prev < b < t_next), t_next]
        for a, b in zip(cuts[:-1], cuts[1:]):
            stepper, _ = phases[t_f <= 0.5 * (a + b) <= t_cl]
            n = _n_steps(b - a, h_max)
            try:
                state = stepper(state, (b - a) / n, n)
            except ValueError:  # math.sin of an angle that overflowed to inf
                raise SimulationDiverged(f"state overflowed by t={t_next:.2f}s", scenario) from None
        _, row = phases[t_f <= t_next <= t_cl]
        v = abs(row @ (eq.E * np.exp(1j * np.asarray(state[:3]))))
        if not (0.0 < v < 2.0) or not all(map(math.isfinite, state)):
            raise SimulationDiverged(
                f"non-physical state at t={t_next:.2f}s (|V|={v:.3f})", scenario
            )
        values[k] = v
        t_prev = t_next
    return Trajectory(
        traj_id=-1, scenario=scenario, bus_id=model.monitor_bus, times=times, values=values
    )


def admissible_trips(model: GridModel, kind: str) -> list[tuple]:
    """All connectivity-preserving single or double circuit outages."""
    if kind not in _TRIPS:
        raise ValueError(f"kind must be N1 or N2, got {kind!r}")
    cands = itertools.combinations(trippable_ids(model), _TRIPS[kind])
    return [c for c in cands if _connected(model, c)]


def sample_scenarios(model: GridModel, count: int, kind: str, seed) -> list[FaultScenario]:
    """Random contingencies on `FaultScenario`'s default timing: admissible
    trips, t_f = t_cl - U(0.2, 0.5)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    trips = admissible_trips(model, kind)
    if not trips:
        raise ScenarioRejected(f"no admissible {kind} trips in this model")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        trip = trips[rng.integers(len(trips))]
        dt_f = rng.uniform(0.2, 0.5)
        out.append(FaultScenario(kind=kind, tripped=trip, t_f=FaultScenario.t_cl - dt_f))
    return out


def generate_pools(model: GridModel, draws, h_max: float = 1e-3) -> list[list[Trajectory]]:
    """One pool of `sample_scenarios(model, count, kind, seed)` per entry of
    `draws`, all drawn first, then simulated by `_split`: the first half here,
    the rest in a child. Ids count from 0 across the pools. Nothing is
    redrawn, no byte depends on the split, and the error is a serial loop's."""
    eq = equilibrium(model)
    pools = [sample_scenarios(model, count, kind, seed) for count, kind, seed in draws]
    values = iter(_split(lambda sc: simulate(model, sc, h_max=h_max, eq=eq).values,
                         [sc for pool in pools for sc in pool]))
    ids = itertools.count()
    return [[Trajectory(traj_id=next(ids), scenario=sc, bus_id=model.monitor_bus,
                        times=sc.times, values=next(values)) for sc in pool] for pool in pools]


def _split(run, items: list) -> list:
    """[run(x) for x in items]: the first (larger) half here, the rest in one
    forked child (unless it would be empty or there is no os.fork), reaped on
    every path, and gone before its next item once orphaned. Raises the error
    a serial loop meets first: this half's, else the child's, or SimulationLost."""
    cut = (len(items) + 1) // 2
    if cut == len(items) or not hasattr(os, "fork"):
        return [run(x) for x in items]
    r, w = os.pipe()
    caller = os.getpid()
    pid = os.fork()
    if pid == 0:  # leaves by os._exit only: no atexit handler, no parent buffer
        try:
            os.close(r)  # else an orphan's write to the pipe would block for ever
            there = []
            try:
                for x in items[cut:]:
                    if os.getppid() != caller:  # orphaned: the caller died uncleaned
                        os._exit(1)
                    there.append(run(x))
                answer = there, None
            except Exception as err:
                answer = None, err
            with open(w, "wb", closefd=False) as f:  # w closes at exit: EOF means ended
                pickle.dump(answer, f)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(w)
    try:
        with open(r, "rb") as f:
            here = [run(x) for x in items[:cut]]
            data = f.read()
    finally:  # stop the child unless its answer is in and it is exiting; reap it
        os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
    if code := os.waitstatus_to_exitcode(status):
        how = f"signal {-code}" if code < 0 else f"exit code {code}"
        raise SimulationLost(f"the simulating child process ended by {how} without a result")
    there, err = pickle.loads(data)
    if err is not None:
        raise err
    return here + there


def model_hash(model: GridModel) -> str:
    """Stable digest of every `GridModel` field, for the pool manifest."""
    return hashlib.sha256(json.dumps(asdict(model), sort_keys=True).encode()).hexdigest()


def save_pool(path, trajectories) -> None:
    """One JSON record per line: the scenario's fields plus the trajectory's
    id, bus and samples; `simulate.manifest.json` describes the pool."""
    with open(path, "w") as f:
        for tr in trajectories:
            rec = {"id": tr.traj_id, "bus_id": tr.bus_id, "values": tr.values.tolist(),
                   **asdict(tr.scenario)}
            f.write(json.dumps(rec, sort_keys=True) + "\n")


def load_pool(path, data: bytes) -> list[Trajectory]:
    """The trajectories in `data`, the bytes of the pool file at `path`; a bad
    record raises PoolError naming the file and the line."""
    trajectories = []
    for line_no, line in enumerate(data.splitlines(), 1):
        try:
            rec = json.loads(line)
            if type(rec["id"]) is not int or rec["id"] < 0:  # a bool is not an id
                raise ValueError(f"id {rec['id']!r} is not an int >= 0")
            sc = FaultScenario(**{fl.name: rec[fl.name] for fl in fields(FaultScenario)})
            values = np.asarray(rec["values"], dtype=float)
            if values.shape != (sc.n_samples,):  # before the grid is built: T may be huge
                raise ValueError(f"{values.size} values, expected {sc.n_samples}")
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:  # json.loads reads NaN and Infinity tokens
                raise ValueError(f"non-finite value at sample {bad[0]}")
            tr = Trajectory(traj_id=rec["id"], scenario=sc, bus_id=rec["bus_id"],
                            times=sc.times, values=values)
        except KeyError as e:
            raise PoolError(f"{path} line {line_no}: record lacks key {e}") from None
        except (TypeError, ValueError, OverflowError) as e:  # T * sample_rate may be inf
            raise PoolError(f"{path} line {line_no}: {e}") from None
        trajectories.append(tr)
    return trajectories
