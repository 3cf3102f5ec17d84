"""Discrete-event simulation of the many-server reneging queue and the
multiclass priority queue, point-process samplers, and Monte-Carlo
likelihood-ratio estimators of divergence rates and tail probabilities.

Randomness: counter-based Philox streams keyed by (seed, replication, role),
so every replication and every primitive process has its own reproducible
stream regardless of execution order or thread count.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import logsumexp

from .divergence import OrderLike, as_order
from .optimize import INF
from .renewal import RenewalSpec
from .scheduling import SchedulingInstance

_MASK64 = (1 << 64) - 1


def make_stream(seed: int, *ids: int) -> np.random.Generator:
    """Independent reproducible stream for (seed, ids...)."""
    sid = 0
    for i in ids:
        sid = (sid * 1000003 + int(i) + 1) & _MASK64
    key = np.array([np.uint64(seed & _MASK64), np.uint64(sid)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# -- primitive process specs ------------------------------------------------

@dataclass(frozen=True)
class PoissonProcess:
    rate: float

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("rate must be nonnegative")


@dataclass(frozen=True)
class RenewalProcess:
    spec: RenewalSpec


@dataclass(frozen=True)
class CoxPiecewise:
    """Piecewise-constant deterministic intensity path, repeated cyclically
    when cycle is set and zero after the path ends otherwise; segments are
    (duration, rate) pairs."""

    segments: Tuple[Tuple[float, float], ...]
    cycle: bool = True

    def __post_init__(self):
        if not self.segments:
            raise ValueError("need at least one segment")
        for d, r in self.segments:
            if d <= 0 or r < 0:
                raise ValueError("durations must be positive, rates nonnegative")

    @property
    def max_rate(self) -> float:
        return max(r for _, r in self.segments)

    def intensity(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        durs = np.array([d for d, _ in self.segments])
        rates = np.array([r for _, r in self.segments])
        edges = np.concatenate([[0.0], np.cumsum(durs)])
        period = edges[-1]
        tt = np.mod(t, period) if self.cycle else t
        idx = np.clip(np.searchsorted(edges, tt, side="right") - 1, 0, len(rates) - 1)
        return np.where(tt < period, rates[idx], 0.0)

    def integral(self, horizon: float) -> float:
        """Integral of the intensity over [0, horizon]."""
        durs = np.array([d for d, _ in self.segments])
        rates = np.array([r for _, r in self.segments])
        period = float(durs.sum())
        per_cycle = float((durs * rates).sum())
        if not self.cycle and horizon > period:
            horizon = period
        full, rem = divmod(horizon, period)
        total = full * per_cycle
        for d, r in self.segments:
            if rem <= 0:
                break
            step = min(d, rem)
            total += step * r
            rem -= step
        return total


@dataclass(frozen=True)
class DeterministicSchedule:
    """Explicit absolute event times (test primitive)."""

    times: Tuple[float, ...]


ArrivalSpec = Union[PoissonProcess, RenewalProcess, CoxPiecewise, DeterministicSchedule]


@dataclass(frozen=True)
class DeterministicCycle:
    """Explicit inter-event intervals, cycled (test primitive)."""

    intervals: Tuple[float, ...]


ServiceSpec = Union[PoissonProcess, RenewalProcess, DeterministicCycle]


@dataclass(frozen=True)
class ExponentialPatience:
    rate: float

    def draw(self, rng: np.random.Generator, k: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size=k)


@dataclass(frozen=True)
class FixedPatience:
    """Deterministic patience values, cycled over arrival index."""

    values: Tuple[float, ...]

    def draw(self, rng: np.random.Generator, k: int) -> np.ndarray:
        v = np.asarray(self.values, dtype=float)
        reps = int(np.ceil(k / v.size))
        return np.tile(v, reps)[:k]


PatienceSpec = Union[ExponentialPatience, FixedPatience]


# -- samplers ---------------------------------------------------------------

def sample_poisson_times(rate: float, horizon: float, rng: np.random.Generator) -> np.ndarray:
    if horizon <= 0 or rate == 0:
        return np.empty(0)
    count = rng.poisson(rate * horizon)
    return np.sort(rng.random(count)) * horizon


def sample_renewal_path(spec: RenewalSpec, horizon: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Jump times of a renewal process on [0, horizon] via inverse-CDF draws."""
    if horizon <= 0:
        return np.empty(0)
    if spec.ppf is None:
        raise ValueError(f"spec {spec.name} has no inverse CDF for sampling")
    times: List[float] = []
    t = 0.0
    batch = 256
    while True:
        draws = spec.ppf(rng.random(batch))
        for d in np.atleast_1d(draws):
            t += float(d)
            if t > horizon:
                return np.asarray(times)
            times.append(t)


def sample_cox_path(spec: CoxPiecewise, horizon: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Thinning against the constant dominating rate max_rate."""
    bound = spec.max_rate
    cand = sample_poisson_times(bound, horizon, rng)
    if cand.size == 0:
        return cand
    accept = rng.random(cand.size) < spec.intensity(cand) / bound
    return cand[accept]


def sample_arrivals(spec: ArrivalSpec, horizon: float,
                    rng: np.random.Generator) -> np.ndarray:
    if isinstance(spec, PoissonProcess):
        return sample_poisson_times(spec.rate, horizon, rng)
    if isinstance(spec, RenewalProcess):
        return sample_renewal_path(spec.spec, horizon, rng)
    if isinstance(spec, CoxPiecewise):
        return sample_cox_path(spec, horizon, rng)
    if isinstance(spec, DeterministicSchedule):
        return np.asarray([t for t in spec.times if t <= horizon], dtype=float)
    raise TypeError(f"unknown arrival spec {spec!r}")


class _ServiceDraws:
    """Per-server source of inter-jump intervals for the potential service
    process."""

    def __init__(self, spec: ServiceSpec, rng: np.random.Generator):
        self.spec = spec
        self.rng = rng
        self._cycle_idx = 0

    def next_interval(self) -> float:
        s = self.spec
        if isinstance(s, PoissonProcess):
            if s.rate <= 0:
                return INF
            return float(self.rng.exponential(1.0 / s.rate))
        if isinstance(s, RenewalProcess):
            return float(s.spec.ppf(self.rng.random()))
        if isinstance(s, DeterministicCycle):
            v = s.intervals[self._cycle_idx % len(s.intervals)]
            self._cycle_idx += 1
            return float(v)
        raise TypeError(f"unknown service spec {s!r}")


# -- reneging model ---------------------------------------------------------

EventRecord = Tuple[float, str, int, int]  # (t, kind, customer_id, server_id)


@dataclass
class SystemState:
    n: int
    clock: float = 0.0
    arrived: int = 0
    routed: int = 0
    reneged: int = 0
    departed: int = 0
    queued: int = 0
    busy: int = 0
    server_busy: List[bool] = field(default_factory=list)
    server_routed: List[int] = field(default_factory=list)
    server_departed: List[int] = field(default_factory=list)

    def check(self):
        """Balance and work-conservation invariants."""
        assert self.queued == self.arrived - self.routed - self.reneged, \
            f"queue balance broken: {self}"
        assert self.queued >= 0, f"negative queue: {self}"
        assert self.busy == sum(self.server_busy), f"busy count broken: {self}"
        x = self.queued + self.busy
        assert self.busy == min(x, self.n), \
            f"work conservation broken (idle server with waiting work): {self}"
        assert self.routed == sum(self.server_routed), f"routing split broken: {self}"
        for j in range(self.n):
            b = (1 if self.server_busy[j] else 0)
            assert self.server_routed[j] - self.server_departed[j] == b, \
                f"server {j} balance broken: {self}"


@dataclass
class SimRun:
    log: List[EventRecord]
    state: SystemState
    reneging_count: int
    arrival_count: int


_DEPART, _ARRIVE, _EXPIRE = 0, 1, 2


def simulate_reneging(n: int, horizon: float, arrival: ArrivalSpec,
                      patience: PatienceSpec, services: Union[ServiceSpec, Sequence[ServiceSpec]],
                      seed: int = 0, rep: int = 0, assert_mode: bool = False,
                      initial_customers: int = 0) -> SimRun:
    """Event-driven run of the many-server queue with reneging.

    Semantics at a shared event time: departures are realized first, then
    same-instant arrivals join the back of the FIFO queue, then waiting
    customers are matched to idle servers (head of the queue to lowest idle
    server index), and only then do unrouted expired customers renege —
    routing has priority over reneging at ties. Departures are driven by each
    server's potential service process as a function of its cumulative busy
    time, so a customer's service duration is the residual of the server's
    current renewal cycle.

    The queue, the heap of idle servers and the counters carry over from one
    event to the next, so each event costs O(log n).
    """
    if n < 1:
        raise ValueError("need at least one server")
    arr_rng = make_stream(seed, rep, 1)
    pat_rng = make_stream(seed, rep, 2)
    arrivals = sample_arrivals(arrival, horizon, arr_rng)
    if initial_customers > 0:
        arrivals = np.concatenate([np.zeros(initial_customers), arrivals])
    patience_vals = patience.draw(pat_rng, len(arrivals))

    if isinstance(services, (PoissonProcess, RenewalProcess, DeterministicCycle)):
        services = [services] * n
    if len(services) != n:
        raise ValueError("need one service spec per server")
    draws = [_ServiceDraws(s, make_stream(seed, rep, 10 + j)) for j, s in enumerate(services)]

    # server state
    busy = [False] * n
    busy_accum = [0.0] * n      # cumulative busy time consumed
    next_jump = [d.next_interval() for d in draws]  # busy-time of next potential departure
    cust_on = [-1] * n
    free = list(range(n))       # heap of idle server ids

    waiting: Dict[int, None] = {}  # waiting customer indices, FIFO (= insertion order)
    events: List[Tuple[float, int, int, int]] = []  # (t, kind, seq, id)
    seq = 0
    for i, t in enumerate(arrivals):
        heapq.heappush(events, (float(t), _ARRIVE, seq, i))
        seq += 1

    log: List[EventRecord] = []
    state = SystemState(n=n, server_busy=busy,
                        server_routed=[0] * n, server_departed=[0] * n)

    while events:
        t0 = events[0][0]
        if t0 > horizon:
            break
        departing: List[int] = []
        arriving: List[int] = []
        expiring: List[int] = []
        while events and events[0][0] == t0:
            _, kind, _, ident = heapq.heappop(events)
            if kind == _DEPART:
                departing.append(ident)
            elif kind == _ARRIVE:
                arriving.append(ident)
            else:
                expiring.append(ident)

        # 1. realize departures: free the server, advance its service clock
        for j in departing:
            state.departed += 1
            state.server_departed[j] += 1
            state.busy -= 1
            log.append((t0, "departure", cust_on[j], j))
            busy[j] = False
            cust_on[j] = -1
            heapq.heappush(free, j)
            busy_accum[j] = next_jump[j]
            next_jump[j] = busy_accum[j] + draws[j].next_interval()

        # 2. same-instant arrivals (popped in index order, since seq == index)
        #    join the back of the queue
        for i in arriving:
            state.arrived += 1
            log.append((t0, "arrival", i, -1))
            waiting[i] = None

        # 3. matching: head of the queue to lowest free server
        while waiting and free:
            i = next(iter(waiting))
            del waiting[i]
            j = heapq.heappop(free)
            state.routed += 1
            state.server_routed[j] += 1
            state.busy += 1
            busy[j] = True
            cust_on[j] = i
            log.append((t0, "routing", i, j))
            heapq.heappush(events, (t0 + (next_jump[j] - busy_accum[j]), _DEPART, seq, j))
            seq += 1

        # 4. schedule the patience expiry of the arrivals left waiting
        for i in arriving:
            if i in waiting:
                heapq.heappush(events, (t0 + float(patience_vals[i]), _EXPIRE, seq, i))
                seq += 1

        # 5. reneging: expired and still waiting
        for i in expiring:
            if i in waiting:
                del waiting[i]
                state.reneged += 1
                log.append((t0, "reneging", i, -1))

        # busy-time bookkeeping for servers that remained busy through t0 is
        # implicit: accumulation happens only at departures
        state.clock = t0
        state.queued = len(waiting)
        if assert_mode:
            state.check()

    state.clock = horizon
    return SimRun(log=log, state=state, reneging_count=state.reneged,
                  arrival_count=state.arrived)


def event_log_csv(log: Sequence[EventRecord]) -> str:
    lines = ["t,kind,customer_id,server_id"]
    for t, kind, cid, sid in log:
        lines.append(f"{t!r},{kind},{cid},{sid}")
    return "\n".join(lines) + "\n"


# -- multiclass priority queue ---------------------------------------------

@dataclass
class MulticlassRun:
    terminal: np.ndarray          # X^n(T) per class
    arrivals: np.ndarray
    departures: np.ndarray
    busy_time: np.ndarray         # U_i(T)
    queue_area: np.ndarray        # integral of X_i dt


def simulate_multiclass_priority(inst: SchedulingInstance, priority: Sequence[int],
                                 n: int, horizon: float, seed: int = 0, rep: int = 0,
                                 assert_mode: bool = False) -> MulticlassRun:
    """Preempt-resume fixed-priority single server with Markovian primitives
    accelerated by n (arrival rates n lambda_i, potential service rates
    n mu_i), zero initial condition. Serves the highest-priority nonempty
    class; each class's potential service process runs on that class's
    cumulative service time."""
    nc = inst.num_classes
    if sorted(priority) != list(range(nc)):
        raise ValueError("priority must be a permutation of the classes")
    arr_times = [sample_poisson_times(inst.arrival_rates[i] * n, horizon,
                                      make_stream(seed, rep, 100 + i))
                 for i in range(nc)]
    srv_rng = [make_stream(seed, rep, 200 + i) for i in range(nc)]

    x = np.zeros(nc, dtype=int)
    u = np.zeros(nc)
    next_jump = np.array([srv_rng[i].exponential(1.0 / (inst.service_rates[i] * n))
                          for i in range(nc)])
    arr_idx = [0] * nc
    arrivals = np.zeros(nc, dtype=int)
    departures = np.zeros(nc, dtype=int)
    area = np.zeros(nc)
    now = 0.0

    while True:
        active = next((i for i in priority if x[i] > 0), None)
        t_arr, i_arr = INF, -1
        for i in range(nc):
            if arr_idx[i] < len(arr_times[i]) and arr_times[i][arr_idx[i]] < t_arr:
                t_arr, i_arr = arr_times[i][arr_idx[i]], i
        t_dep = now + (next_jump[active] - u[active]) if active is not None else INF
        t = min(t_arr, t_dep, horizon)
        area += x * (t - now)
        if active is not None:
            u[active] += t - now
        now = t
        if now >= horizon:
            break
        if t_dep <= t_arr:
            x[active] -= 1
            departures[active] += 1
            next_jump[active] = u[active] + srv_rng[active].exponential(
                1.0 / (inst.service_rates[active] * n))
        else:
            x[i_arr] += 1
            arrivals[i_arr] += 1
            arr_idx[i_arr] += 1
        if assert_mode:
            assert np.all(x >= 0), "negative queue length"
            assert np.all(x == arrivals - departures), "class balance broken"
            assert u.sum() <= now + 1e-9, "server effort exceeds elapsed time"

    return MulticlassRun(terminal=x.copy(), arrivals=arrivals, departures=departures,
                         busy_time=u.copy(), queue_area=area)


# -- Monte-Carlo estimators -------------------------------------------------

@dataclass
class McEstimate:
    point: Optional[float]
    std_err: float
    replications: int
    seed: int
    estimable: bool = True


def _aggregate_log_mean(log_y: np.ndarray, scale: float, seed: int) -> McEstimate:
    """(1/scale) log mean(exp(log_y)) with a delta-method standard error."""
    reps = len(log_y)
    finite = np.isfinite(log_y)
    if not np.any(finite):
        return McEstimate(None, INF, reps, seed, estimable=False)
    log_mean = float(logsumexp(log_y[finite])) - math.log(reps)
    log_m2 = float(logsumexp(2.0 * log_y[finite])) - math.log(reps)
    rel_var = max(math.exp(min(log_m2 - 2.0 * log_mean, 700.0)) - 1.0, 0.0)
    se_log = math.sqrt(rel_var / reps)
    return McEstimate(log_mean / scale, se_log / abs(scale), reps, seed)


def _renewal_tilted_tables(spec: RenewalSpec, ref_rate: float, al: float,
                           x_max: float = 200.0, n_grid: int = 40001):
    """Grids for the alpha-tilted renewal measure: cumulative tilted hazard
    (for sampling by inversion) and the cumulative weight exponent
    F(x) = integral of (h~ - alpha h + (alpha-1) ref) over (0, x)."""
    x = np.linspace(0.0, x_max, n_grid)
    h = np.maximum(np.asarray(spec.hazard(x), dtype=float), 0.0)
    h_tilt = h ** al * ref_rate ** (1.0 - al)
    dx = x[1] - x[0]
    cum = lambda v: np.concatenate([[0.0], np.cumsum((v[1:] + v[:-1]) * 0.5 * dx)])
    cum_tilt = cum(h_tilt)
    weight = cum(h_tilt - al * h + (al - 1.0) * ref_rate)
    return x, h, h_tilt, cum_tilt, weight


def mc_renyi_rate(q_spec: Union[PoissonProcess, CoxPiecewise, RenewalProcess],
                  ref_rate: float, a: OrderLike, horizon: float, reps: int,
                  seed: int = 0, sampling: str = "tilted") -> McEstimate:
    """Monte-Carlo estimate of the order-alpha divergence rate of q_spec
    against a Poisson(ref_rate) reference on [0, horizon].

    sampling="reference" follows the plain likelihood-ratio construction:
    sample the counting process under the reference and average the
    alpha-th power of the Radon-Nikodym derivative. Its relative variance
    grows exponentially in horizon * (x^alpha - 1)^2, so it is only usable
    for mild tilts.

    sampling="tilted" (default) applies the exact exponential change of
    measure: paths are drawn under the alpha-tilted intensity, against
    which the weighted likelihood ratio reduces to
    exp(integral of alpha(alpha-1) ref k_alpha(intensity/ref)) along the
    sampled path. For deterministic intensities this is exact (zero
    variance); for renewal targets it has moderate variance at any horizon.
    """
    al = as_order(a).alpha
    abar = al * (al - 1.0)
    if reps < 2:
        raise ValueError("need at least two replications")
    if isinstance(q_spec, PoissonProcess):
        q_spec = CoxPiecewise(((1.0, q_spec.rate),), cycle=True)

    if isinstance(q_spec, CoxPiecewise):
        if sampling == "tilted":
            tilted = CoxPiecewise(tuple((d, r ** al * ref_rate ** (1.0 - al))
                                        for d, r in q_spec.segments), q_spec.cycle)
            # the jump terms cancel exactly; log-weight is deterministic
            log_y = (tilted.integral(horizon) - al * q_spec.integral(horizon)
                     + (al - 1.0) * ref_rate * horizon)
            return McEstimate(log_y / (abar * horizon), 0.0, reps, seed)
        log_y = np.empty(reps)
        drift = -(q_spec.integral(horizon) - ref_rate * horizon)
        for r in range(reps):
            rng = make_stream(seed, r, 3)
            jumps = sample_poisson_times(ref_rate, horizon, rng)
            with np.errstate(divide="ignore"):
                jump_sum = float(np.sum(np.log(q_spec.intensity(jumps) / ref_rate))) \
                    if jumps.size else 0.0
            log_y[r] = al * (drift + jump_sum)
        return _aggregate_log_mean(log_y, abar * horizon, seed)

    if isinstance(q_spec, RenewalProcess):
        spec = q_spec.spec
        if spec.hazard is None or spec.cum_hazard is None:
            raise ValueError("renewal spec needs hazard machinery for the oracle")
        if sampling == "tilted":
            x, h, h_tilt, cum_tilt, weight = _renewal_tilted_tables(spec, ref_rate, al)
            if cum_tilt[-1] < 30.0:
                raise ValueError("tilted hazard table too short for inversion sampling")
            log_y = np.empty(reps)
            for r in range(reps):
                rng = make_stream(seed, r, 3)
                t, lw = 0.0, 0.0
                while True:
                    e = rng.exponential()
                    gap = float(np.interp(e, cum_tilt, x))
                    if t + gap >= horizon:
                        rem = horizon - t
                        lw += float(np.interp(rem, x, weight))
                        break
                    lw += float(np.interp(gap, x, weight))
                    t += gap
                log_y[r] = lw
            return _aggregate_log_mean(log_y, abar * horizon, seed)
        # reference sampling: Poisson path, renewal/Poisson likelihood ratio
        log_y = np.empty(reps)
        lr0 = math.log(ref_rate)
        for r in range(reps):
            rng = make_stream(seed, r, 3)
            jumps = sample_poisson_times(ref_rate, horizon, rng)
            gaps = np.diff(np.concatenate([[0.0], jumps]))
            tail = horizon - (jumps[-1] if jumps.size else 0.0)
            integral = float(np.sum(spec.cum_hazard(gaps))) + float(spec.cum_hazard(tail))
            with np.errstate(divide="ignore"):
                jump_sum = float(np.sum(np.log(np.maximum(spec.hazard(gaps), 0.0)))) \
                    - jumps.size * lr0 if jumps.size else 0.0
            log_y[r] = al * (-(integral - ref_rate * horizon) + jump_sum)
        return _aggregate_log_mean(log_y, abar * horizon, seed)

    raise TypeError(f"unsupported process spec {q_spec!r}")


def mc_tail_probability(n: int, horizon: float, gamma: float, lam: float,
                        mu: float = 1.0, theta: float = 1.0, reps: int = 2000,
                        seed: int = 0) -> McEstimate:
    """Naive Monte-Carlo estimate of (1/(t n)) log P(R^n(t)/(t n) > gamma)
    for the Markovian reneging model. Wilson-interval error band on the log
    scale; unestimable when no replication hits the event."""
    hits = 0
    for r in range(reps):
        run = simulate_reneging(
            n=n, horizon=horizon,
            arrival=PoissonProcess(lam * n),
            patience=ExponentialPatience(theta),
            services=PoissonProcess(mu),
            seed=seed, rep=r)
        if run.reneging_count / (horizon * n) > gamma:
            hits += 1
    scale = horizon * n
    if hits == 0:
        return McEstimate(None, INF, reps, seed, estimable=False)
    p_hat = hits / reps
    z = 1.0
    denom = 1.0 + z * z / reps
    center = (p_hat + z * z / (2 * reps)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / reps + z * z / (4 * reps * reps)) / denom
    lo = max(center - half, 1.0 / (10.0 * reps))
    hi = min(center + half, 1.0)
    point = math.log(p_hat) / scale
    std_err = (math.log(hi) - math.log(lo)) / 2.0 / scale
    return McEstimate(point, std_err, reps, seed)
