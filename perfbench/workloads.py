"""The four workloads: serve-hot, serve-churn, net-hot and campaign-fig9.

Each workload is a closed loop driven from one client process: callers
wait for their answers before sending more. A workload generates its
inputs with :mod:`inputs` before the clock starts, imports the program
in :meth:`Workload.setup` (so set-up time covers the import), times only
the phase in which it calls the program, and records every answer in a
:class:`checks.Ledger` as it arrives (checked when its request is first
seen, compared bit for bit when it recurs), tallied once the timed phase
is over.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from checks import (
    IDEAL_FACTOR,
    Ledger,
    check_campaign_round,
    fig9_order_holds,
    own_solutions,
    percentile,
)

HERE = Path(__file__).resolve().parent

ONE_STAGE, TWO_STAGE, ORIGINAL = "blockamc-1stage", "blockamc-2stage", "original-amc"

#: serve-hot working set: (family, n, solver), every combination twice;
#: all 24 stay resident in the one shard's cache (default capacity 32).
HOT_LAYOUT = tuple(
    (family, n, solver)
    for n in (64, 96, 128)
    for family in ("wishart", "toeplitz")
    for solver in (ONE_STAGE, TWO_STAGE)
) * 2
#: Right-hand sides per hot system; requests recur over this pool.
HOT_RHS = 32
#: Requests a hot workload's client keeps outstanding (deep enough to batch).
HOT_WINDOW = 128
#: Cadence of the serve-hot dashboard's ``metrics()`` poll (seconds).
POLL_S = 0.1

#: serve-churn: right-hand sides per matrix visit (one miss, then hits).
CHURN_RHS = 4
#: A revisit every 8th visit, of the matrix 257 visits back: long evicted
#: (each shard caches 32 solvers), and always a first visit itself.
CHURN_REVISIT_EVERY, CHURN_LAG = 8, 257
CHURN_SIZES = (32, 48, 64)
#: Per-operation noise (volts, vs a 1 V full scale) keeping every
#: request off the coalesced path.
CHURN_NOISE_V = 2e-4

#: net-hot working set: small systems, where transport outweighs the kernel.
NET_LAYOUT = tuple(
    (family, n, ONE_STAGE) for n in (16, 24, 32) for family in ("wishart", "toeplitz")
) * 4

#: campaign-fig9: one round is a fresh Fig. 9 sweep with its own seed.
FIG9_SOLVERS = (ORIGINAL, ONE_STAGE, TWO_STAGE)
FIG9_FAMILIES = ("wishart", "toeplitz")
FIG9_SIZES = (16, 24, 32, 40, 48, 56, 64)
FIG9_TRIALS = 16

#: Width of the throughput slices of a serving run (seconds).
SLICE_S = 1.0
#: Least answers per block of the tail estimate: each block's 99th percentile
#: has ten answers beyond it, and their median shrugs off a burst of
#: interference from outside the run that one pooled percentile would not.
P99_BLOCK = 1000

#: Seeds of requests outside the timed phase (never collide with it).
UNTIMED_SEED = 1 << 40
#: First index of systems used outside the timed phase.
WARM_INDEX = 1 << 30


@dataclass
class Outcome:
    """What the timed phase produced."""

    solves: int = 0
    window: tuple = (0.0, 0.0)
    #: Per-answer latency samples (seconds), in the order answers arrived.
    latencies: array = field(default_factory=lambda: array("d"))
    #: ``(seed, submitted, answered)`` per request (net-hot, traced runs).
    requests: list = field(default_factory=list)
    #: Throughput of each whole slice of the timed phase (solves/s); their
    #: median is ``solves_per_s``, so a burst of interference from outside
    #: the run moves it less than a mean over the whole phase would.
    rates: list = field(default_factory=list)


def slice_rates(start: float, answered, width: float = SLICE_S) -> list[float]:
    """Answers per second in each whole ``width`` slice after ``start``."""
    answered = np.asarray(answered)
    slices = int((answered.max() - start) // width) if answered.size else 0
    counts = np.bincount(((answered - start) // width).astype(int), minlength=slices)
    return (counts[:slices] / width).tolist()


class Workload:
    """One workload: inputs, set-up, timed phase, checks, teardown."""

    name = ""

    def __init__(self, seed: int, cores: int, scratch: Path, trace_dir=None, delay=None):
        self.seed = seed
        self.cores = cores
        self.scratch = scratch
        #: Span directory of a traced run, and a ``target=seconds`` delay of
        #: the sensitivity check; only the net tier passes them on (to its
        #: server process).
        self.trace_dir = trace_dir
        self.delay = delay
        self.ledger = Ledger()
        self.ideal_ledger = Ledger(accuracy_factor=IDEAL_FACTOR)
        #: Worker count of the tier (threads or processes) for busy ratios.
        self.workers = cores

    def prepare_inputs(self) -> None:
        """Generate inputs (before the set-up clock starts)."""

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, keep_requests: bool = False) -> Outcome:
        raise NotImplementedError

    def post_check(self) -> None:
        """Requests sent after the timed phase (ideal-hardware checks)."""

    def teardown(self) -> None:
        raise NotImplementedError

    def errors(self) -> list[float]:
        self.ledger.verify()
        self.ideal_ledger.verify()
        return self.ledger.errors

    def counts(self) -> tuple[int, int, dict]:
        reasons = dict(self.ledger.reasons + self.ideal_ledger.reasons)
        return (
            self.ledger.attempted + self.ideal_ledger.attempted,
            self.ledger.failed + self.ideal_ledger.failed,
            reasons,
        )


def _ideal_requests(service, systems, ledger) -> None:
    """Ideal hardware through the running service: exact to the float64 bound."""
    from repro.amc.config import HardwareConfig

    ideal = HardwareConfig.ideal()
    for k, system in enumerate(systems):
        b = system.rhs[0]
        try:
            result = service.submit(
                system.matrix, b, solver=system.solver, hardware=ideal,
                prep_seed=system.prep_seed, seed=UNTIMED_SEED + k,
            ).result()
        except Exception as exc:  # the program failed this request
            ledger.record_failure(f"ideal request raised {type(exc).__name__}")
            continue
        ledger.record(("ideal", k), own_solutions(system.matrix, [b])[0], result.x,
                      result.reference, result.relative_error)


# ----------------------------------------------------------------------
# serve-hot and net-hot
# ----------------------------------------------------------------------


class HotWorkload(Workload):
    """One pipelined client over a fixed hot set, every system prepared in set-up.

    Subclasses start their tier in :meth:`start`, returning the object
    whose ``submit`` sends a request.
    """

    layout: tuple = ()

    def prepare_inputs(self) -> None:
        self.systems = inputs.hot_set(self.seed, self.layout, HOT_RHS)
        self.problems = [own_solutions(s.matrix, s.rhs) for s in self.systems]
        self.stream = inputs.request_stream(self.seed, len(self.systems), HOT_RHS, 1 << 20)

    def start(self):
        raise NotImplementedError

    def setup(self) -> None:
        self.endpoint = self.start()
        from repro.serve import matrix_digest

        self.digests = [matrix_digest(s.matrix) for s in self.systems]
        # Prepare every system once, then one window of warm traffic.
        for k, system in enumerate(self.systems):
            self._submit(system, 0, UNTIMED_SEED + k).result()
        tickets = [
            self._submit(self.systems[k % len(self.systems)], 1, UNTIMED_SEED + 100 + k)
            for k in range(HOT_WINDOW)
        ]
        for ticket in tickets:
            ticket.result()

    def _submit(self, system, r, seed):
        return self.endpoint.submit(
            system.matrix, system.rhs[r], solver=system.solver,
            prep_seed=system.prep_seed, seed=seed, digest=self.digests[system.index],
        )

    def on_answer(self, answered: float) -> None:
        """Called after each answer of the timed phase is recorded."""

    def run(self, seconds, keep_requests=False):
        systems, (sys_idx, rhs_idx) = self.systems, self.stream
        ledger = self.ledger
        window: deque = deque()
        latencies, done_at, requests = array("d"), array("d"), []
        i = 0
        t0 = time.perf_counter()
        t_end = t0 + seconds
        submitting = True
        while submitting or window:
            while submitting and len(window) < HOT_WINDOW:
                system, r = systems[sys_idx[i]], int(rhs_idx[i])
                submitted = time.perf_counter()
                try:
                    window.append((system, r, i, submitted, self._submit(system, r, i)))
                except Exception as exc:
                    ledger.record_failure(f"submit raised {type(exc).__name__}")
                i += 1
            system, r, seed, submitted, ticket = window.popleft()
            try:
                result = ticket.result()
            except Exception as exc:
                ledger.record_failure(f"request raised {type(exc).__name__}")
                continue
            answered = time.perf_counter()
            latencies.append(answered - submitted)
            done_at.append(answered)
            if keep_requests:
                requests.append((seed, submitted, answered))
            ledger.record((system.index, r), self.problems[system.index][r],
                          result.x, result.reference, result.relative_error)
            self.on_answer(answered)
            if answered >= t_end:
                submitting = False
        t1 = time.perf_counter()
        return Outcome(len(latencies), (t0, t1), latencies, requests, slice_rates(t0, done_at))


class ServeHot(HotWorkload):
    """Thread tier, full-telemetry results, with a dashboard polling ``metrics()``."""

    name = "serve-hot"
    layout = HOT_LAYOUT

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # One shard: thread shards share one interpreter lock, so at these
        # sizes a second adds contention rather than parallelism, and
        # digest sharding splits a small hot set unevenly (five seeds:
        # two workers 772-1066 solves/s, one 932-1032).
        self.workers = 1
        self.service = None

    def start(self):
        from repro.serve import ServiceConfig, SolverService

        self.service = SolverService(ServiceConfig(workers=self.workers))
        return self.service

    def setup(self) -> None:
        super().setup()
        self.service.metrics()

    def run(self, seconds, keep_requests=False):
        self.next_poll = time.perf_counter() + POLL_S
        return super().run(seconds, keep_requests)

    def on_answer(self, answered: float) -> None:
        if answered >= self.next_poll:
            self.service.metrics()
            self.next_poll += POLL_S

    def post_check(self) -> None:
        _ideal_requests(self.service, self.systems[:4], self.ideal_ledger)

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()


class NetHot(HotWorkload):
    """Process tier: one pipelined TCP connection to a server process."""

    name = "net-hot"
    layout = NET_LAYOUT

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Server, its workers and this client share the cores.
        self.workers = max(1, self.cores - 1)
        self.server = None
        self.client = None

    def start(self):
        command = [sys.executable, str(HERE / "netserver.py"), "--workers", str(self.workers)]
        if self.trace_dir is not None:
            command += ["--trace-dir", str(self.trace_dir)]
        if self.delay is not None:
            command += ["--delay", self.delay]
        self.server = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        from repro.serve.net import NetClient

        line = self.server.stdout.readline().split()
        if len(line) != 2 or line[0] != "PORT":
            raise RuntimeError(f"net server did not start (said {line!r})")
        self.client = NetClient("127.0.0.1", int(line[1]))
        return self.client

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            try:
                self.server.stdin.write("stop\n")
                self.server.stdin.close()
            except OSError:
                pass
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            if self.server.returncode != 0:
                raise RuntimeError(f"net server exited with {self.server.returncode}")


# ----------------------------------------------------------------------
# serve-churn
# ----------------------------------------------------------------------


def churn_layout(m: int) -> tuple:
    """(family, n, solver) of churn matrix ``m``: a fixed cycle, so cost is seed-free."""
    return (
        ("wishart", "toeplitz")[m % 2],
        CHURN_SIZES[(m // 2) % len(CHURN_SIZES)],
        (ONE_STAGE, TWO_STAGE)[(m // 6) % 2],
    )


def churn_matrix_of(visit: int) -> int:
    """Matrix index of one visit: new, or a first visit from CHURN_LAG back."""
    if visit >= CHURN_LAG and visit % CHURN_REVISIT_EVERY == CHURN_REVISIT_EVERY - 1:
        return visit - CHURN_LAG
    return visit


class ServeChurn(Workload):
    """One blocking caller per core; every matrix new or long evicted."""

    name = "serve-churn"

    def churn_system(self, m: int):
        family, n, solver = churn_layout(m)
        return inputs.make_system(self.seed, m, family, n, solver, CHURN_RHS)

    def setup(self) -> None:
        import dataclasses

        from repro.amc.config import HardwareConfig
        from repro.serve import ServiceConfig, SolverService

        base = HardwareConfig.paper_variation()
        self.hardware = base.with_(
            opamp=dataclasses.replace(base.opamp, output_noise_sigma_v=CHURN_NOISE_V),
            sample_hold=dataclasses.replace(base.sample_hold, noise_sigma_v=CHURN_NOISE_V),
        )
        self.service = SolverService(ServiceConfig(workers=self.cores))
        # Fill every shard's cache with matrices outside the run's range, so
        # the timed phase runs at steady state: each miss evicts an entry.
        # Digest sharding is uneven; 1.5x the total capacity fills each
        # shard with near certainty.
        warm = 3 * self.service.config.cache_capacity * self.cores // 2

        def warm_caller(c):
            for k in range(c, warm, self.cores):
                self._solve(self.churn_system(WARM_INDEX + k), 0, UNTIMED_SEED + k)

        threads = [threading.Thread(target=warm_caller, args=(c,)) for c in range(self.cores)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def _solve(self, system, j, seed):
        return self.service.submit(
            system.matrix, system.rhs[j], solver=system.solver, hardware=self.hardware,
            prep_seed=system.prep_seed, seed=seed,
        ).result()

    def run(self, seconds, keep_requests=False):
        ledger, lock = self.ledger, threading.Lock()
        latencies = [array("d") for _ in range(self.cores)]
        done_at = [array("d") for _ in range(self.cores)]
        t0 = time.perf_counter()
        t_end = t0 + seconds

        def caller(c):
            visit = c
            while time.perf_counter() < t_end:
                m = churn_matrix_of(visit)
                system = self.churn_system(m)
                problems = own_solutions(system.matrix, system.rhs)
                for j in range(CHURN_RHS):
                    submitted = time.perf_counter()
                    try:
                        result = self._solve(system, j, m * CHURN_RHS + j)
                    except Exception as exc:
                        with lock:
                            ledger.record_failure(f"request raised {type(exc).__name__}")
                        continue
                    answered = time.perf_counter()
                    latencies[c].append(answered - submitted)
                    done_at[c].append(answered)
                    with lock:
                        ledger.record((m, j), problems[j], result.x, result.reference,
                                      result.relative_error)
                visit += self.cores

        threads = [threading.Thread(target=caller, args=(c,)) for c in range(self.cores)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        t1 = time.perf_counter()
        answered = np.concatenate(done_at)
        merged = np.concatenate(latencies)[np.argsort(answered, kind="stable")]
        return Outcome(len(merged), (t0, t1), array("d", merged), rates=slice_rates(t0, answered))

    def post_check(self) -> None:
        systems = [self.churn_system(WARM_INDEX + 100 + k) for k in (0, 1, 6, 7)]
        _ideal_requests(self.service, systems, self.ideal_ledger)

    def teardown(self) -> None:
        if getattr(self, "service", None) is not None:
            self.service.close()


# ----------------------------------------------------------------------
# campaign-fig9
# ----------------------------------------------------------------------


class CampaignFig9(Workload):
    """Back-to-back Fig. 9 campaign rounds, one pool worker per core."""

    name = "campaign-fig9"

    def setup(self) -> None:
        from repro.campaigns import CampaignSpec, run_campaign

        self._spec = CampaignSpec
        self._run_campaign = run_campaign
        self.store_root = self.scratch / "stores"
        self.store_root.mkdir(parents=True, exist_ok=True)
        warm = CampaignSpec(
            name="perfbench-fig9-warmup", solvers=FIG9_SOLVERS, families=FIG9_FAMILIES,
            sizes=(16,), trials=2, seed=self.seed, hardware="interconnect",
        )
        store = tempfile.mkdtemp(dir=self.store_root)
        try:
            run_campaign(warm, store, workers=self.cores)
        finally:
            shutil.rmtree(store, ignore_errors=True)

    def spec(self, round_index: int):
        return self._spec(
            name="perfbench-fig9",
            title="Fig. 9 shape: 5% variation plus 1 ohm wire segments",
            solvers=FIG9_SOLVERS, families=FIG9_FAMILIES, sizes=FIG9_SIZES,
            trials=FIG9_TRIALS, seed=inputs.campaign_seed(self.seed, round_index),
            hardware="interconnect",
        )

    def run(self, seconds, keep_requests=False):
        from repro.campaigns import ArtifactStore, expand

        latencies, rates, timed = array("d"), [], 0.0
        self.campaign_errors: list[float] = []
        one_stage, original = [], []
        solves_per_unit = len(FIG9_SOLVERS) * FIG9_TRIALS
        committed = 0
        t0 = time.perf_counter()
        round_index = 0
        while timed < seconds:
            spec = self.spec(round_index)
            units = expand(spec)
            store = tempfile.mkdtemp(dir=self.store_root)
            done: list[float] = []
            start = time.perf_counter()
            try:
                self._run_campaign(
                    spec, store, workers=self.cores,
                    progress=lambda unit, completed, total: done.append(time.perf_counter()),
                )
            except Exception as exc:  # counted below: its units are missing
                self.ledger.reasons[f"campaign raised {type(exc).__name__}"] += 1
            elapsed = time.perf_counter() - start
            timed += elapsed
            latencies.extend(t - start for t in done for _ in range(solves_per_unit))
            stored = ArtifactStore(store)
            arrays = {
                u.key: stored.load_unit(u.key)[0] for u in units if stored.has(u.key)
            }
            shutil.rmtree(store, ignore_errors=True)
            failed, reasons = check_campaign_round(
                arrays, [u.key for u in units], (len(FIG9_SOLVERS), FIG9_TRIALS)
            )
            self.ledger.attempted += len(units) * solves_per_unit
            self.ledger.failed += failed
            self.ledger.reasons.update(reasons)
            committed += len(arrays) * solves_per_unit
            rates.append(len(arrays) * solves_per_unit / elapsed)
            for unit in units:
                if unit.key not in arrays:
                    continue
                errors = arrays[unit.key]["relative_error"]
                finite = errors[np.isfinite(errors)]
                self.campaign_errors.extend(finite.tolist())
                if unit.family == "wishart" and unit.size >= 32:
                    one_stage.extend(errors[FIG9_SOLVERS.index(ONE_STAGE)].tolist())
                    original.extend(errors[FIG9_SOLVERS.index(ORIGINAL)].tolist())
            round_index += 1
        if not fig9_order_holds(one_stage, original):
            self.ledger.failed += len(one_stage)
            self.ledger.reasons["one-stage median error not below original AMC"] += len(one_stage)
        return Outcome(committed, (t0, time.perf_counter()), latencies, rates=rates)

    def errors(self) -> list[float]:
        return self.campaign_errors

    def teardown(self) -> None:
        shutil.rmtree(self.scratch / "stores", ignore_errors=True)


WORKLOADS = {w.name: w for w in (ServeHot, ServeChurn, NetHot, CampaignFig9)}


def tail_ms(latencies_ms) -> float:
    """Median, over consecutive blocks of at least :data:`P99_BLOCK` answers, of each block's p99."""
    blocks = len(latencies_ms) // P99_BLOCK
    if blocks == 0:
        print(f"warning: {len(latencies_ms)} answers support no 99th percentile", file=sys.stderr)
        return percentile(latencies_ms, 99)
    return float(np.median([
        percentile(block, 99) for block in np.array_split(np.asarray(latencies_ms), blocks)
    ]))


def end_to_end(outcome: Outcome, errors) -> dict:
    """End-to-end metrics of one untraced run (setup and memory added by the caller)."""
    latencies_ms = np.asarray(outcome.latencies) * 1e3
    return {
        "solves_per_s": float(np.median(outcome.rates)),
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p99_ms": tail_ms(latencies_ms),
        "rel_err_p50": percentile(errors, 50),
        "rel_err_p95": percentile(errors, 95),
    }
