"""The benchmark workloads: seeded inputs, set-up, timed phase, checks.

Every workload follows one shape (see :func:`run_workload`):

1. set up ``SETUPS`` times from the seed (inputs, potential, engine or
   scheduler, warm-up) and keep the last; ``setup_s`` is the median;
2. run the timed phase once - one ``MDLoop.run`` call for MD, a fixed
   number of closed-loop quanta for the service.  The amount of work is
   ``--seconds`` times a fixed nominal rate, so it depends only on the
   command line, never on how fast the host happens to be: the exact
   counters repeat for a seed and a later, faster program simply
   finishes sooner;
3. check the outputs outside the timed phase;
4. with ``--trace 1``, set up once more with the span wrappers of
   :mod:`spans` installed, repeat the timed phase and derive the
   per-layer metrics; the untraced phase of the same run is the
   reference for the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import shutil
import statistics
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.core import cg
from repro.core.indexing import SNAPIndex
from repro.core.snap import SNAP, SNAPParams
from repro.md import (AsyncTrajectoryWriter, LangevinThermostat, MDLoop,
                      TrajectoryReader, build_engine, build_pairs)
from repro.md import engine as md_engine
from repro.md import integrators as md_integrators
from repro.md import neighbor as md_neighbor
from repro.md import trajectory as md_trajectory
from repro.parallel import process_engine
from repro.parsplice import SegmentScheduler, TransitionOracle
from repro.parsplice import oracle as ps_oracle
from repro.parsplice import service as ps_service
from repro.parsplice import splicer as ps_splicer
from repro.potentials import LennardJones, SNAPPotential
from repro.potentials import lj as pot_lj
from repro.structures import lattice_system

from spans import Tracer, account

#: set-ups per run; setup_s is their median
SETUPS = 5

# --- lj_liquid_process: LAMMPS in.lj in argon units --------------------
LJ_EPS_K = 119.8           # epsilon / k_B [K]
LJ_EPS = LJ_EPS_K * 8.617333262e-5   # [eV]
LJ_SIGMA = 3.405           # [A]
LJ_MASS = 39.948           # [g/mol]
LJ_TAU = LJ_SIGMA * np.sqrt(LJ_MASS * 1.0364269e-4 / LJ_EPS)   # [ps]
LJ_RHO = 0.8442            # reduced density
LJ_TEMP = 1.44 * LJ_EPS_K  # [K]
LJ_REPS = (8, 8, 8)        # 2048 atoms
LJ_DT = 0.005 * LJ_TAU
LJ_DAMP = 100 * LJ_DT
LJ_SKIN = 0.3 * LJ_SIGMA
LJ_FRAME_EVERY = 20
#: nominal timed steps per --seconds
LJ_STEPS_PER_S = 10.0

# --- snap_carbon: TestSNAP-sized 2J=8 kernel problem ------------------
SNAP_PARAMS = SNAPParams(twojmax=8, rcut=3.0, y_mode="sparse", chunk=4096,
                         store_u="always")
SNAP_A = 3.57
SNAP_REPS = (3, 3, 3)      # 216 atoms, 28 neighbours each on the lattice
SNAP_RATTLE = 0.1          # [A] initial thermal-like disorder
SNAP_TEMP = 3000.0
SNAP_DT = 0.5e-3
SNAP_DAMP = 0.1
#: random beta drawn once from a fixed model seed, so every --seed runs
#: the same potential; at scale 0.01 the cell collapses within ~60 steps
#: (T > 1e5 K), at 1e-3 it stays a 3000-4500 K fluid
SNAP_BETA_SCALE = 1e-3
SNAP_MODEL_SEED = 2021
SNAP_STEPS_PER_S = 5.25
SNAP_SKIN = 0.3

# --- segment_service ---------------------------------------------------
SVC_STATES = 4
SVC_QUANTUM = 10           # fresh requests per quantum (5 rounds of 2)
SVC_REPLAY = 1.0 / 8.0     # share of requests followed by a re-submission
SVC_SEG_STEPS = 100
SVC_NWORKERS = 2
SVC_QUANTA_PER_S = 1.5
SVC_TIMEOUT_S = 120.0

#: warm-up MD steps after the first evaluation
WARMUP_STEPS = 2
#: step at which the process run is replayed on the serial backend
CHECK_STEPS = 10


def fingerprint(positions: np.ndarray, velocities: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(positions).tobytes())
    digest.update(np.ascontiguousarray(velocities).tobytes())
    return digest.hexdigest()[:16]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child [MB]."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Checks:
    """Operation and check ledger behind ``attempted``/``failed``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def ops(self, attempted: int, failed: int) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """One run-level check counts as one operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED {name}: {detail}")


class StepClock:
    """MDLoop observer: one timestamp per step plus a finiteness check.

    ``capture_step`` records the phase-space fingerprint at that step
    (used for the serial replay of the process run).
    """

    every = 1

    def __init__(self, capture_step: int = -1) -> None:
        self.stamps: list[float] = []
        self.bad_steps = 0
        self.capture_step = capture_step
        self.captured: str | None = None

    def observe(self, step, system, result) -> None:
        self.stamps.append(time.perf_counter())
        if not (np.isfinite(result.energy)
                and np.isfinite(result.forces.sum())):
            self.bad_steps += 1
        if step == self.capture_step:
            self.captured = fingerprint(system.positions, system.velocities)

    def step_ms(self) -> np.ndarray:
        return np.diff(np.asarray(self.stamps)) * 1e3


# ======================================================================
# tracing: the public entry points each layer is measured at
# ======================================================================
def install_tracer(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured ``repro`` layer."""
    wrap = tracer.wrap
    wrap(md_neighbor.NeighborList, "get", "neighbor.get")
    wrap(md_neighbor, "build_pairs", "neighbor.build",
         count_of=lambda batch: batch.npairs)
    wrap(pot_lj.LennardJones, "compute", "pair.compute")
    wrap(SNAP, "compute", "snap.compute")
    wrap(SNAP, "compute_utot", "snap.compute_ui")
    wrap(SNAP, "compute_forces_from_y", "snap.compute_dui_deidrj")
    wrap(md_integrators.VelocityVerlet, "first_half", "integrate.first_half")
    wrap(md_integrators.VelocityVerlet, "second_half",
         "integrate.second_half")
    wrap(md_integrators.LangevinThermostat, "add_forces",
         "integrate.langevin")
    wrap(md_engine.SerialEngine, "evaluate", "engine.evaluate")
    wrap(md_engine.MDLoop, "run", "engine.loop")
    wrap(md_engine.EngineSession, "run", "engine.session_run")
    wrap(md_engine.EngineSession, "bind", "service.bind")
    wrap(md_trajectory.AsyncTrajectoryWriter, "write_frame", "io.write_frame")
    wrap(md_trajectory.AsyncTrajectoryWriter, "flush", "io.flush")
    wrap(process_engine.ProcessEngine, "__init__", "process.build")
    wrap(process_engine.ProcessEngine, "evaluate", "process.evaluate")
    wrap(ps_service.SegmentScheduler, "request", "service.request",
         request_of=lambda a, kw: (a[1], a[2]))
    wrap(ps_service, "run_md_segment", "service.segment",
         request_of=lambda a, kw: (kw["state"], kw["seed"]))
    wrap(ps_splicer.SpliceEngine, "deposit", "service.splice")
    wrap(ps_oracle.TransitionOracle, "allocate", "service.oracle")


# ======================================================================
# MD workloads
# ======================================================================
class MDRun:
    """One set-up MD problem: engine + loop (+ trajectory writer)."""

    def __init__(self, engine, loop, natoms: int, writer=None,
                 tmpdir: Path | None = None) -> None:
        self.engine = engine
        self.loop = loop
        self.natoms = natoms
        self.writer = writer
        self.tmpdir = tmpdir

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.engine.close()
        if self.tmpdir is not None:
            shutil.rmtree(self.tmpdir, ignore_errors=True)


def lj_system(seed: int):
    a = (4.0 / LJ_RHO) ** (1.0 / 3.0) * LJ_SIGMA
    system = lattice_system("fcc", a=a, reps=LJ_REPS, mass=LJ_MASS)
    system.seed_velocities(LJ_TEMP, rng=np.random.default_rng([seed, 1]))
    return system


def lj_thermostat(seed: int) -> LangevinThermostat:
    rng = np.random.default_rng([seed, 2])
    return LangevinThermostat(temp=LJ_TEMP, damp=LJ_DAMP,
                              seed=int(rng.integers(2 ** 31)))


def build_lj(seed: int, backend: str, io: bool, scratch: Path) -> MDRun:
    system = lj_system(seed)
    pot = LennardJones(epsilon=LJ_EPS, sigma=LJ_SIGMA, cutoff=2.5 * LJ_SIGMA)
    kwargs = {"backend": "process", "nprocs": 2} if backend == "process" \
        else {"backend": "serial"}
    engine = build_engine(system, pot, skin=LJ_SKIN, **kwargs)
    writer = tmpdir = None
    if io:
        tmpdir = Path(tempfile.mkdtemp(prefix="traj-", dir=scratch))
        writer = AsyncTrajectoryWriter(tmpdir / "traj.bin",
                                       natoms=system.natoms)
    loop = MDLoop(engine, dt=LJ_DT, thermostat=lj_thermostat(seed),
                  trajectory=writer,
                  trajectory_every=LJ_FRAME_EVERY if io else 0)
    return MDRun(engine, loop, system.natoms, writer, tmpdir)


def snap_potential() -> SNAPPotential:
    rng = np.random.default_rng(SNAP_MODEL_SEED)
    beta = rng.normal(scale=SNAP_BETA_SCALE,
                      size=SNAPIndex(SNAP_PARAMS.twojmax).ncoeff)
    return SNAPPotential(SNAP_PARAMS, beta=beta)


def snap_system(seed: int, reps=SNAP_REPS):
    rng = np.random.default_rng([seed, 4, *reps])
    system = lattice_system("diamond", a=SNAP_A, reps=reps)
    system.positions = system.positions + rng.normal(
        scale=SNAP_RATTLE, size=system.positions.shape)
    system.seed_velocities(SNAP_TEMP, rng=rng)
    return system


def build_snap(seed: int, scratch: Path) -> MDRun:
    system = snap_system(seed)
    pot = snap_potential()
    engine = build_engine(system, pot, skin=SNAP_SKIN, backend="serial")
    rng = np.random.default_rng([seed, 5])
    loop = MDLoop(engine, dt=SNAP_DT,
                  thermostat=LangevinThermostat(
                      temp=SNAP_TEMP, damp=SNAP_DAMP,
                      seed=int(rng.integers(2 ** 31))))
    return MDRun(engine, loop, system.natoms)


def md_steps(name: str, seconds: float) -> int:
    """Timed steps: fixed by the command line, never by the host."""
    if name == "snap_carbon":
        return max(1, int(np.ceil(seconds * SNAP_STEPS_PER_S)))
    # end the LJ runs on a frame step so the last frame is the final state
    total = int(np.ceil((seconds * LJ_STEPS_PER_S + WARMUP_STEPS)
                        / LJ_FRAME_EVERY)) * LJ_FRAME_EVERY
    return total - WARMUP_STEPS


def md_factory(name: str):
    if name == "lj_liquid_process":
        return lambda seed, scratch: build_lj(seed, "process", True, scratch)
    return build_snap


def _stage(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None \
        else contextlib.nullcontext()


def setup_md(factory, seed: int, scratch: Path, tracer: Tracer | None):
    """Build + warm up; returns ``(run, build_s, first_eval_s)``."""
    t0 = time.perf_counter()
    with _stage(tracer, "setup.build"):
        run = factory(seed, scratch)
    t1 = time.perf_counter()
    with _stage(tracer, "setup.first_eval"):
        run.loop.run(WARMUP_STEPS)
    return run, t1 - t0, time.perf_counter() - t1


def timed_md(run: MDRun, nsteps: int) -> dict:
    clock = StepClock(capture_step=WARMUP_STEPS + CHECK_STEPS)
    run.loop.observers.append(clock)
    builds0 = run.engine.neighbor_builds
    bytes0 = run.writer.ledger.nbytes if run.writer is not None else 0
    timers0 = dict(run.engine.timers.totals)
    t0 = time.perf_counter()
    run.loop.run(nsteps)
    t1 = time.perf_counter()
    run.loop.observers.remove(clock)
    system = run.loop.system
    timers1 = dict(run.engine.timers.totals)
    return {
        "t0": t0, "t1": t1, "wall": t1 - t0, "nsteps": nsteps,
        "clock": clock,
        "builds": run.engine.neighbor_builds - builds0,
        "io_bytes": (run.writer.ledger.nbytes - bytes0
                     if run.writer is not None else 0),
        "engine_s": {k: timers1.get(k, 0.0) - timers0.get(k, 0.0)
                     for k in timers1},
        "energy": float(run.loop.last_result.energy),
        "fingerprint": fingerprint(system.positions, system.velocities),
    }


def md_checks(name: str, seed: int, run: MDRun, timed: dict,
              scratch: Path, checks: Checks) -> None:
    clock = timed["clock"]
    checks.ops(timed["nsteps"], clock.bad_steps)
    checks.check("final energy finite", np.isfinite(timed["energy"]))
    if name == "lj_liquid_process":
        run.writer.flush()
        final_step = run.loop.step
        with TrajectoryReader(run.writer.path) as reader:
            nframes = len(reader)
            last = reader.read(-1)
            truncated = reader.truncated
        expect = final_step // LJ_FRAME_EVERY + 1
        checks.check("trajectory frame count", nframes == expect
                     and not truncated, f"{nframes} frames, want {expect}")
        checks.check("last frame is the final state",
                     last.step == final_step and np.array_equal(
                         last.positions, run.loop.system.positions))
        replay = build_lj(seed, "serial", False, scratch)
        try:
            replay.loop.run(WARMUP_STEPS)
            replay.loop.run(CHECK_STEPS)
            system = replay.loop.system
            ref = fingerprint(system.positions, system.velocities)
        finally:
            replay.close()
        checks.check("process run bitwise equal to serial replay",
                     clock.captured == ref, f"{clock.captured} != {ref}")
    else:
        checks.check("SNAP policy pinned, no tuning DB consulted",
                     run.engine.potential.tuning_decision is None)
        ok, detail = snap_fd_check(seed)
        checks.check("SNAP forces match finite differences", ok, detail)


def snap_fd_check(seed: int, h: float = 1e-4, ncomp: int = 6):
    """Central differences of the energy on a 64-atom cell, same params."""
    system = snap_system(seed, reps=(2, 2, 2))
    pot = snap_potential()
    box, rc = system.box, pot.cutoff
    n = system.natoms

    def evaluate(pos):
        return pot.compute(n, build_pairs(pos, box, rc))

    forces = evaluate(system.positions).forces
    rng = np.random.default_rng([seed, 6])
    worst = 0.0
    for _ in range(ncomp):
        i, d = int(rng.integers(n)), int(rng.integers(3))
        plus = system.positions.copy()
        minus = system.positions.copy()
        plus[i, d] += h
        minus[i, d] -= h
        fd = -(evaluate(plus).energy - evaluate(minus).energy) / (2 * h)
        err = abs(fd - forces[i, d]) / max(1.0, abs(forces[i, d]))
        worst = max(worst, err)
    return worst < 1e-5, f"worst relative error {worst:.2e}"


# ======================================================================
# segment service
# ======================================================================
def service_states(seed: int):
    base = lattice_system("fcc", a=2.5, reps=(2, 2, 2))
    rng = np.random.default_rng([seed, 7])
    states = [base.copy()]
    for _ in range(SVC_STATES - 1):
        s = base.copy()
        s.positions = s.positions + rng.normal(scale=0.02,
                                               size=s.positions.shape)
        states.append(s)
    return states


class ServiceClient:
    """Closed-loop ParSplice client over one :class:`SegmentScheduler`.

    Each quantum asks the oracle for ``SVC_QUANTUM`` segments, requests
    them with explicit per-state seeds and waits for all of them.  A
    seeded 1-in-8 of the requests is followed by a re-submission of an
    earlier request, drawn uniformly from every fresh request made so
    far (the one just made included).  A drawn request of the current
    quantum is usually still running and is joined in flight; one of an
    earlier quantum is served from the cache.  Which of the two a
    re-submission meets can depend on worker timing, so only their sum
    is an exact counter.

    Segments are classified by the program's default classifier (every
    segment ends in its start state): the library states are rattles of
    one fcc cell, i.e. one basin.
    """

    def __init__(self, seed: int) -> None:
        self.sched = SegmentScheduler(
            service_states(seed), LennardJones(epsilon=0.2, sigma=2.2,
                                               cutoff=3.0),
            nworkers=SVC_NWORKERS, nsteps=SVC_SEG_STEPS, seed=seed)
        self.oracle = TransitionOracle(SVC_STATES)
        self.rng = np.random.default_rng([seed, 8])
        self.next_seed = [0] * SVC_STATES
        self.done: dict = {}          # key -> fingerprint of fresh segments
        self.submitted: list = []     # every fresh key, in request order
        self.digest = hashlib.sha256()
        self.reset()

    def reset(self) -> None:
        self.latency_ms: list[float] = []
        self.records: list = []       # (key, fresh, latency_ms)
        self.requests = 0
        self.failed = 0
        self.replay_mismatch = 0

    def quantum(self) -> None:
        alloc = self.oracle.allocate(self.sched.current_state, SVC_QUANTUM,
                                     horizon=4)
        jobs = []
        for state, count in enumerate(alloc):
            for _ in range(int(count)):
                key = (state, self.next_seed[state])
                self.next_seed[state] += 1
                jobs.append(self._submit(key, fresh=True))
                self.submitted.append(key)
                if self.rng.random() < SVC_REPLAY:
                    old = self.submitted[
                        int(self.rng.integers(len(self.submitted)))]
                    jobs.append(self._submit(old, fresh=False))
        fresh = {}
        for key, is_fresh, fut, t_sub, done in jobs:
            self.requests += 1
            try:
                # the done-callback fires after result() could return,
                # so wait on it: it carries the completion timestamp
                if not done[1].wait(SVC_TIMEOUT_S):
                    raise TimeoutError(f"segment {key} timed out")
                seg = fut.result()
            except Exception:  # any failed request counts, the loop goes on
                self.failed += 1
                continue
            ok = np.isfinite(seg.energy)
            if is_fresh:
                fresh[key] = seg.fingerprint
                self.oracle.observe(seg.start_state, seg.end_state)
            else:
                want = fresh.get(key, self.done.get(key))
                if seg.fingerprint != want:
                    self.replay_mismatch += 1
                    ok = False
            if not ok:
                self.failed += 1
            latency = (done[0] - t_sub) * 1e3
            self.latency_ms.append(latency)
            self.records.append((key, is_fresh, latency))
        for key in sorted(fresh):
            self.digest.update(fresh[key].encode())
        self.done.update(fresh)

    def _submit(self, key, fresh: bool):
        done = [None, threading.Event()]
        t_sub = time.perf_counter()
        fut = self.sched.request(*key)

        def stamp(_f, done=done):
            done[0] = time.perf_counter()
            done[1].set()

        fut.add_done_callback(stamp)
        return key, fresh, fut, t_sub, done

    def close(self) -> None:
        self.sched.close()


def setup_service(seed: int, tracer: Tracer | None):
    t0 = time.perf_counter()
    with _stage(tracer, "setup.build"):
        client = ServiceClient(seed)
    t1 = time.perf_counter()
    with _stage(tracer, "setup.first_eval"):
        client.quantum()
    client.reset()
    return client, t1 - t0, time.perf_counter() - t1


def service_quanta(seconds: float) -> int:
    return max(1, int(np.ceil(seconds * SVC_QUANTA_PER_S)))


def timed_service(client: ServiceClient, nquanta: int) -> dict:
    stats = client.sched.stats
    run0, hits0 = stats.segments_run, stats.cache_hits
    joins0, resched0 = stats.joined_inflight, stats.reschedules
    gen0, traj0 = stats.generated_ps, client.sched.trajectory_ps
    spliced0 = client.sched.splicer.n_spliced
    t0 = time.perf_counter()
    for _ in range(nquanta):
        client.quantum()
    t1 = time.perf_counter()
    return {
        "t0": t0, "t1": t1, "wall": t1 - t0, "quanta": nquanta,
        "segments_run": stats.segments_run - run0,
        "cache_hits": stats.cache_hits - hits0,
        "joined_inflight": stats.joined_inflight - joins0,
        "reschedules": stats.reschedules - resched0,
        "generated_ps": stats.generated_ps - gen0,
        "spliced_ps": client.sched.trajectory_ps - traj0,
        "spliced": client.sched.splicer.n_spliced - spliced0,
        "latency_ms": list(client.latency_ms),
        "records": list(client.records),
        "requests": client.requests,
        "failed": client.failed,
        "fingerprint": client.digest.hexdigest()[:16],
    }


def service_checks(client: ServiceClient, timed: dict,
                   checks: Checks) -> None:
    checks.ops(timed["requests"], timed["failed"])
    checks.check("every replay returned the original segment",
                 client.replay_mismatch == 0,
                 f"{client.replay_mismatch} mismatches")
    sp = client.sched.splicer
    checks.check("spliced count and time agree",
                 np.isclose(sp.n_spliced * client.sched.t_segment,
                            sp.trajectory_time, rtol=1e-9, atol=0.0),
                 f"{sp.n_spliced} x {client.sched.t_segment} ps vs "
                 f"{sp.trajectory_time} ps")
    stats = client.sched.stats
    checks.check("every run segment is spliced or stored",
                 sp.n_spliced + sp.stored_segments == stats.segments_run,
                 f"{sp.n_spliced} + {sp.stored_segments} != "
                 f"{stats.segments_run}")


# ======================================================================
# metrics
# ======================================================================
def end_to_end(name: str, natoms: int, timed: dict, setup_s: float,
               rss_mb: float) -> dict:
    """The user-visible figures (see README.md for their meaning).

    ``rss_mb`` is read after the timed engine is closed: only then have
    the process backend's workers been waited for and counted.
    """
    if name == "segment_service":
        atom_steps = timed["segments_run"] * SVC_SEG_STEPS * natoms
        lat = timed["latency_ms"]
    else:
        atom_steps = timed["nsteps"] * natoms
        lat = timed["clock"].step_ms()
    return {
        "atom_steps_per_s": (atom_steps / timed["wall"], "1/s"),
        "latency_ms_p50": (percentile(lat, 50), "ms"),
        "latency_ms_p90": (percentile(lat, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(name: str, timed: dict, acct: dict, setup: dict,
              overhead_pct: float) -> dict:
    """Per-layer metrics from one traced timed phase (README.md table)."""
    self_s, calls, durs = acct["self_s"], acct["calls"], acct["durations"]
    if name == "segment_service":
        steps = timed["segments_run"] * SVC_SEG_STEPS
    else:
        steps = timed["nsteps"]
    steps = max(steps, 1)

    def per_step_ms(*names):
        return sum(self_s.get(n, 0.0) for n in names) * 1e3 / steps

    def mean_ms(n):
        return (statistics.fmean(durs[n]) * 1e3) if durs.get(n) else 0.0

    def pct_ms(values, q):
        return percentile(values, q) if len(values) else 0.0

    queue_wait, seg_md = [], []
    if name == "segment_service":
        seg_by_key = {}
        for tspans in acct["spans"].values():
            for s in tspans:
                if s[0] == "service.segment":
                    seg_by_key[s[4]] = (s[2] - s[1]) * 1e3
        seg_md = list(seg_by_key.values())
        queue_wait = [lat - seg_by_key[key]
                      for key, fresh, lat in timed["records"]
                      if fresh and key in seg_by_key]
    engine_s = timed.get("engine_s", {})
    is_process = name == "lj_liquid_process"
    pairs = acct.get("pairs_built", 0)
    m = {
        "neighbor.refresh_ms": (per_step_ms("neighbor.get"), "ms"),
        "neighbor.build_ms": (per_step_ms("neighbor.build"), "ms"),
        "neighbor.builds": (timed.get("builds",
                                      calls.get("neighbor.build", 0)),
                            "count"),
        "neighbor.pairs": (pairs, "count"),
        "pair.compute_ms": (per_step_ms("pair.compute"), "ms"),
        "snap.compute_ui_ms": (per_step_ms("snap.compute_ui"), "ms"),
        "snap.compute_yi_ms": (per_step_ms("snap.compute"), "ms"),
        "snap.compute_dui_deidrj_ms":
            (per_step_ms("snap.compute_dui_deidrj"), "ms"),
        "integrate.ms_per_step": (per_step_ms(
            "integrate.first_half", "integrate.second_half",
            "integrate.langevin"), "ms"),
        "engine.evaluate_self_ms": (per_step_ms("engine.evaluate"), "ms"),
        "engine.loop_self_ms": (per_step_ms("engine.loop",
                                            "engine.session_run"), "ms"),
        "engine.evaluations": (calls.get("engine.evaluate", 0)
                               + calls.get("process.evaluate", 0), "count"),
        "unaccounted_ms_per_step":
            (sum(acct["unaccounted_s"].values()) * 1e3 / steps, "ms"),
        "io.write_frame_ms": (per_step_ms("io.write_frame"), "ms"),
        "io.flush_ms": (per_step_ms("io.flush"), "ms"),
        "io.bytes": (timed.get("io_bytes", 0), "bytes"),
        "process.evaluate_ms": (per_step_ms("process.evaluate"), "ms"),
        "process.build_s": (setup.get("process_build_s", 0.0), "s"),
        "process.engine_neigh_ms": (engine_s.get("neigh", 0.0) * 1e3 / steps
                                    if is_process else 0.0, "ms"),
        "process.engine_force_ms": (engine_s.get("force", 0.0) * 1e3 / steps
                                    if is_process else 0.0, "ms"),
        "process.engine_comm_ms": (engine_s.get("comm", 0.0) * 1e3 / steps
                                   if is_process else 0.0, "ms"),
        "service.queue_wait_ms_p50": (pct_ms(queue_wait, 50), "ms"),
        "service.queue_wait_ms_p90": (pct_ms(queue_wait, 90), "ms"),
        "service.segment_md_ms_p50": (pct_ms(seg_md, 50), "ms"),
        "service.bind_ms": (mean_ms("service.bind"), "ms"),
        "service.request_block_ms": (mean_ms("service.request"), "ms"),
        "service.splice_ms": (mean_ms("service.splice"), "ms"),
        "service.oracle_ms": (mean_ms("service.oracle"), "ms"),
        "service.segments_run": (timed.get("segments_run", 0), "count"),
        "service.cache_hits": (timed.get("cache_hits", 0), "count"),
        "service.joined_inflight": (timed.get("joined_inflight", 0),
                                    "count"),
        "service.resubmissions": (timed.get("cache_hits", 0)
                                  + timed.get("joined_inflight", 0), "count"),
        "service.reschedules": (timed.get("reschedules", 0), "count"),
        "service.segments_spliced": (timed.get("spliced", 0), "count"),
        "service.splice_ratio": (timed["spliced_ps"] / timed["generated_ps"]
                                 if timed.get("generated_ps") else 0.0,
                                 "ratio"),
        "service.spliced_ns_per_s": (timed.get("spliced_ps", 0.0) / 1000.0
                                     / timed["wall"], "ns/s"),
        "setup.build_s": (setup["build_s"], "s"),
        "setup.first_eval_s": (setup["first_eval_s"], "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return m


# ======================================================================
# running one workload
# ======================================================================
WORKLOADS = ("lj_liquid_process", "snap_carbon", "segment_service")


def clear_program_caches() -> None:
    """Empty the process-wide Clebsch-Gordan tables (``lru_cache``s).

    Without this only the first set-up of a run would build them; the
    median set-up would leave out the CG and index-table build.
    """
    for fn in (cg.clebsch_gordan, cg._cg_tensor_build, cg._cg_sparse_build):
        fn.cache_clear()


def _setup(name, seed, scratch, tracer):
    clear_program_caches()
    if name == "segment_service":
        return setup_service(seed, tracer)
    return setup_md(md_factory(name), seed, scratch, tracer)


def _timed(name, obj, seconds):
    if name == "segment_service":
        return timed_service(obj, service_quanta(seconds))
    return timed_md(obj, md_steps(name, seconds))


def _natoms(name, obj) -> int:
    if name == "segment_service":
        return obj.sched.states[0].natoms
    return obj.natoms


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scratch: Path, out_dir: Path) -> dict:
    """Run one workload; returns the result object printed by run.py."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    checks = Checks()
    setups = []
    obj = None
    try:
        for _ in range(SETUPS):
            if obj is not None:
                obj.close()
                obj = None
            obj, build_s, first_s = _setup(name, seed, scratch, None)
            setups.append((build_s + first_s, build_s, first_s))
        setup_s = statistics.median(s[0] for s in setups)
        setup = {"build_s": statistics.median(s[1] for s in setups),
                 "first_eval_s": statistics.median(s[2] for s in setups)}
        natoms = _natoms(name, obj)
        timed = _timed(name, obj, seconds)
        if name == "segment_service":
            service_checks(obj, timed, checks)
        else:
            md_checks(name, seed, obj, timed, scratch, checks)
        counters = exact_counters(name, timed)
        obj.close()
        obj = None
        e2e = end_to_end(name, natoms, timed, setup_s, peak_rss_mb())
        if not trace:
            return {"e2e": e2e, "checks": checks, "counters": counters,
                    "timed": timed}
        tracer = Tracer()
        install_tracer(tracer)
        try:
            t_setup = time.perf_counter()
            obj, _, _ = _setup(name, seed, scratch, tracer)
            setup_window = tracer.window(t_setup, time.perf_counter())
            pairs0 = tracer.counts.get("neighbor.build", 0)
            traced = _timed(name, obj, seconds)
            pairs = tracer.counts.get("neighbor.build", 0) - pairs0
        finally:
            tracer.uninstall()
        tracks = tracer.window(traced["t0"], traced["t1"])
        acct = account(tracks, traced["wall"], main="MainThread")
        acct["spans"] = tracks
        acct["pairs_built"] = pairs
        for tspans in setup_window.values():
            for s in tspans:
                if s[0] == "process.build":
                    setup["process_build_s"] = s[2] - s[1]
        trace_checks(name, tracer, traced, acct, checks)
        traced_e2e = end_to_end(name, natoms, traced, setup_s, peak_rss_mb())
        base = e2e["atom_steps_per_s"][0]
        overhead = (base / traced_e2e["atom_steps_per_s"][0] - 1.0) * 100.0
        layers = per_layer(name, traced, acct, setup, overhead)
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(out_dir / f"trace-{name}-seed{seed}.json.gz",
                    traced["t0"], traced["t1"],
                    {"workload": name, "seed": seed, "seconds": seconds,
                     "wall_s": traced["wall"],
                     "unaccounted_s": acct["unaccounted_s"]})
        obj.close()
        obj = None
        return {"e2e": e2e, "traced_e2e": traced_e2e, "layers": layers,
                "checks": checks, "counters": counters, "timed": timed,
                "acct": acct}
    finally:
        if obj is not None:
            obj.close()


#: largest share of an MD timed window the main track may leave outside
#: the wrapped ``MDLoop.run`` span
MAX_MD_UNACCOUNTED = 0.01


def trace_checks(name: str, tracer: Tracer, traced: dict, acct: dict,
                 checks: Checks) -> None:
    """Checks that the traced run recorded what it claims to measure."""
    stray = tracer.stray(traced["t0"], traced["t1"])
    checks.check("trace: every span inside the timed window is closed",
                 stray == 0, f"{stray} open or boundary-crossing spans")
    calls = acct["calls"]
    if name == "segment_service":
        got = (calls.get("service.segment", 0),
               calls.get("service.request", 0))
        want = (traced["segments_run"], traced["requests"])
        checks.check("trace: one segment span per segment run and one "
                     "request span per request", got == want,
                     f"{got} spans, want {want}")
        return
    got = calls.get("engine.evaluate", 0) + calls.get("process.evaluate", 0)
    want = traced["nsteps"] + 1
    checks.check("trace: one evaluate span per step plus one per run()",
                 got == want, f"{got} spans, want {want}")
    share = acct["unaccounted_s"]["MainThread"] / traced["wall"]
    checks.check("trace: MDLoop.run span covers the timed window",
                 share < MAX_MD_UNACCOUNTED,
                 f"{share:.2%} of the window outside the span")


def exact_counters(name: str, timed: dict) -> dict:
    """Counts that must repeat exactly for one seed (README.md)."""
    if name == "segment_service":
        return {"service.segments_run": timed["segments_run"],
                "service.resubmissions": (timed["cache_hits"]
                                          + timed["joined_inflight"]),
                "service.segments_spliced": timed["spliced"],
                "fingerprint": timed["fingerprint"]}
    return {"neighbor.builds": timed["builds"],
            "io.bytes": timed["io_bytes"],
            "steps": timed["nsteps"],
            "fingerprint": timed["fingerprint"]}
