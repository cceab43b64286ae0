"""One workload of the ttmera benchmark, run in its own process by run.py.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1

A run builds the workload's inputs (``setup_s``, the median of several
set-ups), then repeats whole rounds of timed calls until ``--seconds`` have
passed, at least one round; ``wall_s`` is the median over rounds.  Every
timed call goes through the package's
public functions and its result is checked against computations from
``reference.py``.  Checks that need more memory than the timed calls
(dense evaluations) run after the peak resident size has been read.

The inputs are fixed by the configurations below; ``--seed`` only shuffles
the order of a round's independent operations, so that no call always runs
first or after the same neighbour.  With ``--trace 1`` one untraced round
is followed by one traced set-up and round; the per-layer metrics of that
round are printed instead of the end-to-end ones, and ``trace.overhead_s``
is the difference of the two rounds' ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import reference as ref
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"


def import_package():
    """Import ttmera from the checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "ttmera" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ttmera package under {src}")
    sys.path.insert(0, str(src))
    import ttmera
    import ttmera.experiments
    import ttmera.formats
    import ttmera.heat

    if Path(ttmera.__file__).resolve().parent != (src / "ttmera").resolve():
        raise SystemExit(f"perfbench: ttmera imported from {ttmera.__file__}")
    return ttmera


class Round:
    """Timed calls, operation counts and stored entries of one round."""

    def __init__(self):
        self.seconds = 0.0
        self.stored = 0
        self.calls = []

    def timed(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self.seconds += dt
        self.calls.append((fn.__name__, round(dt, 4)))
        return result


class Runner:
    """Attempted and failed operation counts across the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.deferred = []

    def attempt(self, name, calls, body, *args):
        """Run one operation of ``calls`` timed calls; any failure fails all."""
        self.attempted += calls
        try:
            body(*args)
        except ref.CheckFailed as exc:
            self.correct = False
            self.failed += calls
            print(f"perfbench: {name}: check failed: {exc}", file=sys.stderr)
        except Exception:
            self.failed += calls
            print(f"perfbench: {name}: raised", file=sys.stderr)
            traceback.print_exc()

    def defer(self, name, calls, check):
        self.deferred.append((name, calls, check))

    def run_deferred(self):
        for name, calls, check in self.deferred:
            try:
                check()
            except ref.CheckFailed as exc:
                self.correct = False
                self.failed += calls
                print(f"perfbench: {name}: check failed: {exc}", file=sys.stderr)
        self.deferred.clear()


class Workload:
    """Inputs built by ``setup`` (timed ``setups`` times), kept by ``keep``,
    then used by every ``round``."""

    setups = 9

    def __init__(self, tm):
        self.tm = tm

    def cleanup(self):
        """Remove files the set-up wrote."""


# ---------------------------------------------------------------------------
# heat-compress


class HeatCompress(Workload):
    """The paper's heat data through TT-SVD, TT->Tucker and dense ST-HOSVD.

    Input 1 is the 100 x 100 x 4000 snapshot tensor, written to an MRT1 file
    at set-up and read back by ``load_tensor`` in every round, compressed at
    1e-3 (wide unfoldings, Gram path of ``svd_trunc``).  Input 2 is the desk
    tensor split into its prime factors (12-way), compressed at 1e-7 (direct
    SVD path, many dense mode products).
    """

    setups = 3
    path = WORK / "heat-100x100x4000.mrt1"

    def setup(self):
        tm = self.tm
        WORK.mkdir(exist_ok=True)
        t3 = tm.heat.solve_heat(tm.heat.HeatConfig(ds=1e-2, t_end=0.1))
        tm.formats.save_tensor(self.path, t3)
        x12 = tm.heat.reshape_to_factors(tm.heat.solve_heat(tm.experiments.DESK_HEAT))
        return t3, x12

    def keep(self, inputs):
        t3, x12 = inputs
        a3 = t3.to_array()
        self.digest3 = ref.digest(a3)
        self.norm3 = ref.fro(a3)
        self.x12 = x12
        self.norm12 = ref.fro(x12.to_array())

    def cleanup(self):
        self.path.unlink(missing_ok=True)

    def round(self, runner, rnd, rng):
        state = {}
        runner.attempt("load_tensor", 1, self._load, rnd, state)
        ops = [
            ("tt-3way", 2, self._train, rnd, state, "t3", self.norm3, 1e-3),
            ("sthosvd-3way", 1, self._sthosvd, rnd, state, "t3", self.norm3, 1e-3),
            ("tt-12way", 2, self._train, rnd, state, "x12", self.norm12, 1e-7),
            ("sthosvd-12way", 1, self._sthosvd, rnd, state, "x12", self.norm12, 1e-7),
        ]
        rng.shuffle(ops)
        for name, calls, body, *args in ops:
            runner.attempt(name, calls, body, *args)

    def _load(self, rnd, state):
        t = rnd.timed(self.tm.formats.load_tensor, self.path)
        ref.check_bits_equal(self.digest3, t.to_array())
        state["t3"] = t

    def _input(self, state, key):
        if key == "x12":
            return self.x12
        if "t3" not in state:
            raise RuntimeError("load_tensor failed earlier in this round")
        return state["t3"]

    def _train(self, rnd, state, key, norm, eps):
        tm = self.tm
        t = self._input(state, key)
        tt = rnd.timed(tm.tt_svd, t, eps)
        ref.check_relative_error(ref.train_error(t.to_array(), tt.cores), norm, eps,
                                 f"tt_svd {key}")
        tk = rnd.timed(tm.tt_to_hosvd, tt, eps)
        ref.check_orthonormal_columns(tk.factors, "tt_to_hosvd factor")
        ref.check_conversion(tt.cores, tk.factors, tk.core.cores, tk.mode_discarded, eps)
        rnd.stored += ref.train_entries(tt.cores)
        rnd.stored += sum(U.size for U in tk.factors) + ref.train_entries(tk.core.cores)

    def _sthosvd(self, rnd, state, key, norm, eps):
        t = self._input(state, key)
        factors, core, _ = rnd.timed(self.tm.sthosvd_dense, t, eps)
        ref.check_orthonormal_columns(factors, "sthosvd factor")
        err = ref.tucker_error(t.to_array(), factors, core.to_array())
        ref.check_relative_error(err, norm, eps, f"sthosvd_dense {key}")
        rnd.stored += sum(U.size for U in factors) + core.size


# ---------------------------------------------------------------------------
# planted-search


class PlantedSearch(Workload):
    """Recovery of planted disentanglers: the Procrustes loop dominates.

    Two single-layer plants (I=8, r'=32: 434 iterations on 64 x 64 SVDs;
    I=5, r'=9: thousands of cheap iterations) and two desk-scale deep
    recoveries at criterion 7's settings, seed 10 (recovers the plant) and
    seed 0 (three searches stop at the 3000-iteration budget).
    """

    SINGLE = ((8, 32), (5, 9))
    DEEP = (10, 0)

    def setup(self):
        ex = self.tm.experiments
        pairs = {I: ex.planted_pair_tensor(I, r, 0)["tensor"] for I, r in self.SINGLE}
        plants = {s: ex.random_mera_plant(4, 2, seed=s) for s in self.DEEP}
        return pairs, plants

    def keep(self, inputs):
        self.pairs, self.plants = inputs

    def round(self, runner, rnd, rng):
        ops = [(f"run_planted I={I}", 1, self._single, rnd, I, r)
               for I, r in self.SINGLE]
        ops += [(f"run_mera12 seed={s}", 1, self._deep, runner, rnd, s)
                for s in self.DEEP]
        rng.shuffle(ops)
        for name, calls, body, *args in ops:
            runner.attempt(name, calls, body, *args)

    def _single(self, rnd, I, rprime):
        res = rnd.timed(self.tm.experiments.run_planted, I=I, rprime=rprime, seed=0,
                        trace_stride=0)
        V = res["disentangler"].data
        rank = ref.check_planted(self.pairs[I].to_array(), V, rprime,
                                 res["report"].achieved_rank)
        n = I * I
        rnd.stored += V.size + 2 * n * rank

    def _deep(self, runner, rnd, seed):
        res = rnd.timed(self.tm.experiments.run_mera12, seed=seed, max_iters=3000,
                        strategies=("procrustes",))
        m = res["recovered"]["procrustes"]
        cores = res["train"].cores
        ref.check_mera_constituents(m)
        rnd.stored += ref.mera_entries(m)
        plant = self.plants[seed]

        def dense_checks():
            full = ref.train_dense(cores)
            ref.check_dense_match(ref.mera_dense(plant), full, 1e-11,
                                  f"seed {seed} train against the plant")
            ref.check_dense_match(full, ref.mera_dense(m), 1e-11,
                                  f"seed {seed} recovery against its train")

        runner.defer(f"run_mera12 seed={seed}", 1, dense_checks)


# ---------------------------------------------------------------------------
# mera-roundtrip


class MeraRoundtrip(Workload):
    """Train arithmetic at large link ranks, no search.

    Expands the full-size plant (I=10, S=5; link ranks up to 2500), then
    expands the (6, 3) plant, converts it back with hosvd disentanglers at
    an isometry cap of 3 and measures the result's error.
    """

    CAP = 3
    EPS = 1e-6

    def setup(self):
        ex = self.tm.experiments
        return ex.random_mera_plant(10, 5, seed=0), ex.random_mera_plant(6, 3, seed=0)

    def keep(self, inputs):
        self.big, self.small = inputs

    def round(self, runner, rnd, rng):
        ops = [("mera_to_tt full-size", 1, self._expand_big, rnd),
               ("hosvd roundtrip", 3, self._roundtrip, rnd)]
        rng.shuffle(ops)
        for name, calls, body, *args in ops:
            runner.attempt(name, calls, body, *args)

    def _expand_big(self, rnd):
        tt = rnd.timed(self.tm.mera_to_tt, self.big, round_eps=1e-12)
        ref.check_ranks(tt.cores, ref.plant_ranks(10, 5), "full-size train")
        ref.check_norm(tt.cores, ref.fro(self.big.top.to_array()), "full-size train")
        rnd.stored += ref.train_entries(tt.cores)

    def _roundtrip(self, rnd):
        tm = self.tm
        tt = rnd.timed(tm.mera_to_tt, self.small)
        ref.check_ranks(tt.cores, ref.plant_ranks(6, 3), "(6, 3) train")
        ref.check_norm(tt.cores, ref.fro(self.small.top.to_array()), "(6, 3) train")
        m, _ = rnd.timed(tm.tt_to_mera, tt, 2, self.EPS, layers=2, strategy="hosvd",
                         max_output_dim=self.CAP)
        ref.check_mera_constituents(m)
        entries = ref.check_capped(m, self.CAP)
        err = rnd.timed(tm.mera_relative_error, m, tt)
        ref.check_reported_error(err, ref.mera_error_by_projection(m, tt.cores))
        rnd.stored += ref.train_entries(tt.cores) + entries


WORKLOADS = {
    "heat-compress": HeatCompress,
    "planted-search": PlantedSearch,
    "mera-roundtrip": MeraRoundtrip,
}


# ---------------------------------------------------------------------------
# running a workload


def measure(workload, runner, seed, seconds):
    """Whole rounds until ``seconds`` have passed; per-round seconds, entries
    and call times."""
    rng = random.Random(seed)
    times, stored, calls = [], [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        rnd = Round()
        workload.round(runner, rnd, rng)
        times.append(rnd.seconds)
        stored.append(rnd.stored)
        calls.append(rnd.calls)
    return times, stored, calls


def timed_setups(workload, count):
    times = []
    inputs = None
    for _ in range(count):
        inputs = None  # release the previous inputs before building new ones
        t0 = time.perf_counter()
        inputs = workload.setup()
        times.append(time.perf_counter() - t0)
    workload.keep(inputs)
    return times


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    tm = import_package()
    workload = WORKLOADS[args.workload](tm)
    runner = Runner()
    try:
        if args.trace == 0:
            setup = timed_setups(workload, workload.setups)
            times, stored, calls = measure(workload, runner, args.seed, args.seconds)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "wall_s": {"value": statistics.median(times), "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
                "stored_entries": {"value": statistics.median_low(stored), "unit": "entries"},
            }
            detail = {"rounds": len(times), "setup_s": setup, "calls_s": calls}
        else:
            timed_setups(workload, 1)
            times, _, _ = measure(workload, runner, args.seed, 0)
            tracer = Tracer(tm)
            with tracer:
                timed_setups(workload, 1)
                before = tracer.layer_seconds()
                rnd = Round()
                workload.round(runner, rnd, random.Random(args.seed))
            overhead = rnd.seconds - statistics.median(times)
            metrics = tracer.metrics(overhead)
            after = tracer.layer_seconds()
            shares = {k: (after[k] - before.get(k, 0.0)) / rnd.seconds for k in after}
            detail = {"rounds": len(times), "traced_wall_s": rnd.seconds,
                      "untraced_wall_s": statistics.median(times)}
            WORK.mkdir(exist_ok=True)
            (WORK / f"trace-{args.workload}.json").write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed, **detail,
                 "layer_share_of_wall_s": shares, "spans": tracer.spans()},
                indent=2) + "\n")
        runner.run_deferred()
    finally:
        workload.cleanup()

    info = {"workload": args.workload, "seed": args.seed, **detail,
            "numpy": np.__version__}
    print("# " + json.dumps(info))
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
