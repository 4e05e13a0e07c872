"""Measurement of one workload in one process.

A run has up to four parts, each separate from the others:

* set-up, timed in fresh interpreters (``setup_child.py``) several times;
* one warm-up fit, checked but not timed;
* passes of fit + post-processing, repeated until the time budget is spent.
  Untraced passes give the end-to-end metrics.  With tracing on, untraced
  passes alternate with passes that run with spans around the library's
  layers; those give the per-layer metrics, and the difference between the
  two kinds of fit is the tracing overhead;
* with tracing on, one short counting fit under ``sys.setprofile`` that gives
  the exact call and grid-cell counts.

A reference kernel runs after every timed step, and every reported time,
end-to-end or per-layer, is rescaled by it to the host's reference speed
(see ``hostspeed.py``).

Every pass of one seed uses the same chain seed, so its draws are bit for bit
the same; only the timings differ between passes.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import qvgraph
import qvgraph.inference as inference
from qvgraph import (
    get_family,
    load_samples,
    persist_samples,
    predictive_mse,
    run_chains,
    samples_identical,
    simulate,
    summarize,
)

import checks
import ess
from hostspeed import REFERENCE_S, HostClock, kernel_s
from tracer import CallCounter, Tracer
from workloads import CHAINS, COUNT_ITERATIONS, seeds

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MIN_PASSES = 5
# Post-processing is repeated within a pass until it has taken this long, so
# that a workload whose post steps take milliseconds still gets a steady median.
POST_MIN_S = 0.5

FAMILY_FNS = ("log_h", "log_b", "log_w_density", "log_link_density",
              "theta", "cumulant", "sample_w", "sample_link")

# _SweepKernel method -> span name.  The sweep's own span gives its self time.
KERNEL_SPANS = {
    "_update_links_pair": "inference.links",
    "_update_anchors": "inference.anchors",
    "_update_edge": "inference.edge_rw",
    "_update_edge_scale": "inference.edge_scale",
    "_update_edge_refresh": "inference.edge_refresh",
    "_update_c0": "inference.c0",
    "_update_s0": "inference.s0",
    "log_posterior": "inference.log_posterior",
    "sweep": "inference.sweep",
}

# Acceptance counter prefix (before the first "_") -> sampler block.
BLOCK_OF_COUNTER = {"link": "links", "edge": "edge_rw", "scale": "edge_scale",
                    "refresh": "edge_refresh", "c0": "c0", "s0": "s0"}

clock = time.perf_counter


class WorkloadRun:
    def __init__(self, workload, seed: int, seconds: float, scratch: Path):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        self.data_seed, self.chain_seed = seeds(seed)
        self.fam = get_family(workload.family)
        self.checks = checks.Checks()
        self.missing: list[str] = []
        self.digests: list[str] = []
        self.persist_mb = 0.0
        self.clock = HostClock()

    # -- set-up ---------------------------------------------------------------
    def setup(self) -> list[dict]:
        cmd = [sys.executable, str(BENCH_DIR / "setup_child.py"), "--workload", self.w.name,
               "--seed", str(self.seed), "--scratch", str(self.scratch)]
        results = []
        for _ in range(SETUP_REPEATS):
            before = kernel_s()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            # The kernel runs here just before the child starts, and in the
            # child right after its set-up (before it, numpy is not loaded).
            result["kernel_before_s"] = before
            result["scale"] = 2.0 * REFERENCE_S / (before + result["kernel_s"])
            results.append(result)
        return results

    # -- one pass: fit, then persist / reload / summarize / mse ----------------
    def fit(self, data, tracer: Tracer | None, states: dict):
        """One ``run_chains`` call; returns the samples, wall seconds and scale."""
        fit_fn = run_chains
        if tracer is not None:
            self._instrument(tracer, states)
            fit_fn = tracer.span("inference.run_chains", run_chains)
        try:
            samples, wall, scale = self.clock.call(
                fit_fn, data, self.w.family, self.w.prior, self.w.config(self.chain_seed))
        except qvgraph.QvgraphError as exc:
            print(f"fit failed: {exc}", file=sys.stderr)
            # run_chains stops at the first failing chain; the ones after it never run.
            completed = getattr(exc, "chain", None) or 0
            self.checks.record("chains_completed", True, times=completed)
            self.checks.record("chains_completed", False, times=CHAINS - completed)
            return None, 0.0, 0.0
        finally:
            if tracer is not None:
                tracer.restore()
        self.checks.record("chains_completed", True, times=CHAINS)
        return samples, wall, scale

    def post(self, samples, data) -> dict:
        directory = self.scratch / "samples"
        times = {}
        start = clock()
        persist_samples(samples, directory)
        times["persist_samples"] = clock() - start
        self.persist_mb = sum(f.stat().st_size for f in directory.iterdir()) / 1e6
        start = clock()
        loaded = load_samples(directory)
        times["load_samples"] = clock() - start
        start = clock()
        summary = summarize(loaded)
        times["summarize"] = clock() - start
        times["predictive_mse"] = 0.0  # needs retained latents
        if loaded.links is not None:
            start = clock()
            mse = predictive_mse(loaded, data, self.chain_seed)
            times["predictive_mse"] = clock() - start
            self.checks.record("predictive_mse_finite", math.isfinite(mse) and mse > 0.0)
        shutil.rmtree(directory)

        self.checks.record("samples_identical", samples_identical(loaded, samples))
        self.checks.record("summaries_finite", checks.summaries_finite(summary))
        return times

    def post_block(self, samples, data) -> list[dict]:
        """Post steps repeated for at least ``POST_MIN_S``.

        Returns the step times of every set, rescaled by the block's scale.
        """
        def repeat():
            sets, start = [], clock()
            while not sets or clock() - start < POST_MIN_S:
                sets.append(self.post(samples, data))
            return sets

        sets, _, scale = self.clock.call(repeat)
        return [{step: t * scale for step, t in steps.items()} for steps in sets]

    def check_draws(self, samples) -> None:
        self.checks.record("draws_in_support", checks.draws_in_support(samples, self.fam))
        self.checks.record("blocks_attempted", checks.blocks_attempted(samples.meta))
        self.digests.append(checks.samples_digest(samples))
        if len(self.digests) > 1:
            self.checks.record("repeat_identical", self.digests[-1] == self.digests[0])

    # -- tracing ----------------------------------------------------------------
    def _instrument(self, tracer: Tracer, states: dict) -> None:
        def keep_state(args):
            states.setdefault(id(args[1]), args[1])

        kernel = getattr(inference, "_SweepKernel", None)
        for method, span in KERNEL_SPANS.items():
            on_call = keep_state if method == "sweep" else None
            tracer.patch(kernel, method, f"inference._SweepKernel.{method}",
                         lambda fn, span=span, on_call=on_call: tracer.span(span, fn, on_call))
        tracer.patch(inference, "log_joint_likelihood_arrays",
                     "inference.log_joint_likelihood_arrays",
                     lambda fn: tracer.span("model.log_joint", fn))
        for name in FAMILY_FNS:
            tracer.patch(self.fam, name, f"families.{type(self.fam).__name__}.{name}",
                         lambda fn, name=name: tracer.span(f"families.{name}", fn))

    def count(self, data) -> tuple[float, float]:
        """Python calls and enumeration grid cells per sweep, counted exactly."""
        tracer, counter = Tracer(), CallCounter()
        tracer.patch(getattr(inference, "_SweepKernel", None), "sweep",
                     "inference._SweepKernel.sweep", counter.counting)
        tracer.patch(inference, "_enum_link_logmass", "inference._enum_link_logmass",
                     lambda fn: tracer.tally("grid_cells", fn, lambda g: g.size))
        try:
            run_chains(data, self.w.family, self.w.prior, self.w.counting_config(self.chain_seed))
        finally:
            tracer.restore()
        self.missing += tracer.missing
        return counter.calls / COUNT_ITERATIONS, tracer.counts["grid_cells"] / COUNT_ITERATIONS

    # -- the whole run --------------------------------------------------------------
    def run(self, trace: bool) -> dict:
        setups = self.setup()
        data, _ = simulate(self.w.params, self.w.n, self.data_seed)
        data_digest = checks.digest(data.y)
        for s in setups:
            self.checks.record("setup_data_identical", s["digest"] == data_digest)

        # Fit wall seconds and scales (see hostspeed.py), and rescaled post steps.
        timed = {"fit": [], "traced_fit": []}
        post_sets: list[dict] = []
        tracer, states = Tracer(), {}
        # The first fit of a process runs slower (lazy imports, cold caches);
        # it is checked but not timed.  Every pass uses its chain seed, so when
        # it fails the passes would fail alike and are skipped.
        first, _, _ = self.fit(data, None, {})
        if first is not None:
            self.check_draws(first)
            self.passes(data, trace, tracer, states, timed, post_sets)
        self.missing += tracer.missing

        if not timed["fit"] or (trace and not timed["traced_fit"]):
            metrics = {}  # a fit failed: its chains are counted, nothing is timed
        elif trace:
            metrics = self._traced_metrics(data, first, setups, tracer, states, timed, post_sets)
        else:
            metrics = self._end_to_end_metrics(first, setups, timed, post_sets)
        return {
            "metrics": metrics,
            "checks": self.checks,
            "info": {
                "data_digest": data_digest,
                "draws_digest": self.digests[0] if self.digests else None,
                "wall_s_and_scale": timed,
                "setup_wall_s_and_kernels_s": [(s["setup_s"], s["kernel_before_s"], s["kernel_s"])
                                               for s in setups],
                "kernel_s": self.clock.kernel_s,
                "post_sets": len(post_sets),
                "sweeps_per_fit": self.w.sweeps,
                "import_s": median(s["import_s"] for s in setups),
                "missing_spans": sorted(set(self.missing)),
            },
        }

    def passes(self, data, trace: bool, tracer: Tracer, states: dict,
               timed: dict, post_sets: list) -> None:
        """Timed passes until the time budget is spent, at least ``MIN_PASSES``."""
        start = clock()
        while True:
            fits, traced = len(timed["fit"]), len(timed["traced_fit"])
            enough = traced > 0 if trace else fits >= MIN_PASSES
            if enough and clock() - start >= self.seconds:
                return
            tracing = trace and fits > traced  # alternate, untraced first
            samples, wall, scale = self.fit(data, tracer if tracing else None, states)
            if samples is None:
                return  # counted as failed chains
            timed["traced_fit" if tracing else "fit"].append((wall, scale))
            self.check_draws(samples)
            post_sets += self.post_block(samples, data)

    def _end_to_end_metrics(self, first, setups, timed, post_sets) -> dict:
        fit_s = scaled_median(timed["fit"])
        setup_s = median(s["setup_s"] * s["scale"] for s in setups)
        # One entry per set of post steps: a slow file-system moment spoils a
        # single set, not a whole pass.
        post_set_s = median(sum(steps.values()) for steps in post_sets)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": setup_s,
            "fit_s": fit_s,
            "sweeps_per_s": self.w.sweeps / fit_s,
            "min_ess_per_s": convergence(first)["min_bulk_ess"] / fit_s,
            "total_s": setup_s + fit_s + post_set_s,
            "peak_rss_mb": peak_kib * 1024 / 1e6,
        }

    def _traced_metrics(self, data, first, setups, tracer, states, timed, post_sets) -> dict:
        py_calls, grid_cells = self.count(data)
        conv = convergence(first)

        def setup_ms(step):
            return 1e3 * median(s[step] * s["scale"] for s in setups)

        def post_ms(step):
            return 1e3 * median(steps[step] for steps in post_sets)

        scale = median(sc for _, sc in timed["traced_fit"])
        metrics = self._layer_metrics(tracer, states, len(timed["traced_fit"]), scale)
        metrics.update({
            "inference.trace_overhead_s": scaled_median(timed["traced_fit"])
                                          - scaled_median(timed["fit"]),
            "inference.py_calls_per_sweep": py_calls,
            "inference.links.grid_cells_per_sweep": grid_cells,
            "inference.min_bulk_ess": conv["min_bulk_ess"],
            "inference.max_rhat": conv["max_rhat"],
            "inference.frozen_params": conv["frozen_params"],
            "model.simulate.ms": setup_ms("simulate_s"),
            "io.save_dataset.ms": setup_ms("save_dataset_s"),
            "io.load_dataset.ms": setup_ms("load_dataset_s"),
            "io.persist_samples.ms": post_ms("persist_samples"),
            "io.persist_samples.mb": self.persist_mb,
            "io.load_samples.ms": post_ms("load_samples"),
            "inference.summarize.ms": post_ms("summarize"),
            "inference.predictive_mse.ms": post_ms("predictive_mse"),
        })
        return metrics

    def _layer_metrics(self, tracer: Tracer, states: dict, fits: int, scale: float) -> dict:
        """Per-sweep span self times, rescaled by the traced fits' median scale."""
        sweeps = fits * self.w.sweeps

        def ms_per_sweep(span):
            return 1e3 * scale * tracer.self_s.get(span, 0.0) / sweeps

        out = {f"{span}.ms_per_sweep": ms_per_sweep(span)
               for span in KERNEL_SPANS.values() if span != "inference.sweep"}
        out["inference.sweep.self_ms_per_sweep"] = ms_per_sweep("inference.sweep")
        out["inference.run_chains.self_ms_per_sweep"] = ms_per_sweep("inference.run_chains")
        out["model.log_joint.ms_per_sweep"] = ms_per_sweep("model.log_joint")
        for name in FAMILY_FNS:
            out[f"families.{name}.ms_per_sweep"] = ms_per_sweep(f"families.{name}")
            out[f"families.{name}.calls_per_sweep"] = tracer.calls.get(f"families.{name}", 0) / sweeps

        totals = {block: [0, 0] for block in BLOCK_OF_COUNTER.values()}
        for state in states.values():
            for counter, (accepted, attempted) in getattr(state, "accept", {}).items():
                block = BLOCK_OF_COUNTER.get(counter.split("_")[0])
                if block is not None:
                    totals[block][0] += accepted
                    totals[block][1] += attempted
        for block, (accepted, attempted) in totals.items():
            out[f"inference.{block}.accept_ratio"] = accepted / attempted if attempted else 0.0
            out[f"inference.{block}.attempts"] = attempted / fits
        return out


def scaled_median(walls_and_scales) -> float:
    return median(wall * scale for wall, scale in walls_and_scales)


def convergence(samples) -> dict:
    """Smallest bulk ESS, largest R-hat, and the number of frozen parameters.

    A parameter whose draws are all equal has no ESS and counts as 0; R-hat
    is taken over the parameters where it is finite.
    """
    draws = [samples.parameter_array(name) for name in samples.parameter_names()]
    bulk = [ess.bulk_ess(d) for d in draws]
    rhats = [r for r in map(ess.rhat, draws) if math.isfinite(r)]
    return {
        "min_bulk_ess": min(0.0 if math.isnan(b) else b for b in bulk),
        "max_rhat": max(rhats, default=0.0),
        "frozen_params": float(sum(map(ess.is_frozen, draws))),
    }


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    tmp_root = BENCH_DIR / "tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=tmp_root))
    try:
        return WorkloadRun(workload, seed, seconds, scratch).run(trace)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
