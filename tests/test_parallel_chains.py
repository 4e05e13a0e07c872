"""Chains run in forked workers draw what they draw in the calling process."""

import json
import multiprocessing
import os
import signal
import threading

import numpy as np
import pytest

from qvgraph import inference
from qvgraph.cli import main
from qvgraph.errors import ChainError, DomainError
from qvgraph.families import FamilyKind
from qvgraph.inference import ChainState, MCMCConfig, PriorConfig, run_chains
from qvgraph.io import load_samples, persist_samples, save_dataset
from qvgraph.model import ModelParams, simulate

EDGES = np.array([[0.0, 1.5, 0.7], [1.5, 0.0, 2.2], [0.7, 2.2, 0.0]])
TRUTH = {
    FamilyKind.INVERSE_GAMMA: (6.0, 10.0),
    FamilyKind.GAMMA: (2.0, 3.0),
    FamilyKind.NORMAL: (1.0, 2.0),
}
ARRAYS = ("s0", "c0", "edges", "w", "links")


def dataset(kind, n=40, seed=3):
    s0, c0 = TRUTH[kind]
    data, _ = simulate(ModelParams(kind, s0, c0, EDGES), n, seed)
    return data


def fit(kind, **overrides):
    base = dict(iterations=40, burn_in=10, thinning=1, chains=3, seed=7,
                adapt_window=5, keep_latents=True)
    base.update(overrides)
    return run_chains(dataset(kind), kind, PriorConfig.default_for(kind), MCMCConfig(**base))


def assert_same_run(a, b):
    for name in ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
    # json.dumps writes NaN rates as NaN, so equal rates give equal text
    assert json.dumps(a.meta, sort_keys=True) == json.dumps(b.meta, sort_keys=True)


@pytest.mark.parametrize("kind", [FamilyKind.INVERSE_GAMMA, FamilyKind.GAMMA])
def test_workers_do_not_change_a_bit(kind):
    serial = fit(kind, workers=1)
    assert len(serial.meta["state_digest"]) == 3
    assert len(serial.meta["acceptance"]) == 3
    assert_same_run(serial, fit(kind))
    assert_same_run(serial, fit(kind, workers=2))


def test_state_digest_covers_the_final_state():
    samples = fit(FamilyKind.NORMAL, workers=2)
    for m, digest in enumerate(samples.meta["state_digest"]):
        assert len(digest) == 16 and int(digest, 16) >= 0
        final = ChainState(family=FamilyKind.NORMAL, s0=float(samples.s0[m, -1]),
                           c0=float(samples.c0[m, -1]), edges=samples.edges[m, -1],
                           w=samples.w[m, -1], links=samples.links[m, -1])
        assert inference._state_digest(final) == digest
    assert len(set(samples.meta["state_digest"])) == 3


def test_state_digest_does_not_depend_on_retention():
    kept = fit(FamilyKind.INVERSE_GAMMA, keep_latents=True)
    dropped = fit(FamilyKind.INVERSE_GAMMA, keep_latents=False)
    assert dropped.w is None and dropped.links is None
    assert kept.meta["state_digest"] == dropped.meta["state_digest"]
    assert fit(FamilyKind.INVERSE_GAMMA, seed=8).meta["state_digest"] != kept.meta["state_digest"]


def test_state_digest_persists(tmp_path):
    samples = fit(FamilyKind.NORMAL, chains=2)
    persist_samples(samples, tmp_path / "samples")
    assert load_samples(tmp_path / "samples").meta["state_digest"] == samples.meta["state_digest"]


class Injected(RuntimeError):
    pass


def failing_initial_state(failing, make_error=Injected):
    original = inference.initial_state

    def initial_state(family, data, prior, chain_index, rng):
        if chain_index in failing:
            raise make_error(f"no start for chain {chain_index}")
        return original(family, data, prior, chain_index, rng)

    return initial_state


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("failing", [{1}, {1, 2}])
def test_lowest_failing_chain_is_reported(monkeypatch, workers, failing):
    # forked workers inherit the patched module attribute
    monkeypatch.setattr(inference, "initial_state", failing_initial_state(failing))
    with pytest.raises(ChainError) as err:
        fit(FamilyKind.NORMAL, workers=workers)
    assert (err.value.chain, err.value.sweep) == (1, 0)
    assert str(err.value) == "chain 1 failed at sweep 0: no start for chain 1"
    assert isinstance(err.value.__cause__, Injected)


def test_unpicklable_cause_is_dropped(monkeypatch):
    class Local(RuntimeError):  # a local class does not pickle
        pass

    monkeypatch.setattr(inference, "initial_state", failing_initial_state({1}, Local))
    with pytest.raises(ChainError) as serial:
        fit(FamilyKind.NORMAL, workers=1)
    assert isinstance(serial.value.__cause__, Local)
    with pytest.raises(ChainError) as forked:
        fit(FamilyKind.NORMAL, workers=2)
    assert str(forked.value) == str(serial.value)
    assert (forked.value.chain, forked.value.sweep) == (1, 0)
    assert forked.value.__cause__ is None


def test_dead_worker_fails_its_chain(monkeypatch):
    original = inference.initial_state

    def killed(family, data, prior, chain_index, rng):
        if chain_index == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(family, data, prior, chain_index, rng)

    monkeypatch.setattr(inference, "initial_state", killed)
    raised = []

    def fit_and_keep_error():
        try:
            fit(FamilyKind.NORMAL, workers=2)
        except ChainError as err:
            raised.append(err)

    thread = threading.Thread(target=fit_and_keep_error, daemon=True)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive(), "run_chains hangs when a worker dies"
    (err,) = raised
    assert err.chain == 1 and err.sweep is None
    assert "exited with code" in str(err)


def fit_in_pool_worker(_):
    return fit(FamilyKind.NORMAL)


def test_run_inside_a_daemonic_worker_is_serial():
    with multiprocessing.get_context("fork").Pool(1) as pool:
        inside = pool.apply_async(fit_in_pool_worker, (None,)).get(timeout=120)
    assert_same_run(inside, fit(FamilyKind.NORMAL, workers=1))


def test_worker_count():
    assert inference._worker_count(MCMCConfig(chains=1)) == 1
    assert inference._worker_count(MCMCConfig(chains=1, workers=4)) == 1
    assert inference._worker_count(MCMCConfig(chains=3, workers=1)) == 1
    assert inference._worker_count(MCMCConfig(chains=3, workers=2)) == 2


@pytest.mark.parametrize("field", [dict(workers=0), dict(workers=-1), dict(burn_in=-5),
                                   dict(seed=-1)])
def test_invalid_config_rejected(field):
    # each case is valid but for its one field, and fails on that field's check
    with pytest.raises(DomainError, match=next(iter(field))):
        MCMCConfig(**{"iterations": 10, "burn_in": 0, "thinning": 1, **field})


def test_cli_rejects_negative_burn_in(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    save_dataset(dataset(FamilyKind.NORMAL), data_csv)
    out = tmp_path / "samples"
    code = main(["fit", "--data", str(data_csv), "--family", "normal", "--out", str(out),
                 "--set", "iterations=10", "--set", "burn_in=-5", "--set", "thinning=1"])
    assert code != 0
    assert "burn_in" in capsys.readouterr().err
    assert not out.exists()
