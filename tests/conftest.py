import errno
import os

import numpy as np
import pytest

from hrlmc.experiments import ExperimentConfig, run_convergence_experiment


@pytest.fixture(scope="session")
def gamma_bound_run():
    """Shared Gamma(5,1)/Burg convergence run used by the bound-satisfaction
    and geometric-decay acceptance criteria (4096 chains, h = 0.05)."""
    import time

    cfg = ExperimentConfig(
        entropy="burg",
        target="gamma:a=5;b=1",
        schedule="constant:h=0.05",
        steps=200,
        chains=4096,
        x0=(0.2,),
        checkpoints=tuple(range(0, 21, 2)) + tuple(range(30, 201, 10)),
        base_seed=1,
        reference_seeds=20,
    )
    t0 = time.monotonic()
    result = run_convergence_experiment(cfg)
    runtime = time.monotonic() - t0
    return result, runtime


@pytest.fixture(scope="session")
def rng_master():
    return np.random.default_rng(20_240_817)


@pytest.fixture
def fork_fails_at(monkeypatch):
    """``fork_fails_at(call)`` makes the ``call``-th ``os.fork`` from then on raise
    EAGAIN, as a full process table does, and returns the list of its calls."""

    def patch(call):
        calls, real = [], os.fork

        def fork():
            calls.append(None)
            if len(calls) == call:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real()

        monkeypatch.setattr(os, "fork", fork)
        return calls

    return patch
