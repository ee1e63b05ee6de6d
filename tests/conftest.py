"""Shared test helpers: finite-difference gradient checks over parameter
dicts, and a check that no test leaves a child process running."""

import multiprocessing

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail a test that leaves a child process (a sharded fit's helper, a
    search's trial child) running, after stopping it."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.kill()
        proc.join()
    assert not left, f"child processes left running: {left}"


def fd_param_check(loss_fn, params, rng, samples=5, h=1e-5, tol=1e-4, names=None):
    """Compare backward() grads of loss_fn() against central differences.

    loss_fn rebuilds the graph on each call and returns a scalar Tensor that
    reads the live arrays in `params`. Checks `samples` random entries of
    each parameter (all entries when samples is None).
    """
    for p in params.values():
        p.grad = None
    loss_fn().backward()
    failures = []
    for name, p in params.items():
        if names is not None and name not in names:
            continue
        flat = p.data.reshape(-1)
        grad = np.zeros_like(flat) if p.grad is None else p.grad.reshape(-1)
        if samples is None or samples >= flat.size:
            picked = np.arange(flat.size)
        else:
            picked = rng.choice(flat.size, size=samples, replace=False)
        for i in picked:
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_fn().item()
            flat[i] = orig - h
            fm = loss_fn().item()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            denom = max(abs(grad[i]), abs(numeric), 1e-6)
            rel = abs(grad[i] - numeric) / denom
            if rel >= tol:
                failures.append(f"{name}[{i}]: analytic {grad[i]:.3e} vs numeric {numeric:.3e} (rel {rel:.2e})")
    assert not failures, "gradient mismatches:\n" + "\n".join(failures)
