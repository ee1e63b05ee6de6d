"""Forked children: none outlives the process that forked it, however that
process dies, and a process that may not fork (a `multiprocessing.Pool`
worker, which is daemonic) trains and searches inline, with the same
bytes."""

import contextlib
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from tabnsa import autodiff as ad
from tabnsa import forking, training
from tabnsa.data import make_two_gaussians
from tabnsa.hyperopt import SearchSpace, run_search
from tabnsa.model import init_model_params
from tabnsa.training import TrainConfig, fit
from test_training import make_split, tiny_model_config

pytestmark = pytest.mark.skipif(forking.FORK is None, reason="needs the fork start method")

SPACE = SearchSpace(
    head_dim=(4, 6), heads=(1, 2), window=(2, 4),
    compress_block=(4, 6), select_block_min=2, num_selected=(1, 2),
    lr=(2e-3, 8e-3), batch_size=(16, 32),
)

# Fits (`fit`) or searches (`search`, two workers) for ever, with every step
# in two half-batch tapes on a helper. Each process that runs an optimizer
# step prints its pid and its children's once it starts.
ENDLESS = textwrap.dedent("""
    import multiprocessing, os, sys
    from tabnsa import forking, training
    from tabnsa.data import make_two_gaussians
    from tabnsa.hyperopt import run_search
    from tabnsa.model import init_model_params
    from test_forking import SPACE
    from test_training import make_split, tiny_model_config

    training.SHARD_FLOPS = 0
    forking.usable_cores = lambda: 2  # a helper in every fit, trial children's too
    split = make_split(*make_two_gaussians(80, 4, seed=6))
    forever = training.TrainConfig(batch_size=16, max_epochs=10**6, patience=10**6)
    step = training.AdamW.step

    def announce(opt):
        if opt.t == 0:  # one write, so two children's lines never interleave
            pids = [os.getpid(), *(p.pid for p in multiprocessing.active_children())]
            os.write(1, (" ".join(map(str, pids)) + "\\n").encode())
        step(opt)

    training.AdamW.step = announce
    if sys.argv[1] == "fit":
        cfg = tiny_model_config()
        training.fit(init_model_params(cfg, 0), cfg, split, forever)
    else:
        run_search(split, SPACE, 2, seed=1, base_train=forever, max_workers=2)
""")


def state(pid: int) -> str | None:
    """The state letter of process `pid`, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


def running(pid: int) -> bool:
    """Whether `pid` is a process that has not exited (a zombie has)."""
    return state(pid) not in (None, "Z")


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
@pytest.mark.parametrize("what, announcers, forked", [("fit", 1, 1), ("search", 2, 4)])
def test_children_exit_when_the_forking_process_is_killed(what, announcers, forked):
    """SIGKILL runs no `finally`: a helper or trial child must notice on its
    own that its parent is gone, whether it waits on the pipe or computes."""
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(forking.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, "-c", ENDLESS, what], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    children = set()
    try:
        lines = [proc.stdout.readline() for _ in range(announcers)]
        children = {int(pid) for line in lines for pid in line.split()} - {proc.pid}
        if len(children) != forked:  # a helper, or two trial children with a helper each
            proc.kill()
            pytest.fail(f"announced {lines}; stderr: {proc.stderr.read()}")
        time.sleep(0.3)  # let the fits run a few steps
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 10
        while any(map(running, children)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert {pid: state(pid) for pid in children if running(pid)} == {}
    finally:
        proc.kill()
        proc.wait()
        for pid in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        proc.stdout.close()
        proc.stderr.close()


def fit_bytes(optimizer: str) -> tuple[bytes, str]:
    """A forced-shard fit's weights and history."""
    split = make_split(*make_two_gaussians(80, 4, seed=6))
    cfg = tiny_model_config()
    params = init_model_params(cfg, 0)
    train_cfg = TrainConfig(optimizer=optimizer, lr=5e-3, batch_size=16, max_epochs=3, patience=3, seed=1)
    _, hist = fit(params, cfg, split, train_cfg)
    return ad.flatten(p.data for p in params.values()).tobytes(), hist.to_jsonl()


def search_records(workers: int) -> list[str]:
    split = make_split(*make_two_gaussians(80, 4, seed=6))
    base = TrainConfig(max_epochs=4, patience=4, batch_size=32)
    _, records = run_search(split, SPACE, 3, seed=2, base_train=base, max_workers=workers)
    return [rec.to_json() for rec in records]


def in_a_pool_worker(fn, *args):
    """`fn(*args)` in the worker of a one-process `multiprocessing.Pool`."""
    pool = forking.FORK.Pool(1)
    try:
        return pool.apply(fn, args)
    finally:
        pool.close()
        pool.join()


@pytest.mark.parametrize("optimizer", ["adamw", "lbfgs"])
def test_a_daemonic_process_fits_its_halves_inline(optimizer, monkeypatch):
    monkeypatch.setattr(training, "SHARD_FLOPS", 0)
    monkeypatch.setattr(forking, "usable_cores", lambda: 2)
    assert forking.can_fork()
    assert not in_a_pool_worker(forking.can_fork)
    # on this main thread each step's second half runs on a helper
    assert in_a_pool_worker(fit_bytes, optimizer) == fit_bytes(optimizer)


def test_a_daemonic_process_searches_on_its_worker_threads(monkeypatch):
    monkeypatch.setattr(training, "SHARD_FLOPS", 0)
    assert in_a_pool_worker(search_records, 2) == search_records(1)
