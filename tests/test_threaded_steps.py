"""Threaded pair-chain steps and mixing profiles are bit-identical to the serial ones.

Each test opens the thread gate (``chains.THREADED_STEP_MIN = 0``) so that
small chains run on threads, and sets the thread count through
``DFA_MEET_THREADS`` with the usable CPUs patched to at least that count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dfa_meet import aux_chain, chains, fvtl
from dfa_meet.aux_chain import build_aux_chain, log_power_horizon
from dfa_meet.chains import ergodic_walk_chain, mixing_profile, stationary_distribution
from tests.test_exact_golden import GOLDEN, assert_matches, exact_values

ROOT = Path(__file__).resolve().parents[1]
A4_STOP_GOLDEN = ROOT / "tests" / "data" / "a4_stop_steps_golden.json"


@pytest.fixture
def threads(monkeypatch):
    """``threads(k)`` makes the next chain or profile resolve ``k`` threads at any size."""
    monkeypatch.setattr(chains, "THREADED_STEP_MIN", 0)
    monkeypatch.setattr(chains, "_usable_cpus", lambda: 3)

    def use(k):
        monkeypatch.setenv("DFA_MEET_THREADS", str(k))

    return use


def aux_pair(threads, k, n=50, r=3, seed=5):
    """A serial and a ``k``-thread pair chain on the same walk kernel."""
    _, chain, _ = ergodic_walk_chain(n, r, seed)
    stationary_distribution(chain)
    threads(1)
    serial = build_aux_chain(chain)
    assert serial.row_groups is None
    threads(k)
    threaded = build_aux_chain(chain)
    assert len(threaded.row_groups) == k
    return serial, threaded


@pytest.mark.parametrize("k", [2, 3])
def test_threaded_steps_match_the_serial_steps_bit_for_bit(threads, k):
    """Uneven row groups (50 rows in 2 or 3 groups of about 4 slices each),
    both memory orders of the start, full and killed steps, with the
    interpreter switching threads every 10 us."""
    serial, threaded = aux_pair(threads, k)
    assert len({hi - lo for group in threaded.row_groups for lo, hi, _ in group}) > 1
    start = np.zeros((serial.n, serial.n))
    start[3, 17] = 1.0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for first in (start, np.asfortranarray(start), serial.start()):
            for step in ("left_step", "killed_step"):
                a, b = first, first.copy(order="A")
                for _ in range(16):
                    a, b = getattr(serial, step)(a), getattr(threaded, step)(b)
                    assert a.flags.f_contiguous == b.flags.f_contiguous
                    assert a.tobytes(order="A") == b.tobytes(order="A")
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("k", [2, 3])
def test_threaded_perron_pair_matches_the_serial_one(threads, k):
    serial, threaded = aux_pair(threads, k, n=30, r=2, seed=1)
    one, two = fvtl.perron_pair(serial), fvtl.perron_pair(threaded)
    assert (one.lambda_star, one.iterations) == (two.lambda_star, two.iterations)
    assert one.mu_star.tobytes(order="A") == two.mu_star.tobytes(order="A")


def test_mixing_profile_is_the_same_for_one_two_and_three_threads(threads, monkeypatch):
    """Batches of 20 starts leave a one-start batch, which numpy sums
    pairwise; the threads cut only the batches of 20."""
    monkeypatch.setattr(chains, "MIXING_BATCH_SIZE", 20)
    _, chain, _ = ergodic_walk_chain(61, 3, 2)
    profiles = []
    for k in (1, 2, 3):
        threads(k)
        profiles.append(mixing_profile(chain, 40))
    assert len({p.d_tv.tobytes() for p in profiles}) == 1
    assert len({p.t_mix for p in profiles}) == 1


# The sampled-mode instances at both r. At these sizes a threaded step is
# mostly hand-off: the exact-mode instance's 1,561 scans take 40 s.
@pytest.mark.parametrize("case", [(150, 2, 0), (150, 20, 0)])
def test_exact_goldens_hold_on_two_threads(threads, case):
    threads(2)
    golden = {(g["n"], g["r"], g["seed"]): g for g in json.loads(GOLDEN.read_text())}
    assert_matches(exact_values(*case), golden[case])


def test_a4_stop_steps_hold_on_two_threads(threads):
    golden = json.loads(A4_STOP_GOLDEN.read_text())
    threads(2)
    _, chain, _ = ergodic_walk_chain(golden["n"], golden["r"], golden["seed"])
    aux = build_aux_chain(chain)
    s_horizon = log_power_horizon(aux.n, 3)
    steps = [fvtl.certified_scan(aux, m, s_horizon)[0] for m in aux_chain._a4_starts(aux)]
    assert len(aux.row_groups) == 2
    assert steps == golden["stop_steps"]


def test_the_worker_count_is_resolved_once_per_chain_and_per_profile(threads, monkeypatch):
    threads(2)
    calls = []
    resolve = chains.resolve_workers
    monkeypatch.setattr(chains, "resolve_workers", lambda: calls.append(1) or resolve())
    _, chain, _ = ergodic_walk_chain(40, 2, 0)
    aux = build_aux_chain(chain)
    m = aux.start()
    for _ in range(5):
        m = aux.left_step(m)
    assert len(calls) == 1
    mixing_profile(chain, 10)
    assert len(calls) == 2


class RecordingExecutor:
    """Stands in for ``ThreadPoolExecutor``: records ``max_workers`` and runs tasks in the caller.

    The pool's start-up tasks wait on a ``threading.Barrier``, which the
    test makes a no-op, since no thread starts.
    """

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def map(self, fn, items):
        return map(fn, items)

    def shutdown(self, wait=True):
        pass


class NoBarrier:
    def __init__(self, parties):
        pass

    def wait(self):
        pass


def test_a_huge_worker_count_starts_no_more_threads_than_usable_cpus(monkeypatch):
    import concurrent.futures
    import threading

    monkeypatch.setattr(threading, "Barrier", NoBarrier)
    monkeypatch.setattr(chains, "THREADED_STEP_MIN", 0)
    monkeypatch.setattr(chains, "_pool", None)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    monkeypatch.setenv("DFA_MEET_THREADS", str(10**18))
    _, chain, _ = ergodic_walk_chain(40, 2, 0)
    aux = build_aux_chain(chain)
    aux.left_step(aux.start())
    mixing_profile(chain, 5)
    cpus = chains._usable_cpus()
    assert all(size <= cpus for size in RecordingExecutor.sizes)
    if cpus > 1:
        assert RecordingExecutor.sizes == [cpus]
    assert (aux.row_groups is None) == (cpus == 1)


def test_a_forked_child_steps_on_its_own_threads():
    """A child forked after the parent's pool exists makes its own pool, so its step ends."""
    code = ("import os, signal\n"
            "import numpy as np\n"
            "from dfa_meet import build_aux_chain, chains, ergodic_walk_chain\n"
            "chains.THREADED_STEP_MIN = 0\n"
            "chains._usable_cpus = lambda: 2\n"
            "os.environ['DFA_MEET_THREADS'] = '2'\n"
            "a = build_aux_chain(ergodic_walk_chain(40, 2, 0)[1])\n"
            "m = a.left_step(a.start())\n"
            "assert chains._pool is not None\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(30)  # a child stuck on its parent's pool ends here\n"
            "    os._exit(0 if np.array_equal(a.left_step(m), a.left_step(m)) else 3)\n"
            "print(os.waitpid(pid, 0)[1])\n")
    if not hasattr(os, "fork"):
        pytest.skip("no fork on this platform")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60,
                          check=True)
    assert done.stdout.split() == ["0"]
