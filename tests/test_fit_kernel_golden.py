"""Exact pins of the fit reports and of the explicit pair kernel.

A rewrite of how ``stats`` builds its ``FitReport`` or measures a distance,
or of how ``AuxChain.kernel_matrix`` assembles the kernel, must leave these
bits unchanged. The samples tie with the reference and differ from it in
size. The kernels come from DFAs whose colors are permutations, so the
stationary law is exactly uniform and is set rather than solved: every
entry is then sparse arithmetic on exact inputs, with ``1/r**2`` inexact
at ``r = 3`` and ``r = 5``. To print the current digests, run
``PYTHONPATH=src python -m tests.test_fit_kernel_golden``.
"""

import hashlib

import numpy as np
import pytest

from dfa_meet.aux_chain import build_aux_chain
from dfa_meet.chains import walk_matrix
from dfa_meet.dfa import Dfa
from dfa_meet.stats import exponential_fit, geometric_tail_fit, sample_fit

SAMPLE = [0, 1, 1, 2, 3, 3, 3, 5, 8, 13]
# ties with SAMPLE at 1, 3 and 13
TIED_REFERENCE = [0.5, 1, 1, 3, 3, 4, 7, 13]
# below, between and above SAMPLE's points, so the KS sup falls on a reference point
SPREAD_REFERENCE = [-1, 1.5, 1.6, 1.7, 1.8, 2.5, 3, 21]
MOMENTS = {"sample_mean": 3.9, "sample_variance": 15.43333333333333, "sem": 1.2423096769056148}


def fits():
    return {
        "geometric-0.2": geometric_tail_fit(SAMPLE, 0.2),
        "geometric-1": geometric_tail_fit(SAMPLE, 1.0),
        "exponential": exponential_fit(np.array(SAMPLE) / 4, 1.0),
        "sample-tied": sample_fit(SAMPLE, TIED_REFERENCE, "kingman", {"n": 10}),
        "sample-spread": sample_fit(SAMPLE, SPREAD_REFERENCE, "spread"),
    }


GOLDEN_FITS = {
    "geometric-0.2": {"reference": "geometric", "params": {"lambda": 0.2},
                      "ks_distance": 0.10959999999999992, "w1_distance": 0.5,
                      **MOMENTS, "sup_tail_ratio": 0.9375},
    "geometric-1": {"reference": "geometric", "params": {"lambda": 1.0},
                    "ks_distance": None, "w1_distance": None, **MOMENTS, "sup_tail_ratio": 1.0},
    "exponential": {"reference": "exponential", "params": {"mean": 1.0},
                    "ks_distance": 0.17236655274101464, "w1_distance": 0.12396084438899509,
                    "sample_mean": 0.975, "sample_variance": 0.9645833333333331,
                    "sem": 0.3105774192264037, "sup_tail_ratio": None},
    "sample-tied": {"reference": "kingman", "params": {"n": 10}, "ks_distance": 0.1,
                    "w1_distance": 0.5875000000000001, **MOMENTS, "sup_tail_ratio": None},
    "sample-spread": {"reference": "spread", "params": {}, "ks_distance": 0.35,
                      "w1_distance": 2.3225000000000002, **MOMENTS, "sup_tail_ratio": None},
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FITS))
def test_fit_report_is_pinned(name):
    assert fits()[name].as_dict() == GOLDEN_FITS[name]


def permutation_dfa(n, r, seed):
    """Color ``c`` sends ``x`` to ``p[(q[x] + s_c) % n]``: each color a permutation, rows distinct."""
    rng = np.random.default_rng(seed)
    p, q = rng.permutation(n), rng.permutation(n)
    shifts = rng.choice(n, size=r, replace=False)
    return Dfa(n=n, r=r, out=p[(q[:, None] + shifts[None, :]) % n])


def kernel_digest(n, r, seed):
    """SHA-256 of the shape and the canonical CSR arrays of ``kernel_matrix()``."""
    chain = walk_matrix(permutation_dfa(n, r, seed))
    chain.stationary = np.full(n, 1.0 / n)
    k = build_aux_chain(chain).kernel_matrix().tocsr(copy=True)
    k.sum_duplicates()
    k.sort_indices()
    h = hashlib.sha256(np.asarray(k.shape, dtype="<i8").tobytes())
    for values, dtype in ((k.indptr, "<i8"), (k.indices, "<i8"), (k.data, "<f8")):
        h.update(np.ascontiguousarray(values, dtype=dtype).tobytes())
    return h.hexdigest()


GOLDEN_KERNELS = {
    (5, 2, 0): "68da1a993c090781c70d89ec209f43015ef0d45b9402ac873303038b9ed72698",
    (6, 3, 1): "5e0b00980bb70e785d61f629c8c1824776f7e47d380843b7406cae780ca3028b",
    (7, 5, 2): "b9b41c2e775e7b2191d4b5d7ce5eabe5a067c5f1d54aae398b116ae02d4baabd",
    (9, 4, 3): "17af066e04e6cdef7ae9d4585208ccb0ac81e5dff40b90aeb98238b8d5a453cb",
}


@pytest.mark.parametrize("n, r, seed", sorted(GOLDEN_KERNELS))
def test_kernel_matrix_is_pinned(n, r, seed):
    assert kernel_digest(n, r, seed) == GOLDEN_KERNELS[(n, r, seed)]


if __name__ == "__main__":
    for case in sorted(GOLDEN_KERNELS):
        print(case, kernel_digest(*case))
    for name, fit in fits().items():
        print(name, fit.as_dict())
