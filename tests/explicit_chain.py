"""The collapsed pair chain as an explicit chain over its ``n*(n-1) + 1`` states.

The tests check the pair form (dense ``(n, n)`` states, see
``dfa_meet.aux_chain``) against this flat form on small instances.
"""

import numpy as np

from dfa_meet.chains import make_chain


def flatten_pair_form(aux, m):
    """Pair-matrix state ``m`` as a flat vector: off-diagonal pairs row-major, then ``DELTA``."""
    return np.concatenate([m[~np.eye(aux.n, dtype=bool)], [np.trace(m)]])


def pi_tilde_vector(aux):
    """Closed-form stationary law as a flat vector over the state space."""
    return flatten_pair_form(aux, aux.pi_tilde_pair_form())


def explicit_chain(aux):
    """``aux.kernel_matrix()`` as a generic chain with the closed-form stationary law."""
    chain = make_chain(aux.kernel_matrix())
    chain.stationary = pi_tilde_vector(aux)
    return chain
