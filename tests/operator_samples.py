"""Random operator factories shared by the test modules.

Imported by name (``from operator_samples import ...``); the name is
unique so that it cannot resolve to a helper module of another test
directory collected in the same pytest run.
"""

from nclil.operators import Operator


def random_hermitian(rng, d, scale=1.0):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return Operator(scale * (g + g.conj().T) / 2.0, hermitian=True)


def random_general(rng, d, scale=1.0):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return Operator(scale * g)


def random_diag(rng, d, scale=1.0):
    return Operator(scale * rng.standard_normal(d), hermitian=True)
