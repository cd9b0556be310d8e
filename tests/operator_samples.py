"""Random operator factories shared by the test modules.

Imported by name (``from operator_samples import ...``); the name is
unique so that it cannot resolve to a helper module of another test
directory collected in the same pytest run.
"""

from nclil.operators import dense_operator, diagonal_operator


def random_hermitian(rng, d, scale=1.0):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return dense_operator(scale * (g + g.conj().T) / 2.0, hermitian=True)


def random_general(rng, d, scale=1.0):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return dense_operator(scale * g)


def random_diag(rng, d, scale=1.0):
    return diagonal_operator(scale * rng.standard_normal(d))
