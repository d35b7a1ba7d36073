"""Permutation helpers that only the tests' reference routes use.

Permutations are tuples of images `(w(1), ..., w(n))` with 1-based values,
as in `mirhecke.combinatorics`.
"""


def pcompose(u, v):
    """(u o v)(x) = u(v(x))."""
    return tuple(u[v[i] - 1] for i in range(len(u)))


def plength(u):
    """Coxeter length = number of inversions."""
    n = len(u)
    return sum(1 for i in range(n) for j in range(i + 1, n) if u[i] > u[j])


def apply_left_s(w, i):
    """s_i * w (swap the values i, i+1 in the image list)."""
    return tuple(i + 1 if a == i else i if a == i + 1 else a for a in w)
