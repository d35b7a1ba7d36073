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


def p_relabel(A, B, w, j):
    """b P_j = sign * (A', B', w') for b = (A, B, w), as (sign, A', B', w').

    The signed relabel of Solomon's rook-monoid picture, read straight from
    its definition, one x at a time: b is the partial permutation sigma with
    domain [n] - B, image [n] - A and sigma(D_t) = I_{w(k+t)-k}; for
    x = 1..j not in B, with y = sigma(x), the sign flips by
    #{a in A: a < y} + #{b in B: b < x} (current A and B), y joins A, x
    joins B and x leaves sigma.  w' lists the ranks in [n] - A' of the
    images of the remaining domain [n] - B', after the identity on 1..|A'|.
    """
    n, k = len(w), len(A)
    image = [y for y in range(1, n + 1) if y not in A]
    domain = [x for x in range(1, n + 1) if x not in B]
    sigma = {x: image[w[t] - k - 1] for t, x in enumerate(domain, k)}
    A2, B2 = list(A), list(B)
    sign = 1
    for x in range(1, j + 1):
        y = sigma.pop(x, None)
        if y is not None:
            if (sum(a < y for a in A2) + sum(b < x for b in B2)) & 1:
                sign = -sign
            A2 = sorted(A2 + [y])
            B2 = sorted(B2 + [x])
    if len(A2) == k:
        return sign, A, B, w
    k = len(A2)
    rank = {y: r for r, y in enumerate((y for y in range(1, n + 1) if y not in A2), k + 1)}
    return sign, tuple(A2), tuple(B2), tuple(range(1, k + 1)) + tuple(rank[sigma[x]] for x in sorted(sigma))
