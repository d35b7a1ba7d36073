"""The fraction-free solve that the tests hold `ring.adjugate_columns` and the
class-polynomial map against.

It is written apart from the package's elimination and shares no code with
it: Bareiss elimination on the augmented matrix [M | c] for one right side
at a time, then back substitution.
"""

from mirhecke.ring import ONE, ZERO, SingularMatrixError


def replay_reference(M, c):
    """(d, y) with M y = d c and d = +-det M: Bareiss elimination on the augmented
    matrix [M | c], then back substitution, every division exact.
    Raises SingularMatrixError when a column has no nonzero pivot."""
    m = [list(row) + [ci] for row, ci in zip(M, c)]
    n = len(m)
    prev = ONE
    for k in range(n):
        if m[k][k].is_zero():
            i = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if i is None:
                raise SingularMatrixError(k)
            m[k], m[i] = m[i], m[k]
        piv = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                m[i][j] = (m[i][j] * piv - m[i][k] * m[k][j]).exact_div(prev)
        prev = piv
    y = [ZERO] * n
    for i in range(n - 1, -1, -1):
        acc = prev * m[i][n]
        for j in range(i + 1, n):
            acc = acc - m[i][j] * y[j]
        y[i] = acc.exact_div(m[i][i])
    return prev, y
