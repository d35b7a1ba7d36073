"""The fraction-free solves that the tests hold `ring.adjugate_columns` and the
class-polynomial map against.

They are written apart from the package's elimination and share no code
with it: Bareiss elimination in `LaurentScalar` arithmetic, every division
an `exact_div`, on the augmented matrix [M | c] for one right side at a
time (`replay_reference`) or on [M | I] for every column at once
(`adjugate_reference`), then back substitution.
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


def adjugate_reference(rows):
    """(d, [adj_0, ..., adj_{n-1}]) in the output format of `ring.adjugate_columns`:
    Bareiss elimination of [M | I] in Laurent arithmetic, then back substitution
    of each identity column.  Raises SingularMatrixError when a column has no
    nonzero pivot."""
    n = len(rows)
    m = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(rows)]
    prev = ONE
    for k in range(n):
        if m[k][k].is_zero():
            i = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if i is None:
                raise SingularMatrixError(k)
            m[k], m[i] = m[i], m[k]
        row_k = m[k]
        piv = row_k[k]
        for row in m[k + 1:]:
            mik = row[k]
            for j in range(k + 1, 2 * n):
                row[j] = (row[j] * piv - mik * row_k[j]).exact_div(prev)
        prev = piv
    adj = []
    for col in range(n, 2 * n):
        y = [ZERO] * n
        for i in range(n - 1, -1, -1):
            row = m[i]
            acc = prev * row[col]
            for j in range(i + 1, n):
                acc = acc - row[j] * y[j]
            y[i] = acc.exact_div(row[i])
        adj.append(tuple((i, a) for i, a in enumerate(y) if a))
    return prev, adj
