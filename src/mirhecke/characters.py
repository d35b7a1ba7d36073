"""Irreducible characters of the mirabolic Hecke algebra.

Rows of the character table are labelled by pairs (lambda, k) with lambda a
partition of k <= n; columns by the cocenter representatives attached to
partitions mu of size <= n.  Entries are computed by a recursion that strips
the last (smallest) part m of mu and sums over all ways of removing a strip
lam/nu of size t <= m, with components c, from lambda:

    chi[lam](mu) = sum_nu g(t, m) * strip_weight(t, c) * chi[nu](mu - last part)

with the base case chi[lam](empty) = [lam == empty].

The list of (nu, |nu|, g * strip_weight) of one (lam, m, variant) comes from
`symfun.transitions`, which the strip Pieri rule reads too, so the Pieri
brute-force check validates the very coefficients used here; it filters one
strip enumeration per lam and reads coefficients memoized by strip shape.
A table build reads it once for each (lam, m) that a column applies.

The table is built by columns.  Partitions of size <= n get dense ids, their
positions in `partitions_up_to(n)`; that order is graded by size, so the
partitions of size <= k are the ids below a cut.  Columns come in the same
order: the column of mu = rest + (m,) is built from the column of rest, which
comes earlier.  Each step removes at most m boxes, so chi[nu](rest) = 0
whenever |nu| > |rest|; a column of mu therefore holds only the ids with
|lam| <= |mu|, every larger lam reads as zero, and the sum over the strips
stops at the first nu id past the column of rest.  The strips of one
(lam, m) are read once into an id-row of (nu id, j), sorted by nu id, where
j is the position of the coefficient among the distinct coefficients of the
build.  B and E below are read off these id-rows (`_bounds`), so the rows
bounded are the rows applied; then each distinct coefficient is packed
once, as (packed value, shift), and a column applies each id-row through
that list.

Values are plain ints (Kronecker substitution, see `ring.pack`) in q-slots:
every transition coefficient lies in Z[q, q^-1], an entry x is stored as
x(q = 2^B) * 2^(B*E), a coefficient c that reaches d powers of q below q^0
as c(q = 2^B) * 2^(B*d), and a product is (x * c) >> (d*B), as
`algebra._product` scales a word's partial product by its coefficient.
A coefficient with an odd power of v raises ValueError when it is packed.
B and E are fixed a priori, before any value is computed:

- M[m] is the largest sum of |c|_1 over the id-row of one (lam, m), and s(m)
  the largest depth d of a coefficient for m, both over the lam that some
  column with last part m reads (|lam| <= the largest |mu| ending in m),
  which are exactly the lam that have an id-row for m;
- B = `slot_bits`(max over mu of the product of M[m] over the parts m of mu)
  and E = max over mu of the sum of s(m) over its parts.

Proof, by induction on the length of mu: chi[lam](()) is 0 or 1, and
chi[lam](mu) = sum c * chi[nu](rest) gives
|chi[lam](mu)|_1 <= M[m] * max |chi[nu](rest)|_1 and a lowest q-exponent of
every product c * chi[nu](rest) of at least -s(m) - (the bound for rest).
So every product and every entry reaches at most E powers of q below q^0,
which makes each packed value an int and each right shift exact, and every
coefficient of every entry has absolute value < 2^(B-1), so each entry
decodes uniquely and a packed value is 0 exactly when the entry is.
Each distinct packed value is decoded once, every zero is the shared `ZERO`,
and the packed columns and id-rows are dropped once the table is decoded.

The decoded table is memoized in process only, one per (n, variant), and
nothing is written to disk.  The memo is not rank-free, because B and E
depend on n, although chi[lam](mu) itself does not (a test checks that a
rank-n table is the restriction of the rank-(n+1) one).  `character_table`
returns a fresh table over a copy of the memoized entries, and
`mn_character` builds the rank-n table on its first call and then reads it.

The transition coefficients ship in two variants (`symfun.G_VARIANTS`).  The
default "oracle" variant passes the brute-force product oracle for every
tested size; the "paper" variant reproduces a published case list that
fails that oracle at m = 2 (kept selectable so the discrepancy is
demonstrable, never used by default).

Class polynomials express any standard basis element through the cocenter
representatives: its coefficient vector f is the unique solution of
M f = chi, with M the character table and chi the element's character
values from the Schur-Weyl trace oracle.  Past the trace kernel, f is a
fixed linear map of the trace over Z[v, v^-1] for each table.  If t lists
the coefficients of the weighted trace in the monomial basis m_mu
(`tensorrep.trace_sums`), then chi = S t, with S the inverse Kostka matrix
(s_lam = sum_mu K_lam,mu m_mu, Macdonald I.6), and f = y / d with
y = adj S t, adj = d M^-1 the adjugate and d = +-det M, both from the
fraction-free Bareiss elimination of `ring` (Bareiss 1968).  Each nonzero
y_mu must divide exactly by d in Z[v, v^-1]; one that does not is a
defect, not a result, and raises ClassPolynomialDefect.

`_class_map` forms W = adj S once per table and packs it in v-slots
(`ring.pack`, step 1) at a width B and an offset E_adj.  A call asks
`tensorrep.trace_sums` for t packed at the same width, forms each
y_i = sum_mu W_i,mu t_mu from int products, unpacks each nonzero y_i once
and divides it by d.  B and E_adj are derived from the table and the rank
before any trace is taken, and neither is a constant or a setting:

- T is the largest `tensorrep.trace_bound`, (r+1)^(n-k) 3^L, over the
  basis words of rank n at r = n.  A trace sum adds at most (r+1)^(n-k)
  diagonal entries of l1 norm at most 3^L each, so ||t_mu||_1 <= T;
- B = `slot_bits`(max over i of sum over j of ||adj_ij||_1 times
  sum over mu of |S_j,mu|, times T), and E_adj = max(0, -(the lowest
  v-exponent of adj)).

Proof.  y_i = sum_j adj_ij sum_mu S_j,mu t_mu, so
||y_i||_1 <= sum_j ||adj_ij||_1 sum_mu |S_j,mu| T, and every coefficient
of y_i has absolute value below 2^(B-1): it decodes uniquely, and a
packed y_i is 0 exactly when y_i is.  The coefficients of each W_i,mu are
bounded by a part of the same sum, so W packs at B too.  S is an integer
matrix, so no exponent of W is below -E_adj, and no exponent of t is below
-E, E being the drop (`algebra._word_bounds`) of the element's rotated
word, which `trace_sums` returns.  Packing is a ring homomorphism, so each int product
W_i,mu t_mu is the packed product at offset E_adj + E, and y_i is unpacked
there.  Nothing is shifted right, so nothing needs to be exact but the
decoding.

The map is cached by the table's content: under the key (n, labels,
rows), so a table with other entries, such as a scaled one, gets a map of
its own and never reads another's.  At most 8 maps are kept, in process
only, and this is the one cache of maps on the path: `ring` keeps none.
A call without a table takes the default rank-n table's (labels, rows)
from `_default_rows`, a memo per rank built once from `_table`, so it
copies no table and reads no entry.  The map is still found by that
content: it is the map a caller that passes `character_table(n)` gets.
S is read off `symfun.schur_expand` of each m_mu, one expansion per label.
Every adjugate column is built when the map is, by one elimination in
`ring.adjugate_columns`.  That makes a first call dearer when its trace
needs only a few columns, but B is a maximum over every entry of adj, so
a map built from some columns could be too narrow for a later trace, and
a whole basis of calls needs every column anyway.
That the table is invertible at sample points is checked in
`checks.determinant_nonzero`, by its rank over Q.
"""

from __future__ import annotations

from functools import cache, lru_cache

from .combinatorics import (
    BasisIndex,
    Partition,
    check_partition,
    iter_standard_basis,
    partitions_up_to,
)
from .ring import (
    InexactDivisionError,
    LaurentScalar,
    ONE,
    ZERO,
    adjugate_columns,
    pack,
    slot_bits,
    unpack,
)
from .symfun import SymPoly, schur_expand, transitions


class ClassPolynomialDefect(RuntimeError):
    """Raised when a class-polynomial solution is not Laurent-polynomial."""


# ---------------------------------------------------------------------------
# the recursive character engine
# ---------------------------------------------------------------------------


def mn_character(n: int, lam, mu, variant: str = "oracle") -> LaurentScalar:
    """Character value chi[(lam, |lam|)] on the representative of mu, rank n.

    The recursion removes the last part of mu; removing any other part gives
    the same value, which a test checks for the first part.  The first call
    builds the whole rank-n table; later calls read it.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) > n or sum(mu) > n:
        raise ValueError(f"|lam| and |mu| must be <= n = {n}")
    return _table(n, variant)[(lam, mu)]


def _q_depth(c: LaurentScalar) -> int:
    """How many powers of q the transition coefficient c reaches below q^0."""
    return max(0, -(c.min_exp() // 2))


def _bounds(rows: dict, coeffs: list, labels: list) -> tuple[int, int]:
    """(B, E): the slot width and the q-offset of every packed value of the table,
    from the id-rows its columns apply (see the module docstring).

    rows[m][i] is the id-row of (labels[i], m), of (nu id, position in coeffs),
    for each id i that some column with last part m reads; labels are the
    partitions mu.
    """
    norms = [c.l1_norm() for c in coeffs]
    depths = [_q_depth(c) for c in coeffs]
    mass = {}  # M[m]: the largest sum of |c|_1 over one id-row for m
    depth = {}  # s(m): the largest _q_depth of any coefficient for m
    for m, id_rows in rows.items():
        mass[m] = max(sum(norms[j] for _, j in row) for row in id_rows)
        depth[m] = max(depths[j] for row in id_rows for _, j in row)
    bound = offset = 0
    for mu in labels:
        b, s = 1, 0
        for m in mu:
            b *= mass[m]
            s += depth[m]
        bound = max(bound, b)
        offset = max(offset, s)
    return slot_bits(bound), offset


def _column(rest: list, id_rows: list, packed: list, count: int) -> list:
    """The packed column of mu = rest + (m,), ids below count, from the packed column
    of rest, the id-rows for m and the packed coefficients."""
    top = len(rest)
    col = []
    for row in id_rows[:count]:
        acc = 0
        for nid, j in row:
            if nid >= top:
                break
            x = rest[nid]
            if x:
                p, shift = packed[j]
                acc += (x * p) >> shift
        col.append(acc)
    return col


@cache
def _table(n: int, variant: str) -> dict:
    """{(lam, mu): chi[lam](mu)} for |lam|, |mu| <= n, built column by column on packed ints."""
    labels = partitions_up_to(n)
    ids = {lam: i for i, lam in enumerate(labels)}
    below = [0] * (n + 1)  # the partitions of size <= k are the ids below below[k]
    for lam in labels:
        below[sum(lam)] += 1
    for k in range(1, n + 1):
        below[k] += below[k - 1]
    reads = [0] * (n + 1)  # the columns with last part m read the ids below reads[m]
    for mu in labels[1:]:
        reads[mu[-1]] = max(reads[mu[-1]], below[sum(mu)])
    positions: dict = {}  # distinct coefficient -> its position
    rows = {}  # m -> the id-rows of the ids below reads[m], each by ascending nu id
    for m in range(1, n + 1):
        rows[m] = [
            sorted(  # one strip per nu, so by nu id
                (ids[nu], positions.setdefault(c, len(positions)))
                for nu, _, c in transitions(lam, m, variant)
            )
            for lam in labels[: reads[m]]
        ]
    coeffs = list(positions)
    bits, offset = _bounds(rows, coeffs, labels)
    packed = []
    for c in coeffs:
        depth = _q_depth(c)
        packed.append((pack(c, bits, depth, 2), depth * bits))
    columns = []
    for mu in labels:
        if mu:
            columns.append(_column(columns[ids[mu[:-1]]], rows[mu[-1]], packed, below[sum(mu)]))
        else:
            columns.append([1 << bits * offset])  # chi[()](()) = 1
    decoded = {0: ZERO}
    entries = {}
    for mu, col in zip(labels, columns):
        for lam, x in zip(labels, col):
            s = decoded.get(x)
            if s is None:
                s = decoded[x] = unpack(x, bits, offset, 2)
            entries[(lam, mu)] = s
        for lam in labels[len(col) :]:
            entries[(lam, mu)] = ZERO
    return entries


# ---------------------------------------------------------------------------
# the character table
# ---------------------------------------------------------------------------


class CharacterTable:
    """Square table of character values, rows and columns in canonical order.

    Equal when all four fields are; unhashable.
    """

    __slots__ = ("n", "labels", "entries", "variant")

    def __init__(self, n: int, labels: list, entries: dict, variant: str = "oracle"):
        self.n = n
        self.labels = labels
        self.entries = entries  # (row partition, col partition) -> LaurentScalar
        self.variant = variant

    def __eq__(self, other):
        if other.__class__ is not CharacterTable:
            return NotImplemented
        return (self.n, self.labels, self.entries, self.variant) == (
            other.n, other.labels, other.entries, other.variant
        )

    def __repr__(self):
        return (
            f"CharacterTable(n={self.n!r}, labels={self.labels!r}, "
            f"entries={self.entries!r}, variant={self.variant!r})"
        )

    def matrix(self) -> list:
        return [[self.entries[(lam, mu)] for mu in self.labels] for lam in self.labels]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "variant": self.variant,
            "labels": [partition_string(p) for p in self.labels],
            "entries": [
                [self.entries[(lam, mu)].to_json() for mu in self.labels]
                for lam in self.labels
            ],
        }

    def to_csv(self) -> str:
        lines = ["lambda\\mu," + ",".join(partition_string(p) for p in self.labels)]
        for lam in self.labels:
            cells = [self.entries[(lam, mu)].to_string() for mu in self.labels]
            lines.append(partition_string(lam) + "," + ",".join(cells))
        return "\n".join(lines) + "\n"


def character_table(n: int, variant: str = "oracle") -> CharacterTable:
    """The full table of chi[(lam, |lam|)] on the mu-representatives, |lam|, |mu| <= n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return CharacterTable(n, partitions_up_to(n), dict(_table(n, variant)), variant)


# ---------------------------------------------------------------------------
# class polynomials
# ---------------------------------------------------------------------------


class ClassPolyVector:
    """Coefficients expressing a basis element through the cocenter representatives.

    Equal when the index and the coefficients are; unhashable.
    """

    __slots__ = ("index", "coeffs")

    def __init__(self, index: BasisIndex, coeffs: dict):
        self.index = index
        self.coeffs = coeffs  # partition -> LaurentScalar

    def __eq__(self, other):
        if other.__class__ is not ClassPolyVector:
            return NotImplemented
        return (self.index, self.coeffs) == (other.index, other.coeffs)

    def __repr__(self):
        return f"ClassPolyVector(index={self.index!r}, coeffs={self.coeffs!r})"

    def to_json(self) -> dict:
        order = sorted(self.coeffs, key=lambda p: (sum(p), [-a for a in p]))
        return {
            "index": self.index.to_json(),
            "f": {partition_string(p): self.coeffs[p].to_json() for p in order},
        }


def _rows(labels, entries: dict) -> tuple:
    """(labels, rows) of a table as tuples, rows and entries in label order."""
    labels = tuple(labels)
    return labels, tuple(tuple([entries[(lam, mu)] for mu in labels]) for lam in labels)


@cache
def _default_rows(n: int) -> tuple:
    """`_rows` of the default rank-n table, read once per rank."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _rows(partitions_up_to(n), _table(n, "oracle"))


@lru_cache(maxsize=8)
def _class_map(n: int, labels: tuple, rows: tuple) -> tuple:
    """(d, B, E_adj, cols): the class-polynomial map of one table, rows in label order.

    cols[mu] lists (i, W[i][mu] packed at (B, E_adj)) over the nonzero
    entries of W = adj S, with adj = d M^-1 (`ring.adjugate_columns`) and S
    the inverse Kostka matrix: S[j][m] is the coefficient of s_(labels[j]) in
    m_(labels[m]).  B and E_adj are derived as in the module docstring.
    """
    from . import tensorrep

    size = len(labels)
    ids = {lam: j for j, lam in enumerate(labels)}
    kostka_inv = [[0] * size for _ in labels]
    for m, mu in enumerate(labels):
        for lam, c in schur_expand(SymPoly(n, {mu: ONE})).items():
            ((e, a),) = c.items()
            if e:
                raise ValueError(f"inverse Kostka entry {c.to_string()} is not an integer")
            kostka_inv[ids[lam]][m] = a
    d, adj = adjugate_columns(rows)
    offset = max(0, -min(e for col in adj for _, a in col for e, _ in a.items()))
    spread = [sum(map(abs, row)) for row in kostka_inv]
    mass = [0] * size  # sum over j of ||adj[i][j]||_1 * sum over mu of |S[j][mu]|
    for j, col in enumerate(adj):
        for i, a in col:
            mass[i] += a.l1_norm() * spread[j]
    top = max(tensorrep.trace_bound(n, idx) for idx in iter_standard_basis(n))
    bits = slot_bits(max(mass) * top)
    w = [[0] * size for _ in labels]  # w[m][i]: W[i][m] packed, summed on ints
    for j, col in enumerate(adj):
        packed = [(i, pack(a, bits, offset)) for i, a in col]
        for m, s_jm in enumerate(kostka_inv[j]):
            if s_jm:
                row = w[m]
                for i, a in packed:
                    row[i] += s_jm * a
    cols = {mu: tuple((i, x) for i, x in enumerate(w[m]) if x) for m, mu in enumerate(labels)}
    return d, bits, offset, cols


def class_polynomials(
    n: int, idx: BasisIndex, table: CharacterTable | None = None
) -> ClassPolyVector:
    """Solve for the coefficients f with chi[lam](T_idx) = sum_mu f[mu] chi[lam](mu-rep).

    The right side comes from the independent tensor trace oracle at r = n:
    the packed diagonal sums t of `tensorrep.trace_sums`, which the cached
    map of the table turns into y = adj S t with f = y / d (see the module
    docstring).  Each nonzero y[mu] must divide exactly by d in Z[v, v^-1]
    (a non-Laurent coefficient is a defect, not a result, and raises
    ClassPolynomialDefect).
    """
    from . import tensorrep

    if idx.n != n:
        raise ValueError("index rank mismatch")
    if table is None:
        labels, rows = _default_rows(n)
    elif table.n != n:
        raise ValueError(f"character table of rank {table.n} given for rank {n}")
    else:
        labels, rows = _rows(table.labels, table.entries)
    d, bits, offset, cols = _class_map(n, labels, rows)
    e, sums = tensorrep.trace_sums(n, idx, bits)
    y = [0] * len(labels)
    for mu, t in sums.items():
        for i, w in cols[mu]:
            y[i] += w * t
    coeffs = {}
    for mu, y_mu in zip(labels, y):
        if not y_mu:
            continue
        y_mu = unpack(y_mu, bits, offset + e)
        try:
            coeffs[mu] = y_mu.exact_div(d)
        except InexactDivisionError:
            raise ClassPolynomialDefect(
                f"non-polynomial coefficient at {mu}: ({y_mu.to_string()}) / ({d.to_string()})"
            ) from None
    return ClassPolyVector(idx, coeffs)


# ---------------------------------------------------------------------------
# partition strings (CSV-safe, dot-separated)
# ---------------------------------------------------------------------------


def partition_string(p) -> str:
    p = tuple(p)
    return ".".join(str(a) for a in p) if p else "0"


def parse_partition(s: str) -> Partition:
    s = s.strip()
    if s in ("", "0"):
        return ()
    try:
        parts = tuple(int(a) for a in s.split("."))
    except ValueError as exc:
        raise ValueError(f"bad partition string {s!r}") from exc
    return check_partition(parts)
