"""Small von Neumann regular rings and their ideal lattices.

A ring is regular when every x has a quasi-inverse y with xyx = x.  Rings
here are finite and table-driven: structured rings are finite products of
full matrix rings over prime fields, built from a spec string like
"M(1,2)xM(2,3)"; tabular rings are given by explicit addition/multiplication
tables.  M(n,p) is numbered by its row-major entry tuples in
``itertools.product`` order.  A product with a factor C of size k numbers
(i, s) as i*k + s, so add[(i,s)][(j,t)] = add[i][j]*k + add_C[s][t] (and
likewise mul) folds the product tables from the factor tables.

From a regular ring R the module computes:

* L(R), the lattice of principal right ideals (complemented and modular),
  each node labelled by an idempotent generator; x is regular iff xR has
  one, so the search for generators is also the regularity scan;
* isomorphism of principal right ideals, with certificates x in aRb,
  y in bRa such that xy = a and yx = b;
* Id R, the lattice of two-sided ideals: the join-closure of the
  principal ideals RxR, built once per element and kept on the lattice.
  Subgroups grow by <H, g> = H + <g>, the union of the cosets H + mg.  The
  elements of R that enlarge the subgroup scanned so far form an additive
  generating set G (5 elements for M(1,3)xM(2,3), 9 for M(3,2)), and by
  distributivity RxR is the span of the |G|^2 products axb with a, b in G;
* the inverse bijections between neutral ideals of L(R) and Id R;
* V(R), the monoid of isomorphism classes of principal right ideals, which
  for a finite (hence semisimple) regular ring is free commutative on the
  classes of indecomposables: elements are multiplicity vectors in N^k,
  checked for additivity over independent joins and for naming exactly the
  isomorphism classes of L(R), read from one table per L(R);
* the map pi from V(R) onto Id R, which reads a vector only through its
  support and so is checked on pairs of indicator vectors, and the maximal
  semilattice quotient of V(R): the support map onto the Boolean
  semilattice 2^k, which is the free semilattice on the k classes, so its
  universal property is checked against that one target.
"""
from __future__ import annotations

import itertools
import math
import re
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .congruence import NotAnIdeal, con_lattice, con_nid_iso, is_neutral_ideal, neutral_ideals
from .lattice import FiniteLattice, _bits, _check_elements, _Frozen, _once

RING_SIZE_BOUND = 1 << 14


class NotRegular(ValueError):
    """The ring has an element, ``element``, with no quasi-inverse."""

    def __init__(self, element: int):
        super().__init__(element)
        self.element = element

    def __str__(self) -> str:
        return f"element {self.element} has no quasi-inverse"


class NotIdempotent(ValueError):
    """A principal-right-ideal label must be an idempotent."""


class NotNeutral(ValueError):
    """The node set is not a neutral ideal of L(R)."""


class NotTwoSided(ValueError):
    """The element set is not a two-sided ideal."""


class DecompositionFail(ValueError):
    """No complement found while decomposing into indecomposables."""


class SpecParse(ValueError):
    """Malformed ring spec string."""


class RingTooLarge(ValueError):
    """The structured ring would exceed the element bound."""


def _check_component(n: int, p: int) -> int:
    """The size p^(n*n) of M(n,p), once n >= 1, p is prime and the size is
    within RING_SIZE_BOUND.  The size is bounded before the primality test,
    by at most 15 multiplications by p >= 2, so no step grows with n or p."""
    if n < 1:
        raise SpecParse(f"matrix size {n} must be at least 1")
    if p < 2:
        raise SpecParse(f"{p} is not prime")
    size = 1
    for _ in range(n * n):
        size *= p
        if size > RING_SIZE_BOUND:
            raise RingTooLarge(f"ring would have more than {RING_SIZE_BOUND} elements")
    if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise SpecParse(f"{p} is not prime")
    return size


def parse_ring_spec(spec: str) -> list[tuple[int, int]]:
    """Parse "M(n1,p1)xM(n2,p2)x..." into component (size, prime) pairs."""
    parts = spec.replace(" ", "").split("x")
    out = []
    for part in parts:
        m = re.fullmatch(r"M\((\d+),(\d+)\)", part)
        if not m:
            raise SpecParse(f"bad component {part!r}; expected M(n,p)")
        try:
            n, p = int(m.group(1)), int(m.group(2))
        except ValueError:  # past the interpreter's limit on digits to convert
            raise SpecParse(f"component {part[:20]!r}... has too many digits") from None
        _check_component(n, p)
        out.append((n, p))
    if not out:
        raise SpecParse("empty spec")
    return out


def _matrix_tables(n: int, p: int) -> tuple[list[list[int]], list[list[int]], int]:
    """Addition and multiplication tables and the identity of M(n,p), over
    the row-major entry tuples in ``itertools.product`` order.  A matrix's
    number has the numbers of its rows, in the same order over vectors, as
    its digits in base p^n; row i of ab is (row i of a) b, so each product
    is folded from n lookups in a row-vector-times-matrix table."""
    q = p**n
    vectors = list(itertools.product(range(p), repeat=n))
    matrices = list(itertools.product(range(q), repeat=n))  # rows by number
    cols = range(n)

    def number(digits: Iterable[int]) -> int:  # in base p
        out = 0
        for d in digits:
            out = out * p + d
        return out

    # times[v][b]: the number of the row vector v times the matrix b
    times = [
        [
            number(sum(x * vectors[r][j] for x, r in zip(v, b)) % p for j in cols)
            for b in matrices
        ]
        for v in vectors
    ]
    elements = list(range(len(matrices)))
    mul = []
    for a in matrices:
        row = [0] * len(matrices)
        for r in a:
            row = [elements[x * q + y] for x, y in zip(row, times[r])]
        mul.append(row)
    # addition is entrywise, so its table is that of Z_p folded n*n times
    z_p = [[(x + y) % p for y in range(p)] for x in range(p)]
    add = z_p
    for _ in range(n * n - 1):
        add = _fold(add, z_p)
    return add, mul, number(int(i == j) for i in cols for j in cols)


def _fold(outer: list[list[int]], inner: list[list[int]]) -> list[list[int]]:
    """The table of a product from its factors' tables: (i, s) is i*k + s for
    k = len(inner).  Equal entries share one int object, read from a list."""
    k = len(inner)
    elements = list(range(len(outer) * k))
    return [[elements[o * k + c] for o in orow for c in irow] for orow in outer for irow in inner]


def _product_tables(comps: list[tuple[int, int]]) -> tuple[list[list[int]], list[list[int]], int]:
    """Addition and multiplication tables and the identity of the product of
    the matrix rings M(n,p) in ``comps``, folded one factor at a time."""
    add, mul, one = _matrix_tables(*comps[0])
    for n, p in comps[1:]:
        c_add, c_mul, c_one = _matrix_tables(n, p)
        add, mul, one = _fold(add, c_add), _fold(mul, c_mul), one * len(c_add) + c_one
    return add, mul, one


class FiniteRing:
    """A finite ring with identity, as full addition/multiplication tables."""

    def __init__(self, add: Sequence[Sequence[int]], mul: Sequence[Sequence[int]], one: int):
        self.add = tuple(map(tuple, add))
        self.mul = tuple(map(tuple, mul))
        self.n = n = len(self.add)
        self.one = one
        self._validate_shape()
        self.zero = next((z for z in range(n) if all(self.add[z][x] == x for x in range(n))), None)
        if self.zero is None:
            raise ValueError("no additive identity")
        self._validate()

    def _validate_shape(self) -> None:
        n = self.n
        for table in (self.add, self.mul):
            if len(table) != n or any(len(row) != n for row in table):
                raise ValueError("tables must both be n x n")
            if any(type(v) is not int for row in table for v in row):
                raise ValueError("table entries must be ints")
            if any(not 0 <= v < n for row in table for v in row):
                raise ValueError(f"table entry outside 0..{n - 1}")
        if type(self.one) is not int:
            raise ValueError("one must be an int")
        if not 0 <= self.one < n:
            raise ValueError(f"one must be an element of 0..{n - 1}")

    def _validate(self) -> None:
        n, add, mul, one, zero = self.n, self.add, self.mul, self.one, self.zero
        rng = range(n)
        if any(add[x][y] != add[y][x] for x in rng for y in rng):
            raise ValueError("addition is not commutative")
        for x in rng:
            if not any(add[x][y] == zero for y in rng):
                raise ValueError("an element has no additive inverse")
            if mul[one][x] != x or mul[x][one] != x:
                raise ValueError("one is not a multiplicative identity")
        for x in rng:
            for y in rng:
                axy, mxy = add[x][y], mul[x][y]
                for z in rng:
                    if add[axy][z] != add[x][add[y][z]]:
                        raise ValueError("addition is not associative")
                    if mul[mxy][z] != mul[x][mul[y][z]]:
                        raise ValueError("multiplication is not associative")
                    if mul[x][add[y][z]] != add[mxy][mul[x][z]]:
                        raise ValueError("left distributivity fails")
                    if mul[add[y][z]][x] != add[mul[y][x]][mul[z][x]]:
                        raise ValueError("right distributivity fails")

    @classmethod
    def from_tables(cls, obj: dict) -> "FiniteRing":
        return cls(obj["add"], obj["mul"], obj["one"])

    @classmethod
    def from_matrix_spec(cls, spec: str | list[tuple[int, int]]) -> "FiniteRing":
        """Product of full matrix rings over prime fields, built without
        the constructor's checks: the axioms hold by construction, and the
        zero matrix of every factor is numbered 0."""
        comps = parse_ring_spec(spec) if isinstance(spec, str) else list(spec)
        size = 1
        for n, p in comps:
            size *= _check_component(n, p)
            if size > RING_SIZE_BOUND:
                raise RingTooLarge(f"ring would have more than {RING_SIZE_BOUND} elements")
        add, mul, one = _product_tables(comps)
        R = cls.__new__(cls)
        R.add, R.mul = tuple(map(tuple, add)), tuple(map(tuple, mul))
        R.n, R.one, R.zero = size, one, 0
        return R

    def idempotents(self) -> list[int]:
        return [e for e in range(self.n) if self.mul[e][e] == e]

    def __repr__(self) -> str:
        return f"FiniteRing(n={self.n})"


class RegularityResult(NamedTuple):
    holds: bool
    failing: int | None


def is_regular(R: FiniteRing) -> RegularityResult:
    """Every x needs some y with xyx = x.  Read off L(R): building it
    rejects the first x whose xR has no idempotent generator, which is the
    first x without a quasi-inverse (:func:`principal_right_ideals`)."""
    try:
        principal_right_ideals(R)
    except NotRegular as e:
        return RegularityResult(False, e.element)
    return RegularityResult(True, None)


def _inclusion_lattice(
    sets: Iterable[frozenset[int]],
) -> tuple[tuple[frozenset[int], ...], FiniteLattice, dict[frozenset[int], int]]:
    """The distinct sets in (size, elements) order, their inclusion lattice
    and the set -> index dict."""
    ordered = tuple(sorted(set(sets), key=lambda s: (len(s), sorted(s))))
    lattice = FiniteLattice(
        sum(1 << j for j, s in enumerate(ordered) if s <= t) for t in ordered
    )
    return ordered, lattice, {s: i for i, s in enumerate(ordered)}


class RightIdealLattice(_Frozen):
    """L(R): principal right ideals ordered by inclusion.

    ``ideals[k]`` is the element set of node k, ``generators[k]`` an
    idempotent generating it.  The lattice indexing matches both tuples,
    ``index`` maps each ideal back to its node and ``element_nodes[x]`` is
    the node holding xR.
    """

    def __init__(
        self,
        ring: FiniteRing,
        lattice: FiniteLattice,
        ideals: tuple[frozenset[int], ...],
        generators: tuple[int, ...],
        index: dict[frozenset[int], int],
        element_nodes: tuple[int, ...],
    ) -> None:
        vars(self).update(
            ring=ring,
            lattice=lattice,
            ideals=ideals,
            generators=generators,
            index=index,
            element_nodes=element_nodes,
        )

    def _key(self) -> tuple:
        return self.ring, self.lattice, self.ideals, self.generators

    def __repr__(self) -> str:
        return (
            f"RightIdealLattice(ring={self.ring!r}, lattice={self.lattice!r}, "
            f"ideals={self.ideals!r}, generators={self.generators!r})"
        )

    def node_of(self, x: int) -> int:
        """The node holding xR; an x outside the ring raises
        :class:`~conlat.lattice.IndexOutOfRange`."""
        _check_elements(self.ring, x)
        return self.element_nodes[x]

    @cached_property
    def iso_bits(self) -> tuple[int, ...]:
        """Bit j of row i is set iff nodes i and j hold isomorphic ideals
        (:func:`ideals_isomorphic`)."""
        R, gens = self.ring, self.generators
        return tuple(
            sum(1 << j for j, b in enumerate(gens) if ideals_isomorphic(R, a, b) is not None)
            for a in gens
        )


@_once
def principal_right_ideals(R: FiniteRing) -> RightIdealLattice:
    """Compute L(R), cached on the ring; requires regularity so that
    idempotent generators exist and the inclusion order is a (complemented,
    modular) lattice.  x is regular iff xR = eR for an idempotent e (xyx = x
    gives e = xy; e = xs and x = ex give xsx = x), so raising
    :class:`NotRegular` for the first x whose xR has no idempotent generator
    names the first x without a quasi-inverse."""
    mul = R.mul
    xr = [frozenset(row) for row in mul]
    gen = {s: next((e for e in s if mul[e][e] == e and xr[e] == s), None) for s in set(xr)}
    for x, s in enumerate(xr):
        if gen[s] is None:
            raise NotRegular(x)
    ideals, lattice, index = _inclusion_lattice(gen)
    gens, nodes = tuple(gen[s] for s in ideals), tuple(index[s] for s in xr)
    return RightIdealLattice(R, lattice, ideals, gens, index, nodes)


class IsoCertificate(NamedTuple):
    x: int
    y: int


def ideals_isomorphic(R: FiniteRing, a: int, b: int) -> IsoCertificate | None:
    """Are aR and bR isomorphic as right modules, for idempotents a and b?

    A certificate is x in aRb, y in bRa with xy = a and yx = b; then
    left multiplication by y and by x are mutually inverse module maps.  An
    a or b outside the ring raises :class:`~conlat.lattice.IndexOutOfRange`."""
    _check_elements(R, a, b)
    mul = R.mul
    if mul[a][a] != a:
        raise NotIdempotent(f"{a} is not idempotent")
    if mul[b][b] != b:
        raise NotIdempotent(f"{b} is not idempotent")
    aRb = sorted({mul[mul[a][r]][b] for r in range(R.n)})
    bRa = sorted({mul[mul[b][r]][a] for r in range(R.n)})
    for x in aRb:
        for y in bRa:
            if mul[x][y] == a and mul[y][x] == b:
                return IsoCertificate(x, y)
    return None


def _span(R: FiniteRing, gens: Iterable[int]) -> tuple[set[int], list[int]]:
    """The additive subgroup generated by gens, and the generators that
    enlarged it, in order.  A generator g outside the group H so far gives
    <H, g> = H + <g>: the cosets H + mg for m = 1, 2, ... until mg falls back
    into H."""
    add = R.add
    group = [R.zero]
    members = {R.zero}
    kept = []
    for g in gens:
        if g in members:
            continue
        kept.append(g)
        coset = group
        while add[coset[0]][g] not in members:
            coset = [add[h][g] for h in coset]
            members.update(coset)
            group.extend(coset)
    return members, kept


def _additive_closure(R: FiniteRing, gens: Iterable[int]) -> frozenset[int]:
    """The additive subgroup generated by gens."""
    return frozenset(_span(R, gens)[0])


def _additive_generators(R: FiniteRing) -> list[int]:
    """An additive generating set of R: each element of 0..n-1 that lies
    outside the span of the ones kept before it."""
    return _span(R, range(R.n))[1]


def _principal_ideals(R: FiniteRing) -> tuple[frozenset[int], ...]:
    """RxR for every element x.  Multiplication distributes over addition,
    so if G generates R additively, RxR (the span of the products rxs) is the
    span of the |G|^2 products axb with a, b in G."""
    mul, gens = R.mul, _additive_generators(R)
    return tuple(
        _additive_closure(R, {mul[ax][b] for ax in {mul[a][x] for a in gens} for b in gens})
        for x in range(R.n)
    )


class TwoSidedIdealLattice(_Frozen):
    """Id R: ``ideals[k]`` is the element set of node k, ``index`` maps it
    back to k, and ``principal[x]`` is RxR."""

    def __init__(
        self,
        ring: FiniteRing,
        lattice: FiniteLattice,
        ideals: tuple[frozenset[int], ...],
        principal: tuple[frozenset[int], ...],
        index: dict[frozenset[int], int],
    ) -> None:
        vars(self).update(
            ring=ring, lattice=lattice, ideals=ideals, principal=principal, index=index
        )

    def _key(self) -> tuple:
        return self.ring, self.lattice, self.ideals, self.principal

    def __repr__(self) -> str:
        return (
            f"TwoSidedIdealLattice(ring={self.ring!r}, lattice={self.lattice!r}, "
            f"ideals={self.ideals!r}, principal={self.principal!r})"
        )

    def index_of(self, I: frozenset[int]) -> int:
        try:
            return self.index[frozenset(I)]
        except KeyError:
            raise ValueError("set is not a node of the lattice") from None


@_once
def two_sided_ideals(R: FiniteRing) -> TwoSidedIdealLattice:
    """Id R: all two-sided ideals, as the join-closure of the principal
    two-sided ideals RxR (every ideal is a finite sum of principal ones);
    cached on the ring."""
    principal = _principal_ideals(R)
    found = {frozenset({R.zero}), *principal}
    work = list(found)
    while work:
        I = work.pop()
        for J in list(found):
            s = _additive_closure(R, I | J)
            if s not in found:
                found.add(s)
                work.append(s)
    ideals, lattice, index = _inclusion_lattice(found)
    return TwoSidedIdealLattice(R, lattice, ideals, principal, index)


# -- neutral ideals of L(R) vs two-sided ideals of R -----------------------------


def phi(lr: RightIdealLattice, node_set: Iterable[int]) -> frozenset[int]:
    """phi(a) = { x in R : xR in a }, for a neutral ideal a of L(R); any
    other node set raises NotNeutral."""
    nodes = frozenset(node_set)
    try:
        neutral = is_neutral_ideal(lr.lattice, nodes)
    except NotAnIdeal:
        neutral = False
    if not neutral:
        raise NotNeutral("node set is not a neutral ideal of L(R)")
    return frozenset(x for x, k in enumerate(lr.element_nodes) if k in nodes)


def psi(lr: RightIdealLattice, tsl: TwoSidedIdealLattice, I: frozenset[int]) -> frozenset[int]:
    """psi(I) = { J in L(R) : J <= I }, for a two-sided ideal I."""
    if frozenset(I) not in tsl.index:
        raise NotTwoSided("element set is not a two-sided ideal")
    return frozenset(k for k, s in enumerate(lr.ideals) if s <= I)


def verify_nid_id_iso(R: FiniteRing) -> bool:
    """phi and psi are mutually inverse order isomorphisms between the
    neutral ideals of L(R) and the two-sided ideals of R."""
    lr = principal_right_ideals(R)
    tsl = two_sided_ideals(R)
    pairs = [(a, phi(lr, a)) for a in neutral_ideals(lr.lattice)]
    if any(I not in tsl.index or psi(lr, tsl, I) != a for a, I in pairs):
        return False
    if sorted(sorted(I) for _, I in pairs) != sorted(map(sorted, tsl.ideals)):
        return False
    # order preservation both ways
    return all((a <= b) == (I <= J) for a, I in pairs for b, J in pairs)


def neutral_iff_iso_closed(R: FiniteRing) -> bool:
    """For every ideal of L(R): neutral iff closed under isomorphism of
    principal right ideals.  Every ideal is principal, and both relations
    are bitmask rows over the nodes, so each side is one closure test."""
    lr = principal_right_ideals(R)
    L = lr.lattice

    def closed(rows: Sequence[int], mask: int) -> bool:
        return all(rows[x] & ~mask == 0 for x in _bits(mask))

    return all(closed(L.perspective_bits, d) == closed(lr.iso_bits, d) for d in L.down_bits)


def conc_idc_iso(R: FiniteRing) -> bool:
    """Con L(R) and Id R are isomorphic semilattices, via the zero-block
    neutral ideal and then phi.  (Everything is finite, so all congruences
    and all ideals are compact; no restriction to compact elements needed.)"""
    lr = principal_right_ideals(R)
    tsl = two_sided_ideals(R)
    corr = con_nid_iso(lr.lattice)
    mapping = [tsl.index_of(phi(lr, a)) for a in corr.to_ideal]
    if sorted(mapping) != list(range(len(tsl.ideals))):
        return False
    jn_c, jn_i = con_lattice(lr.lattice).join_rows, tsl.lattice.join_rows
    return all(
        mapping[jn_c[i][j]] == jn_i[mapping[i]][mapping[j]]
        for i, j in itertools.product(range(len(mapping)), repeat=2)
    )


# -- V(R) and the maximal semilattice quotient ------------------------------------


class VMonoid(NamedTuple):
    """V(R) = N^k: multiplicity vectors over the isomorphism classes of
    indecomposable principal right ideals (atoms of L(R))."""

    lr: RightIdealLattice
    k: int
    class_of_node: tuple[tuple[int, ...], ...]  # node -> vector in N^k


def _node_vectors(L: FiniteLattice, atom_class: dict[int, int], k: int) -> list[tuple[int, ...]]:
    """The multiplicity vector in N^k of every node of L(R), counting atoms
    by their class.  Repeatedly split off an atom A <= J with a complement C
    of A in [0, J] (exists: L(R) is complemented and modular, hence
    relatively complemented)."""
    jn, mt, down, bot = L.join_rows, L.meet_rows, L.down_bits, L.bottom
    vec: dict[int, tuple[int, ...]] = {bot: (0,) * k}

    def decompose(node: int) -> tuple[int, ...]:
        if node in vec:
            return vec[node]
        atom = next(a for a in atom_class if down[node] >> a & 1)
        below = _bits(down[node])
        comp = next((z for z in below if mt[atom][z] == bot and jn[atom][z] == node), None)
        if comp is None:
            raise DecompositionFail(f"atom {atom} has no complement under node {node}")
        v = list(decompose(comp))
        v[atom_class[atom]] += 1
        vec[node] = tuple(v)
        return vec[node]

    return [decompose(node) for node in range(L.n)]


@_once
def v_monoid(R: FiniteRing) -> VMonoid:
    """Decompose every principal right ideal into indecomposables, and
    confirm that the multiplicity vectors do not depend on the choices made:

    * additivity: x ^ y = 0 implies vec(x v y) = vec(x) + vec(y);
    * isomorphism-faithfulness: vec(x) = vec(y) iff the ideals at x and y
      are isomorphic (``iso_bits``).

    Either failure raises AssertionError naming the nodes.  The classes are
    those of the atoms under ``iso_bits``.  Cached on the ring."""
    lr = principal_right_ideals(R)
    L, iso = lr.lattice, lr.iso_bits
    atom_mask = sum(1 << a for a in L.atoms)
    # the atoms ascend, so the classes come in order of their lowest atom
    classes = list(dict.fromkeys(iso[a] & atom_mask for a in L.atoms))
    atom_class = {a: classes.index(iso[a] & atom_mask) for a in L.atoms}
    vecs = _node_vectors(L, atom_class, len(classes))
    jn, mt, bot = L.join_rows, L.meet_rows, L.bottom
    for x, y in itertools.product(range(L.n), repeat=2):
        if mt[x][y] == bot and vecs[jn[x][y]] != tuple(map(sum, zip(vecs[x], vecs[y]))):
            raise AssertionError(f"nodes {x} and {y} meet in 0 but their vectors do not add")
    same: dict[tuple[int, ...], int] = {}
    for x, v in enumerate(vecs):
        same[v] = same.get(v, 0) | 1 << x
    for x, v in enumerate(vecs):
        if diff := same[v] ^ iso[x]:
            y = (diff & -diff).bit_length() - 1
            how = "share a vector but are not" if same[v] >> y & 1 else "differ in vector but are"
            raise AssertionError(f"nodes {x} and {y} {how} isomorphic")
    return VMonoid(lr, len(classes), tuple(vecs))


def refine_nonneg_vectors(
    a0: Sequence[int], a1: Sequence[int], b0: Sequence[int], b1: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Refinement in N^k: componentwise c00 = min(a0, b0) works.  Raises
    ValueError unless the vectors have one length and no negative entry."""
    if len({len(a0), len(a1), len(b0), len(b1)}) != 1:
        raise ValueError("vectors of different lengths")
    if any(x < 0 for v in (a0, a1, b0, b1) for x in v):
        raise ValueError("negative entry")
    if [x + y for x, y in zip(a0, a1)] != [x + y for x, y in zip(b0, b1)]:
        raise ValueError("sums differ")
    c00 = tuple(min(x, y) for x, y in zip(a0, b0))
    c01 = tuple(x - m for x, m in zip(a0, c00))
    c10 = tuple(y - m for y, m in zip(b0, c00))
    c11 = tuple(x - m for x, m in zip(a1, c10))
    return (c00, c01, c10, c11)


def algebraic_below(v: Sequence[int], alpha: Sequence[int]) -> bool:
    """Does v <= n * alpha hold in N^k for some integer n >= 1?

    Componentwise this asks v_i <= n * alpha_i, so it fails exactly when
    some v_i > 0 meets alpha_i = 0; any n >= max(v) works otherwise.  The
    condition is therefore support inclusion.  Raises ValueError for
    vectors of different lengths."""
    if len(v) != len(alpha):
        raise ValueError("vectors of different lengths")
    return all(a > 0 for x, a in zip(v, alpha) if x > 0)


class PiMap(_Frozen):
    """pi: V(R) -> Id R, pi(alpha) = { x in R : [xR] <= n alpha, some n >= 1 }
    with the algebraic preorder of N^k on the right.  ``elem_class[x]`` is
    the class of xR; images are memoized per support in ``_by_support``.
    pi of a vector not in N^k, by length or sign, raises ValueError."""

    def __init__(
        self, vm: VMonoid, tsl: TwoSidedIdealLattice, elem_class: tuple[tuple[int, ...], ...]
    ) -> None:
        vars(self).update(vm=vm, tsl=tsl, elem_class=elem_class, _by_support={})

    def _key(self) -> tuple:
        return self.vm, self.tsl, self.elem_class

    def __repr__(self) -> str:
        return f"PiMap(vm={self.vm!r}, tsl={self.tsl!r}, elem_class={self.elem_class!r})"

    @cached_property
    def _supports(self) -> tuple[int, ...]:
        # the support of each element's class, as a bitmask
        return tuple(sum(1 << i for i, c in enumerate(v) if c > 0) for v in self.elem_class)

    def __call__(self, alpha: Sequence[int]) -> frozenset[int]:
        # by algebraic_below, pi(alpha) depends only on the support of alpha
        if len(alpha) != self.vm.k or any(a < 0 for a in alpha):
            raise ValueError(f"{tuple(alpha)} is not a vector of N^{self.vm.k}")
        support = sum(1 << i for i, a in enumerate(alpha) if a > 0)
        image = self._by_support.get(support)
        if image is None:
            image = self._by_support[support] = frozenset(
                x for x, s in enumerate(self._supports) if s & ~support == 0
            )
        return image


def pi_map(R: FiniteRing) -> PiMap:
    vm = v_monoid(R)
    tsl = two_sided_ideals(R)
    elem_class = tuple(vm.class_of_node[k] for k in vm.lr.element_nodes)
    return PiMap(vm, tsl, elem_class)


def verify_pi_map(R: FiniteRing) -> dict[str, bool]:
    """The defining checks for pi:

    * hom: pi(alpha + beta) = pi(alpha) + pi(beta) (ideal sum);
    * principal: pi([xR]) = R x R for every x;
    * order: pi(alpha) <= pi(beta) iff alpha <= n beta for some n >= 1;
    * onto: every two-sided ideal is hit;
    * quotient: pi factors through supports as a semilattice isomorphism
      from the Boolean semilattice 2^k onto Id R.

    pi and ``algebraic_below`` read a vector only through its support, and
    supp(alpha + beta) = supp alpha | supp beta, so hom and order hold on
    all of N^k iff they hold on the 4^k pairs of indicator vectors.
    """
    pm = pi_map(R)
    tsl = pm.tsl
    indicators = list(itertools.product(range(2), repeat=pm.vm.k))
    pairs = list(itertools.product(indicators, repeat=2))
    out: dict[str, bool] = {}
    out["hom"] = all(
        pm([x + y for x, y in zip(al, be)]) == _additive_closure(R, pm(al) | pm(be))
        for al, be in pairs
    )
    out["principal"] = all(pm(v) == rxr for v, rxr in zip(pm.elem_class, tsl.principal))
    out["order"] = all((pm(al) <= pm(be)) == algebraic_below(al, be) for al, be in pairs)
    image = {pm(v) for v in indicators}
    out["onto"] = image == set(tsl.ideals)
    out["quotient"] = len(image) == len(indicators) and all(
        out[key] for key in ("hom", "order", "onto")
    )
    return out


class SupportQuotient(NamedTuple):
    """The maximal semilattice quotient of N^k: the support map onto the
    Boolean semilattice of subsets of the k classes."""

    k: int

    def map(self, alpha: Sequence[int]) -> frozenset[int]:
        return frozenset(i for i, v in enumerate(alpha) if v > 0)

    def verify_universal_property(self) -> bool:
        """Every monoid hom from N^k to a join-semilattice with bottom
        factors through ``map``.

        One target decides this.  Let s: N^k -> (2^k, |) be the monoid hom
        onto the free semilattice on k generators with e_i |-> {i}.  A monoid
        hom h into a join-semilattice with bottom is fixed by the images
        h(e_i), and h = g . s for the semilattice hom g sending A to the join
        of the h(e_i) for i in A: both sides are monoid homs that agree on
        the generators.  So h factors through ``map`` as soon as s does, and
        s factors through ``map`` with the identity exactly when
        s(alpha) = map(alpha).  That is checked on {0,1,2}^k, whose vectors
        include the idempotence 2e_i = e_i; s is computed there as a monoid
        hom, one union per unit of each alpha_i.  Uniqueness is automatic:
        the support map is onto 2^k, so no second factoring can differ
        anywhere."""

        def s(alpha: Sequence[int]) -> frozenset[int]:
            acc: frozenset[int] = frozenset()
            for i, v in enumerate(alpha):
                for _ in range(v):
                    acc |= {i}
            return acc

        return all(s(al) == self.map(al) for al in itertools.product(range(3), repeat=self.k))


def max_semilattice_quotient(k: int) -> SupportQuotient:
    return SupportQuotient(k)
