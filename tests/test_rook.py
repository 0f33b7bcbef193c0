import contextlib
import dataclasses
import itertools
import math
import sys
from collections import Counter, namedtuple

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import biskit.boolean
from biskit.boolean import (
    K_OF_GROUPOID_CAP,
    KOfGroupoid,
    _bisections,
    check_boolean,
    direct_product,
    k_of_groupoid,
)
from biskit.core import InvSgp, restricted_groupoid, semigroup_iso, table_product
from biskit.corpus import (
    BOOLEAN_NAMES,
    GROUPOID_BUILDERS,
    corpus_groupoid,
    corpus_semigroup,
    symmetric_inverse_table,
)
from biskit.errors import (
    CertificateFailed,
    DimensionMismatch,
    NotAGroup,
    NotMonoid,
    NotRook,
    TooLarge,
)
from biskit.groupoid import (
    Gpd,
    coordinatize,
    group_name,
    reconstruct,
)
import biskit.rook as rook
import naive_rook
from biskit.rook import (
    MN_ENTRY_CAP,
    RookMatrix,
    build_Mn_G0,
    decompose,
    identity_rook,
    rook_matrix,
    rook_mul,
    rook_star,
    rook_violation,
    theta_iso,
)
from corpus_structures import boolean, fresh_boolean
from generated import (
    K_ORACLE_BISECTIONS,
    bisection_count,
    component_forms,
    cyclic_group,
    i4_subsemigroup_tables,
)
from unchecked import replaced, unchecked


def all_rooks(bs, n):
    for flat in itertools.product(range(bs.size), repeat=n * n):
        entries = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        if rook_violation(bs, n, entries) is None:
            yield rook_matrix(bs, entries)


def test_rook_matrix_validation():
    bs = boolean("z2zero")
    with pytest.raises(DimensionMismatch):
        rook_matrix(bs, [[0, 0]])
    # two group elements in one row have comparable domains
    with pytest.raises(NotRook) as err:
        rook_matrix(bs, [[1, 2], [0, 0]])
    assert err.value.witness == ("row", 0, 0, 1)


def test_star_is_an_involution():
    bs = boolean("z2zero")
    for m in all_rooks(bs, 2):
        assert rook_star(rook_star(m)).entries == m.entries


def test_mul_associative_and_star_antihomomorphism():
    bs = boolean("z2zero")
    mats = list(all_rooks(bs, 2))
    assert len(mats) == 17  # the m2z2zero carrier
    for a, b in itertools.product(mats, repeat=2):
        ab = rook_mul(a, b)
        assert rook_star(ab).entries == rook_mul(rook_star(b), rook_star(a)).entries
        for c in mats[::5]:
            assert (
                rook_mul(ab, c).entries == rook_mul(a, rook_mul(b, c)).entries
            )


def test_identity_and_zero():
    bs = boolean("z2zero")
    e = identity_rook(bs, 2)
    z = rook_matrix(bs, [[bs.zero] * 2] * 2)
    for m in all_rooks(bs, 2):
        assert rook_mul(e, m).entries == m.entries
        assert rook_mul(m, e).entries == m.entries
        assert rook_mul(z, m).entries == z.entries


def test_identity_rook_needs_a_top():
    bs = boolean("z2zero")
    no_top = type(bs)(bs.base, bs.complement, None)
    with pytest.raises(NotMonoid):
        identity_rook(no_top, 2)


def mn_count(n, h):
    return sum(
        math.comb(n, k) ** 2 * math.factorial(k) * h**k for k in range(n + 1)
    )


def test_build_mn_counts():
    z2 = Gpd([[0, 1], [1, 0]])
    triv = Gpd([[0]])
    assert build_Mn_G0(2, z2).structure.size == mn_count(2, 2) == 17
    assert build_Mn_G0(2, triv).structure.size == mn_count(2, 1) == 7
    assert build_Mn_G0(3, triv).structure.size == mn_count(3, 1) == 34


def test_mn_over_trivial_group_is_symmetric_inverse():
    triv = Gpd([[0]])
    m2 = build_Mn_G0(2, triv).structure.base
    m3 = build_Mn_G0(3, triv).structure.base
    assert semigroup_iso(m2, corpus_semigroup("i2")) is not None
    # i3 has 34 elements, above the direct search's cap: decompose's checked
    # iso carries i3 onto K(3 x 1 x 3), whose table is m3's
    cert = decompose(check_boolean(corpus_semigroup("i3")).structure)
    assert cert.signature == ((3, 1, "trivial"),)
    assert cert.target.table == m3.table


def test_decompose_signatures():
    cases = {
        "i2": ((2, 1, "trivial"),),
        "i3": ((3, 1, "trivial"),),
        "m2z2zero": ((2, 2, "Z2"),),
        "z2zero": ((1, 2, "Z2"),),
        "powerset2": ((1, 1, "trivial"), (1, 1, "trivial")),
        "i2xz2zero": ((1, 2, "Z2"), (2, 1, "trivial")),
        "trivial": (),
    }
    for name, sig in cases.items():
        assert decompose(boolean(name)).signature == sig, name


def test_decompose_refuses_a_map_that_is_not_multiplicative(monkeypatch):
    # two atoms sent to each other's rebuilt arrows: not a groupoid iso
    real = rook.coordinatize

    def swapped(g):
        c = real(g)
        r = list(c.rebuilt)
        r[0], r[1] = r[1], r[0]
        return dataclasses.replace(c, rebuilt=tuple(r))

    monkeypatch.setattr(rook, "coordinatize", swapped)
    cases = {
        "i2": ("decomposition-not-bijective",),
        "i3": ("decomposition-not-bijective",),
        "m2z2zero": ("decomposition-not-iso", 1),
    }
    for name, witness in cases.items():
        with pytest.raises(CertificateFailed) as e:
            decompose(fresh_boolean(name))  # patched
        assert e.value.witness == witness, name


def test_decompose_iso_is_checked_entrywise():
    cert = decompose(boolean("i2xz2zero"))
    s = boolean("i2xz2zero").base
    p = cert.product.base
    f = cert.iso
    for a in range(s.size):
        for b in range(s.size):
            assert f[s.table[a][b]] == p.table[f[a]][f[b]]


# -- the cell-enumerating construction, kept as the oracle ------------------


def oracle_Mn_G0(n, group):
    """Cells and raw table of the n-by-n rook matrices over group with zero.

    Each matrix is a set of (row, col, group id) placements with distinct
    rows and columns, sorted by (size, placements); the product is setwise.
    """
    h = group.size
    cells = []
    for k in range(n + 1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.permutations(range(n), k):
                for gs in itertools.product(range(h), repeat=k):
                    cells.append(frozenset(zip(rows, cols, gs)))
    cells = sorted(set(cells), key=lambda c: (len(c), sorted(c)))
    assert len(cells) == mn_count(n, h)
    index = {c: i for i, c in enumerate(cells)}
    table = [
        [
            index[
                frozenset(
                    (ra, cb, group.ptable[ga][gb])
                    for (ra, ca, ga) in a
                    for (rb, cb, gb) in b
                    if ca == rb
                )
            ]
            for b in cells
        ]
        for a in cells
    ]
    return cells, table


OracleTheta = namedtuple("OracleTheta", "atoms target map verified")


def oracle_theta_iso(bs):
    """The duality checked on K(G(S)) itself: a -> (atoms below a) is
    tabulated into the local bisections of the atoms groupoid and checked as
    a bijection that preserves products and compatible joins, with every
    element the join of its atoms.
    """
    s = bs.base
    ag = bs.atoms_groupoid
    kg = k_of_groupoid(ag)
    atom_pos = {a: i for i, a in enumerate(ag.labels)}
    theta = []
    for a in range(s.size):
        below = frozenset(atom_pos[x] for x in s.down[a] if x in atom_pos)
        theta.append(kg.index.get(below))
    ok = (
        s.size == kg.structure.size
        and None not in theta
        and sorted(theta) == list(range(s.size))
    )
    if ok:
        kt = kg.structure.base.table
        for a in range(s.size):
            if s.join_of(x for x in s.down[a] if x in atom_pos) != a and a != s.zero:
                ok = False
                break
            for b in range(s.size):
                if theta[s.table[a][b]] != kt[theta[a]][theta[b]]:
                    ok = False
                    break
            if not ok:
                break
    if ok:
        for a in range(s.size):
            for b in range(s.size):
                if b in s.compat_partners[a]:
                    j = theta[s.join_table[a][b]]
                    if j != kg.structure.base.join_table[theta[a]][theta[b]]:
                        ok = False
                        break
            if not ok:
                break
    return OracleTheta(ag, kg, tuple(theta), ok)


def oracle_decompose(bs):
    """The factors-and-direct_product path: (signature, product, iso)
    through the verified atom duality, one oracle Mn(G0) per component
    and a chain of direct products.
    """
    theta = oracle_theta_iso(bs)
    assert theta.verified
    coords, comps = coordinatize(theta.atoms), theta.atoms.form
    signature = tuple(
        sorted((c.identity_count, c.group.size, group_name(c.group)) for c in comps)
    )
    factors = []
    for c in comps:
        cells, table = oracle_Mn_G0(c.identity_count, c.group)
        factors.append((cells, check_boolean(InvSgp(table)).structure))
    product = check_boolean(InvSgp(((0,),))).structure
    if factors:
        product = factors[0][1]
        for _cells, f in factors[1:]:
            product = direct_product(product, f)
    iso = []
    for a in range(bs.size):
        per_comp = [[] for _ in comps]
        for t in theta.target.bisections[theta.map[a]]:
            ci, xi, g, yi = coords.coord[t]
            per_comp[ci].append((xi, yi, g))
        pid, stride = 0, 1
        for (cells, f), cell_list in zip(factors, per_comp):
            pid += cells.index(frozenset(cell_list)) * stride
            stride *= f.size
        iso.append(pid)
    return signature, product, tuple(iso)


def s3():
    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    return Gpd([[idx[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms])


GROUPS = {
    "trivial": lambda: cyclic_group(1),
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "V4": lambda: Gpd([[i ^ j for j in range(4)] for i in range(4)]),
    "S3": s3,
}

# n = 3 over V4 (709 elements) and S3 (1,999) are left out: validating their
# tables is O(k^3), about 14 s and several minutes
MN_CASES = [
    (n, name)
    for name in GROUPS
    for n in range(1, 4)
    if n < 3 or name in ("trivial", "Z2", "Z3")
] + [(4, "trivial")]


@pytest.mark.parametrize("n, name", MN_CASES)
def test_build_Mn_G0_matches_cell_oracle(n, name):
    group = GROUPS[name]()
    kg = build_Mn_G0(n, group)
    cells, table = oracle_Mn_G0(n, group)
    assert kg.structure.base.table == tuple(tuple(r) for r in table)
    # bisection ids are the cells' (row, col, group id), numbered row-major
    h = group.size
    assert kg.bisections == tuple(
        frozenset((x * n + y) * h + g for x, y, g in cell) for cell in cells
    )


def test_build_Mn_G0_caps():
    with pytest.raises(TooLarge, match="entry cap") as info:
        build_Mn_G0(9, cyclic_group(1))
    assert str(info.value) == (
        "9x9 over group of order 1 has 81 entries, above entry cap MN_ENTRY_CAP=64"
    )
    assert MN_ENTRY_CAP < 81 and mn_count(8, 1) > K_OF_GROUPOID_CAP
    with pytest.raises(TooLarge, match=f"count {mn_count(8, 1)} above cap"):
        build_Mn_G0(8, cyclic_group(1))
    # M_6 over the trivial group is under the entry cap; its 13,327
    # matrices are refused before any is enumerated
    with pytest.raises(TooLarge) as info:
        build_Mn_G0(6, cyclic_group(1))
    assert str(info.value) == "local bisection count 13327 above cap K_OF_GROUPOID_CAP=4096"
    with pytest.raises(NotAGroup):
        build_Mn_G0(2, Gpd([[0, None], [None, 1]]))


DECOMPOSE_TABLES = {
    **{name: lambda name=name: corpus_semigroup(name) for name in BOOLEAN_NAMES},
    "symmetric_inverse_table(3)": lambda: InvSgp(symmetric_inverse_table(3)),
    "i2 x z2zero": lambda: InvSgp(
        table_product(corpus_semigroup("i2"), corpus_semigroup("z2zero"))
    ),
    "powerset2 x z3zero": lambda: InvSgp(
        table_product(corpus_semigroup("powerset2"), corpus_semigroup("z3zero"))
    ),
}


def oracle_k_table(g):
    """K(g)'s table by the setwise product of every pair of bisections,
    each arrow of one tried against each arrow of the other."""
    carrier = _bisections(g)
    index = {a: i for i, a in enumerate(carrier)}
    return tuple(
        tuple(
            index[frozenset(g.ptable[x][y] for x in a for y in b if g.d[x] == g.r[y])]
            for b in carrier
        )
        for a in carrier
    )


K_ORACLE_GROUPOIDS = {
    **{name: lambda name=name: corpus_groupoid(name) for name in GROUPOID_BUILDERS},
    **{
        f"atoms of {name}": lambda name=name: (
            check_boolean(DECOMPOSE_TABLES[name]()).structure.atoms_groupoid
        )
        for name in DECOMPOSE_TABLES
    },
}


@pytest.mark.parametrize("name", sorted(K_ORACLE_GROUPOIDS))
def test_k_of_groupoid_matches_pairwise_product_oracle(name):
    g = K_ORACLE_GROUPOIDS[name]()
    assert k_of_groupoid(g).structure.base.table == oracle_k_table(g)


@settings(max_examples=25, deadline=None)
@given(component_forms)
def test_k_of_groupoid_matches_oracle_on_generated_forms(form):
    g = reconstruct(form)
    kg = k_of_groupoid(g)
    assert kg.structure.base.table == oracle_k_table(g)
    assert list(decompose(kg.structure).signature) == sorted(
        (c.identity_count, c.group.size, group_name(c.group)) for c in form
    )


@settings(max_examples=50, deadline=None)
@given(i4_subsemigroup_tables)
def test_k_of_groupoid_matches_oracle_on_generated_restricted_groupoids(table):
    # disconnected groupoids whose arrows are numbered as the table's elements
    g = restricted_groupoid(InvSgp(table))
    assume(bisection_count(g) <= K_ORACLE_BISECTIONS)
    assert k_of_groupoid(g).structure.base.table == oracle_k_table(g)


@pytest.mark.parametrize("name", sorted(DECOMPOSE_TABLES))
def test_decompose_matches_direct_product_oracle(name):
    bs = check_boolean(DECOMPOSE_TABLES[name]()).structure
    cert = decompose(bs)
    signature, old_product, old_iso = oracle_decompose(bs)
    assert cert.signature == signature
    s, p = bs.base, cert.product.base
    assert sorted(cert.iso) == list(range(p.size)) and p.size == s.size
    for a in range(s.size):
        for b in range(s.size):
            assert cert.iso[s.table[a][b]] == p.table[cert.iso[a]][cert.iso[b]]
    # the oracle's product is the same monoid under another numbering
    q = old_product.base
    new_of_old = {old_iso[a]: cert.iso[a] for a in range(s.size)}
    for x in range(q.size):
        for y in range(q.size):
            assert new_of_old[q.table[x][y]] == p.table[new_of_old[x]][new_of_old[y]]


def assert_theta_matches_oracle(bs):
    """theta_iso, read off the decomposition, agrees with the direct check on
    K(G(S)): it raises exactly where the oracle fails, and otherwise carries
    each element's bisection through rebuilt."""
    old = oracle_theta_iso(bs)
    if not old.verified:
        with pytest.raises(CertificateFailed):
            theta_iso(bs, decompose(bs))
        return
    new = theta_iso(bs, decompose(bs))
    assert new.atoms.ptable == old.atoms.ptable
    for a in range(bs.size):
        want = frozenset(new.rebuilt[x] for x in old.target.bisections[old.map[a]])
        assert new.target.bisections[new.iso[a]] == want


@pytest.mark.parametrize("name", sorted(DECOMPOSE_TABLES))
def test_theta_iso_matches_direct_oracle(name):
    bs = check_boolean(DECOMPOSE_TABLES[name]()).structure
    assert_theta_matches_oracle(bs)
    assert oracle_theta_iso(bs).verified


@settings(max_examples=100, deadline=None)
@given(i4_subsemigroup_tables)
def test_theta_iso_matches_direct_oracle_on_generated_structures(table):
    chk = check_boolean(InvSgp(table))
    if chk.boolean:
        assert_theta_matches_oracle(chk.structure)


def test_theta_iso_reads_the_held_decomposition():
    bs = boolean("i2xz2zero")
    cert = decompose(bs)
    assert theta_iso(bs, cert) is cert
    # rebuilt must carry the atoms groupoid onto the rebuilt one: sending an
    # identity where an arrow between two identities goes breaks that
    g = cert.atoms
    i = g.identities[0]
    j = next(x for x in range(g.size) if g.d[x] != g.r[x])
    swapped = list(cert.rebuilt)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    bad = dataclasses.replace(cert, rebuilt=tuple(swapped))
    with pytest.raises(CertificateFailed) as e:
        theta_iso(bs, bad)
    assert e.value.witness == ("atoms-not-carried",)


def test_theta_iso_refuses_a_decomposition_of_another_structure():
    # i2 has 7 elements; z2zero's decomposition covers 3 of them
    i2, z2zero = boolean("i2"), boolean("z2zero")
    with pytest.raises(CertificateFailed) as e:
        theta_iso(i2, decompose(z2zero))
    assert e.value.witness == ("decomposition-of-another-structure",)
    # a decomposition of an equal table built separately is another's too
    with pytest.raises(CertificateFailed):
        theta_iso(i2, decompose(fresh_boolean("i2")))


# -- K of the rebuilt atoms, certified by decompose's isomorphism -----------


@contextlib.contextmanager
def counted_validations():
    """Count InvSgp constructions ("InvSgp") and check_boolean calls
    ("check_boolean") inside the block, wherever biskit makes them."""
    counts = Counter()
    init, check = InvSgp.__init__, biskit.boolean.check_boolean

    def counted_init(self, table):
        counts["InvSgp"] += 1
        init(self, table)

    def counted_check(s):
        counts["check_boolean"] += 1
        return check(s)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(InvSgp, "__init__", counted_init)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("biskit") and (
                getattr(module, "check_boolean", None) is check
            ):
                mp.setattr(module, "check_boolean", counted_check)
        yield counts


def assert_k_validated_only_when_read(bs):
    with counted_validations() as counts:
        cert = decompose(bs)
        assert counts["InvSgp"] == counts["check_boolean"] == 0
        product = cert.product
        assert cert.product is product
        assert counts == {"InvSgp": 1, "check_boolean": 1}
    assert product.base.table == oracle_k_table(cert.target.groupoid)


@pytest.mark.parametrize("name", BOOLEAN_NAMES)
def test_decompose_leaves_k_unvalidated_until_read(name):
    assert_k_validated_only_when_read(fresh_boolean(name))  # counted


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(i4_subsemigroup_tables)
def test_decompose_leaves_k_unvalidated_on_generated_structures(table):
    chk = check_boolean(InvSgp(table))
    assume(chk.boolean)
    assert_k_validated_only_when_read(chk.structure)


def swap_rebuilt(mp, i, j):
    """Make decompose read rebuilt with arrows i and j exchanged."""
    real = coordinatize

    def swapped(g):
        c = real(g)
        r = list(c.rebuilt)
        r[i], r[j] = r[j], r[i]
        return dataclasses.replace(c, rebuilt=tuple(r))

    mp.setattr(rook, "coordinatize", swapped)


def swap_k_ids(mp, i, j):
    """Make decompose read K's index with ids i and j exchanged."""
    real = rook.k_of_groupoid

    def swapped(g):
        kg = real(g)
        to = {i: j, j: i}
        index = {b: to.get(x, x) for b, x in kg.index.items()}
        return dataclasses.replace(kg, index=index)

    mp.setattr(rook, "k_of_groupoid", swapped)


def oracle_decompose_witness(bs, iso, p):
    """decompose's witness for the map iso into the K table p, by the
    full-row scan, or None when the map holds."""
    s = bs.base
    if None in iso or sorted(iso) != list(range(len(p))):
        return ("decomposition-not-bijective",)
    for a in range(s.size):
        if any(iso[s.table[a][b]] != p[iso[a]][iso[b]] for b in range(s.size)):
            return ("decomposition-not-iso", a)
    return None


@pytest.mark.parametrize("name", [n for n in BOOLEAN_NAMES if n != "trivial"])
def test_decompose_refuses_a_corrupted_k_table(name, monkeypatch):
    # K(R) is neither built nor validated on this path: decompose checks its
    # map on the generators.  Each exchange of two rebuilt arrows, and of id
    # 1 with another id of K, must get the full-row oracle's outcome,
    # witness included; some of them keep the map a bijection that is not
    # multiplicative
    bs = fresh_boolean(name)  # patched
    s, cert = bs.base, decompose(bs)
    p = oracle_k_table(cert.target.groupoid)
    index = {a: i for i, a in enumerate(_bisections(cert.target.groupoid))}
    cases = []
    for i, j in itertools.combinations(range(len(cert.rebuilt)), 2):
        r = list(cert.rebuilt)
        r[i], r[j] = r[j], r[i]
        pos = dict(zip(cert.atoms.labels, r))
        iso = [
            index.get(frozenset(pos[x] for x in s.down[a] if x in pos))
            for a in range(s.size)
        ]
        cases.append((swap_rebuilt, i, j, iso))
    for j in range(2, len(p)):
        to = {1: j, j: 1}
        cases.append((swap_k_ids, 1, j, [to.get(x, x) for x in cert.iso]))
    seen = set()
    for swap, i, j, iso in cases:
        want = oracle_decompose_witness(bs, iso, p)
        with monkeypatch.context() as mp:
            swap(mp, i, j)
            try:
                decompose(bs)
                got = None
            except CertificateFailed as e:
                got = e.witness
        assert got == want, (swap.__name__, i, j)
        seen.add(want and want[0])
    assert "decomposition-not-iso" in seen


@pytest.mark.parametrize("name", sorted(K_ORACLE_GROUPOIDS))
def test_k_column_matches_pairwise_product_oracle(name):
    g = K_ORACLE_GROUPOIDS[name]()
    kg, table = k_of_groupoid(g), oracle_k_table(g)
    for c in range(len(table)):
        assert kg.column(c) == tuple(row[c] for row in table)
    assert "table" not in kg.__dict__


@settings(max_examples=25, deadline=None)
@given(component_forms)
def test_k_column_matches_oracle_on_generated_forms(form):
    g = reconstruct(form)
    kg, table = k_of_groupoid(g), oracle_k_table(g)
    for c in range(len(table)):
        assert kg.column(c) == tuple(row[c] for row in table)


def refuse_k_tables(mp):
    def refused(kg):
        raise AssertionError("KOfGroupoid.table built")

    mp.setattr(KOfGroupoid, "table", property(refused))


NO_K_TABLES = {
    **DECOMPOSE_TABLES,
    "symmetric_inverse_table(4)": lambda: InvSgp(symmetric_inverse_table(4)),
}


@pytest.mark.parametrize("name", sorted(NO_K_TABLES))
def test_decompose_builds_no_k_table(name, monkeypatch):
    bs = check_boolean(NO_K_TABLES[name]()).structure
    refuse_k_tables(monkeypatch)
    decompose(bs)


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(i4_subsemigroup_tables)
def test_decompose_builds_no_k_table_on_generated_structures(table):
    chk = check_boolean(InvSgp(table))
    assume(chk.boolean)
    with pytest.MonkeyPatch.context() as mp:
        refuse_k_tables(mp)
        decompose(chk.structure)


def test_a_product_outside_k_is_refused():
    # identity 0 times itself read as arrow 1 (domain 5, range 0): the
    # product of the two identities, {1, 5}, has two arrows at domain 5
    g = corpus_groupoid("conn2z2")
    rows = [list(r) for r in g.ptable]
    rows[0][0] = 1
    g.ptable = tuple(map(tuple, rows))
    kg = k_of_groupoid(g)
    # structure validates the table without _check_entries (core._IdRows), so
    # the lookup of each product as an id is what refuses it
    reads = (
        lambda: kg.table,
        lambda: kg.structure,
        lambda: kg.column(kg.index[frozenset({0, 5})]),
    )
    for read in reads:
        with pytest.raises(CertificateFailed) as e:
            read()
        assert e.value.witness == ("product-not-a-bisection", 0b100010)


# -- the kernels against the position-by-position oracle -------------------


def rook_outcome(fn, *args):
    """What a rook function returned, a matrix read as its entries, or the
    type and text of what it raised."""
    try:
        got = fn(*args)
    except Exception as e:  # noqa: BLE001 - any difference must show
        return ("raised", type(e).__name__, str(e))
    return ("returned", getattr(got, "entries", got))


def assert_checks_match(bs, candidates):
    """rook_violation and rook_matrix agree with the oracle on each square
    entry list; returns the rook matrices among them."""
    mats = []
    for entries in candidates:
        n = len(entries)
        assert rook_violation(bs, n, entries) == naive_rook.rook_violation(bs, n, entries)
        got = rook_outcome(rook_matrix, bs, entries)
        assert got == rook_outcome(naive_rook.rook_matrix, bs, entries), entries
        if got[0] == "returned":
            mats.append(RookMatrix(bs, n, got[1]))
    return mats


def assert_arithmetic_matches(mats):
    """rook_star of each matrix and rook_mul of each pair, sizes that differ
    included, agree with the oracle; returns the outcomes."""
    seen = []
    for a in mats:
        got = rook_outcome(rook_star, a)
        assert got == rook_outcome(naive_rook.rook_star, a), a.entries
        seen.append(got)
    for a, b in itertools.product(mats, repeat=2):
        got = rook_outcome(rook_mul, a, b)
        assert got == rook_outcome(naive_rook.rook_mul, a, b), (a.entries, b.entries)
        seen.append(got)
    return seen


def square_candidates(ids, n):
    return [
        tuple(flat[i * n : (i + 1) * n] for i in range(n))
        for flat in itertools.product(ids, repeat=n * n)
    ]


SMALL_BOOLEAN = [n for n in BOOLEAN_NAMES if corpus_semigroup(n).size <= 4]


@pytest.mark.parametrize("name", SMALL_BOOLEAN)
def test_rook_kernels_match_oracle_on_every_small_matrix(name):
    bs = boolean(name)
    ids = range(bs.size)
    candidates = square_candidates(ids, 1) + square_candidates(ids, 2)
    assert_arithmetic_matches(assert_checks_match(bs, candidates))


def corrupt(bs, mats, which, a, b, value):
    """bs built unchecked with entry [a][b] of its base's product or join
    table set to value, and mats, checked on bs, moved over to it; the
    orthogonality table is read off the product table afresh."""
    s = bs.base
    s = unchecked(s, ("orth",), **{which: replaced(getattr(s, which), a, b, value)})
    bs = unchecked(bs, base=s)
    return bs, [m._replace(base=bs) for m in mats]


def three_term_case():
    """powerset2 x {0, 1} (table_product), the subsets of three points, whose
    three atoms are pairwise orthogonal nonzero idempotents, and 3x3 entry
    lists over them: a row of the atoms, its column, their Latin square, a
    diagonal and the identity.  The row times the column, and the square
    times itself, join three terms in an entry."""
    table = table_product(corpus_semigroup("powerset2"), InvSgp(((0, 0), (0, 1))))
    bs = check_boolean(InvSgp(table)).structure
    z, (p, q, r) = bs.zero, bs.base.atoms
    candidates = [
        ((p, q, r), (z, z, z), (z, z, z)),
        ((p, z, z), (q, z, z), (r, z, z)),
        ((p, q, r), (q, r, p), (r, p, q)),
        ((p, z, z), (z, q, z), (z, z, r)),
        identity_rook(bs, 3).entries,
    ]
    t = bs.base.table
    three = [
        (a, b)
        for a, b in itertools.product(candidates, repeat=2)
        for i, j in itertools.product(range(3), repeat=2)
        if sum(t[a[i][m]][b[m][j]] != z for m in range(3)) == 3
    ]
    assert len(three) >= 2
    return bs, candidates


@pytest.mark.parametrize(
    "name, errors",
    [
        ("z2zero", {"NotRook", "CertificateFailed"}),
        # only powerset2 has two orthogonal nonzero terms to join
        ("powerset2", {"NotRook", "CertificateFailed", "NotCompatible"}),
        # three_term_case: entries of three terms, so the pairwise checks
        # cannot be read as a fold
        ("three-atoms", {"NotRook", "CertificateFailed", "NotCompatible"}),
    ],
)
def test_rook_kernels_match_oracle_on_every_one_entry_corruption(name, errors):
    # the 2x2 rook matrices of the valid table (the 3x3 ones of
    # three_term_case), read after one entry of the product table changes
    # or one join goes missing: every witness and error must agree
    if name == "three-atoms":
        bs, candidates = three_term_case()
    else:
        bs = boolean(name)
        candidates = square_candidates(range(bs.size), 2)
    mats = assert_checks_match(bs, candidates)
    assert_arithmetic_matches(mats)
    k = bs.size
    raised = set()
    for which, a, b in itertools.product(("table", "join_table"), range(k), range(k)):
        for value in (None,) if which == "join_table" else range(k):
            if getattr(bs.base, which)[a][b] == value:
                continue  # the entry already holds value
            bad, moved = corrupt(bs, mats, which, a, b, value)
            assert_checks_match(bad, [m.entries for m in moved])
            outcomes = assert_arithmetic_matches(moved)
            raised |= {o[1] for o in outcomes if o[0] == "raised"}
    assert raised == errors


def rook_matrices(bs, n):
    """Square entry lists over bs, about half of their entries zero."""
    entry = st.one_of(st.just(bs.zero), st.integers(0, bs.size - 1))
    row = st.lists(entry, min_size=n, max_size=n).map(tuple)
    return st.lists(row, min_size=n, max_size=n).map(tuple)


def boolean_from_table(table):
    chk = check_boolean(InvSgp(table))
    assume(chk.boolean)
    return chk.structure


rook_bases = st.one_of(
    st.sampled_from(BOOLEAN_NAMES).map(boolean),
    i4_subsemigroup_tables.map(boolean_from_table),
    component_forms.filter(lambda form: bisection_count(reconstruct(form)) <= 64).map(
        lambda form: k_of_groupoid(reconstruct(form)).structure
    ),
)


@st.composite
def rook_cases(draw):
    """A Boolean base, rook-matrix candidates of one size over it, and one
    entry of its product or join table to change after they are checked."""
    bs = draw(rook_bases)
    n = draw(st.integers(1, 3))
    candidates = draw(st.lists(rook_matrices(bs, n), min_size=1, max_size=8))
    ids = st.integers(0, bs.size - 1)
    which = draw(st.sampled_from(("table", "join_table")))
    value = draw(ids if which == "table" else st.one_of(st.none(), ids))
    return bs, candidates, (which, draw(ids), draw(ids), value)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(rook_cases())
def test_rook_kernels_match_oracle_on_generated_structures(case):
    bs, candidates, corruption = case
    mats = assert_checks_match(bs, candidates)
    assert_arithmetic_matches(mats)
    bs, mats = corrupt(bs, mats, *corruption)
    assert_checks_match(bs, [m.entries for m in mats])
    assert_arithmetic_matches(mats)
