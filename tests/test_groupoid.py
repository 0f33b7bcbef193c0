import itertools
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from biskit.boolean import check_boolean
from biskit.core import InvSgp, restricted_groupoid
from biskit.corpus import (
    GROUPOID_BUILDERS,
    SEMIGROUP_BUILDERS,
    corpus_groupoid,
    corpus_semigroup,
    render_ist,
    symmetric_inverse_table,
)
from biskit import groupoid
from biskit.errors import CertificateFailed, NotGroupoid, ParseError
from biskit.groupoid import (
    Component,
    Gpd,
    _associative_on_generators,
    _element_orders,
    coordinatize,
    group_iso,
    group_name,
    groupoid_iso,
    is_groupoid_iso,
    parse_groupoid,
    reconstruct,
)
from biskit.rook import build_Mn_G0, decompose
from generated import component_forms, cyclic_group, i4_subsemigroup_tables
from naive_groupoid import naive_groupoid


def z3_table():
    return [[(i + j) % 3 for j in range(3)] for i in range(3)]


def v4_table():
    return [[i ^ j for j in range(4)] for i in range(4)]


def s3_table():
    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    return [
        [idx[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms
    ]


def test_parse_grp_roundtrip():
    g = corpus_groupoid("z2pair2")
    text = render_ist([list(r) for r in g.ptable], "scratch")
    assert parse_groupoid(text).ptable == g.ptable


def test_parse_grp_rejects_garbage():
    with pytest.raises(ParseError):
        parse_groupoid("n 2\n0 -2\n-1 1\n")


def test_not_groupoid():
    # a total constant table has no identities at all
    with pytest.raises(NotGroupoid):
        Gpd([[0, 0], [0, 0]])


def test_component_form_shapes():
    cases = {
        "trivial1": [(1, 1)],
        "pair2": [(1, 1), (1, 1)],
        "disc3": [(1, 1), (1, 1), (1, 1)],
        "z2": [(1, 2)],
        "z2pair2": [(1, 2), (1, 1)],
        "conn2z2": [(2, 2)],
    }
    for name, shape in cases.items():
        got = [(c.identity_count, c.group.size) for c in corpus_groupoid(name).form]
        assert got == shape, name


def d4_table():
    # the symmetries of a square: permutations of its corners 0..3 that
    # keep neighbours neighbours
    perms = [
        p for p in itertools.permutations(range(4))
        if all((p[(x + 1) % 4] - p[x]) % 4 in (1, 3) for x in range(4))
    ]
    idx = {p: i for i, p in enumerate(perms)}
    return [[idx[tuple(p[q[x]] for x in range(4))] for q in perms] for p in perms]


def q8_table():
    # the units +-1, +-i, +-j, +-k as quaternions (a, b, c, d) = a + bi + cj + dk
    units = [tuple(sign * (i == k) for i in range(4)) for k in range(4) for sign in (1, -1)]
    idx = {u: i for i, u in enumerate(units)}

    def mul(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    return [[idx[mul(p, q)] for q in units] for p in units]


# the four groups of order 8 that are not cyclic, with their names
ORDER_8 = {
    "Z2xZ4": [[(a // 4 + b // 4) % 2 * 4 + (a + b) % 4 for b in range(8)] for a in range(8)],
    "Z2^3": [[a ^ b for b in range(8)] for a in range(8)],
    "D4": d4_table(),
    "Q8": q8_table(),
}


def test_group_names():
    assert group_name(Gpd([[0]])) == "trivial"
    assert group_name(Gpd([[0, 1], [1, 0]])) == "Z2"
    assert group_name(Gpd(z3_table())) == "Z3"
    assert group_name(Gpd(v4_table())) == "V4"
    assert group_name(Gpd(s3_table())) == "S3"
    assert group_name(Gpd([[(i + j) % 8 for j in range(8)] for i in range(8)])) == "Z8"
    for name, table in ORDER_8.items():
        assert group_name(Gpd(table)) == name


def test_order_8_groups_with_zero_decompose_apart():
    # M_1(G^0) = G^0: one component of one identity with local group G
    signatures = {decompose(build_Mn_G0(1, Gpd(t)).structure).signature for t in ORDER_8.values()}
    assert signatures == {((1, 8, name),) for name in ORDER_8}


def test_group_iso_distinguishes_z4_v4():
    z4 = Gpd([[(i + j) % 4 for j in range(4)] for i in range(4)])
    assert group_iso(z4, Gpd(v4_table())) is None
    assert group_iso(Gpd(v4_table()), Gpd(v4_table())) is not None


def test_reconstruct_is_isomorphic():
    for name in ("trivial1", "pair2", "disc3", "z2", "z2pair2", "conn2z2"):
        g = corpus_groupoid(name)
        rebuilt = reconstruct(g.form)
        assert groupoid_iso(rebuilt, g) is not None, name


def test_reconstruct_numbers_arrows_by_row_column_group():
    groups = [Gpd(z3_table()), Gpd([[0, 1], [1, 0]]), Gpd([[0]])]
    form = tuple(Component(n, grp, (), ()) for n, grp in zip((2, 1, 3), groups))
    g = reconstruct(form)
    assert g.size == 2 * 2 * 3 + 1 * 1 * 2 + 3 * 3 * 1
    want = {}  # (x, h, y) of component ci has id off + (x*n + y)*|H| + h
    off = 0
    for ci, (n, grp) in enumerate(zip((2, 1, 3), groups)):
        h = grp.size
        for x, y, k in itertools.product(range(n), range(n), range(h)):
            want[ci, x, k, y] = off + (x * n + y) * h + k
        off += n * n * h
    assert sorted(want.values()) == list(range(g.size))
    for (ci, x, k, y), i in want.items():
        grp = groups[ci]
        for (cj, x2, k2, y2), j in want.items():
            if (cj, x2) == (ci, y):
                assert g.ptable[i][j] == want[ci, x, grp.ptable[k][k2], y2]
            else:
                assert g.ptable[i][j] is None


@pytest.mark.parametrize("name", sorted(GROUPOID_BUILDERS))
def test_coordinatize_maps_onto_the_rebuilt_groupoid(name):
    g = corpus_groupoid(name)
    coords = coordinatize(g)
    rebuilt = reconstruct(g.form)
    f = coords.rebuilt
    assert sorted(f) == list(range(rebuilt.size))
    for x in range(g.size):
        for y in range(g.size):
            p = g.ptable[x][y]
            assert rebuilt.ptable[f[x]][f[y]] == (None if p is None else f[p])


def test_coordinatize_conn2z2():
    g = corpus_groupoid("conn2z2")
    coord = coordinatize(g).coord
    # x*h*y composable with y*g*z, never with anything else
    for a in range(g.size):
        for b in range(g.size):
            _, xa, _, ya = coord[a]
            _, xb, _, yb = coord[b]
            defined = g.ptable[a][b] is not None
            assert defined == (ya == xb)
            if defined:
                _, xc, _, yc = coord[g.ptable[a][b]]
                assert (xc, yc) == (xa, yb)


def test_groupoid_iso_negative():
    assert groupoid_iso(corpus_groupoid("disc3"), corpus_groupoid("z2pair2")) is None


def test_groupoid_iso_raises_on_a_candidate_that_fails_its_check(monkeypatch):
    # a local group map that is no automorphism of S3 makes the candidate
    # wrong; the re-check names it instead of reporting "not isomorphic"
    s3 = Gpd(s3_table())
    wrong = next(
        p for p in itertools.permutations(range(6)) if not is_groupoid_iso(s3, s3, p)
    )
    monkeypatch.setattr(groupoid, "group_iso", lambda a, b: wrong)
    with pytest.raises(CertificateFailed) as info:
        groupoid_iso(s3, s3)
    assert info.value.witness == ("groupoid-iso", wrong)


def small_groupoids():
    """The corpus groupoids and the restricted groupoids of the corpus
    semigroups, of at most 8 arrows."""
    out = {name: corpus_groupoid(name) for name in GROUPOID_BUILDERS}
    for name in SEMIGROUP_BUILDERS:
        g = corpus_semigroup(name).restricted_groupoid
        if g.size <= 8:
            out[f"G({name})"] = g
    return out


def brute_force_isomorphic(g, h):
    return g.size == h.size and any(
        is_groupoid_iso(g, h, mp) for mp in itertools.permutations(range(h.size))
    )


def test_groupoid_iso_decides_every_pair_of_small_groupoids(monkeypatch):
    # coordinatize runs only on pairs whose components match, so on none
    # that groupoid_iso rejects
    coordinatized = []
    monkeypatch.setattr(
        groupoid, "coordinatize", lambda g: coordinatized.append(g) or coordinatize(g)
    )
    gs = small_groupoids()
    for (a, g), (b, h) in itertools.product(gs.items(), repeat=2):
        coordinatized.clear()
        mp = groupoid_iso(g, h)
        assert (mp is not None) == brute_force_isomorphic(g, h), (a, b)
        assert mp is None or is_groupoid_iso(g, h, mp)
        if mp is None:
            assert coordinatized == [], (a, b)


def test_groupoid_iso_relabelled():
    g = corpus_groupoid("conn2z2")
    perm = [3, 1, 4, 0, 2, 6, 5, 7]
    inv = [perm.index(i) for i in range(8)]
    pt = [[None] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            v = g.ptable[inv[a]][inv[b]]
            pt[a][b] = None if v is None else perm[v]
    assert groupoid_iso(Gpd(pt), g) is not None


def z4_by_z4_table(twisted):
    """Z4 x Z4 on ids 4a + b, or with twisted Z4 x| Z4:
    (a1, b1)(a2, b2) = (a1 + (-1)^b1 * a2, b1 + b2)."""
    pairs = list(itertools.product(range(4), repeat=2))
    sign = [(-1) ** b if twisted else 1 for _, b in pairs]
    return [
        [4 * ((a1 + s * a2) % 4) + (b1 + b2) % 4 for a2, b2 in pairs]
        for (a1, b1), s in zip(pairs, sign)
    ]


def test_groups_with_the_same_element_orders_are_told_apart():
    # Z4 x Z4 and Z4 x| Z4: order 16, one identity, three elements of order
    # 2 and twelve of order 4, only the first abelian
    z4z4, twisted = Gpd(z4_by_z4_table(False)), Gpd(z4_by_z4_table(True))
    assert sorted(_element_orders(z4z4)) == sorted(_element_orders(twisted))
    assert sorted(_element_orders(z4z4)) == [1] + [2] * 3 + [4] * 12
    assert any(
        twisted.ptable[x][y] != twisted.ptable[y][x]
        for x in range(16)
        for y in range(16)
    )
    assert group_iso(z4z4, twisted) is None
    assert groupoid_iso(z4z4, twisted) is None
    # both as components of one groupoid, against it with its ids reversed:
    # the components then tie on their signature in the other order
    g = reconstruct((Component(1, z4z4, (), ()), Component(1, twisted, (), ())))
    h = Gpd([[None if v is None else 31 - v for v in r[::-1]] for r in g.ptable[::-1]])
    assert group_iso(h.form[0].group, twisted) is not None
    mp = groupoid_iso(g, h)
    assert mp is not None and is_groupoid_iso(g, h, mp)


def test_is_groupoid_iso_needs_a_bijection():
    disc2 = Gpd([[0, None], [None, 1]])
    disc3 = Gpd([[0, None, None], [None, 1, None], [None, None, 2]])
    assert is_groupoid_iso(disc3, disc3, (2, 0, 1))
    assert not is_groupoid_iso(disc2, disc3, (0, 1))  # an embedding, not onto
    assert not is_groupoid_iso(disc3, disc2, (0, 1, 1))
    assert not is_groupoid_iso(corpus_groupoid("z2"), corpus_groupoid("z2"), (1, 0))


def test_empty_groupoid_is_allowed():
    g = Gpd([])
    assert g.size == 0
    assert g.form == ()


# -- Gpd's validation against the plain checks it replaced -----------------


def verdict(check, ptable):
    """("accept", inv, d, r, identities) or ("reject", axiom, witness)."""
    try:
        g = check(ptable)
    except NotGroupoid as e:
        return ("reject", e.axiom, e.witness)
    if isinstance(g, Gpd):
        g = (g.inv, g.d, g.r, g.identities)
    return ("accept", *g)


def assert_validation_matches_oracle(ptable):
    assert verdict(Gpd, ptable) == verdict(naive_groupoid, ptable)


def generator_pass(rows, g):
    """The generator pass on rows, a table with the ends of groupoid g.  On
    g's own table it holds exactly when it does not decline for short rows."""
    ending_at = {e: [y for y in range(g.size) if g.r[y] == e] for e in g.identities}
    return _associative_on_generators(rows, g.d, g.r, g.identities, ending_at)


def cyclic_pairs(n, h):
    """The connected groupoid with n identities and local group Z_h."""
    return reconstruct((Component(n, cyclic_group(h), (), ()),))


GROUPOIDS = {
    **{name: (lambda n=name: corpus_groupoid(n)) for name in GROUPOID_BUILDERS},
    **{
        f"restricted {name}": (
            lambda n=name: restricted_groupoid(corpus_semigroup(n))
        )
        for name in ("i2", "i3", "b2", "m2z2zero", "i2xz2zero")
    },
    # rows long enough for the generator pass
    "Z9": lambda: cyclic_pairs(1, 9),
    "Z12": lambda: cyclic_pairs(1, 12),
    "2 identities, Z6": lambda: cyclic_pairs(2, 6),
    "3 identities, Z3": lambda: cyclic_pairs(3, 3),
    "restricted I4": lambda: restricted_groupoid(InvSgp(symmetric_inverse_table(4))),
}


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_associativity_matches_oracle(name):
    assert_validation_matches_oracle(GROUPOIDS[name]().ptable)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(GROUPOIDS)), st.data())
def test_associativity_matches_oracle_on_corrupted_tables(name, data):
    # a defined product moved to another arrow with the same ends keeps the
    # table composable, so it often gets as far as associativity
    g = GROUPOIDS[name]()
    defined = [
        (x, y)
        for x in range(g.size)
        for y in range(g.size)
        if g.ptable[x][y] is not None
    ]
    rows = [list(r) for r in g.ptable]
    for _ in range(data.draw(st.integers(1, 2))):
        x, y = data.draw(st.sampled_from(defined))
        p = g.ptable[x][y]
        parallel = [z for z in range(g.size) if (g.d[z], g.r[z]) == (g.d[p], g.r[p])]
        rows[x][y] = data.draw(st.sampled_from(parallel))
    assert_validation_matches_oracle(rows)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(GROUPOIDS)), st.data())
def test_validation_matches_oracle_on_entries_moved_within_a_row(name, data):
    # a defined product moved to an undefined place in its row keeps the
    # row's count of defined entries: composability must still see it
    g = GROUPOIDS[name]()
    rows = [list(r) for r in g.ptable]
    assume(any(None in row for row in rows))
    x = data.draw(st.sampled_from([x for x in range(g.size) if None in rows[x]]))
    y = data.draw(st.sampled_from([y for y, v in enumerate(rows[x]) if v is not None]))
    z = data.draw(st.sampled_from([z for z, v in enumerate(rows[x]) if v is None]))
    rows[x][y], rows[x][z] = None, rows[x][y]
    assert_validation_matches_oracle(rows)


def groupoids_of(s):
    """The restricted groupoid of s, and its atoms groupoid when s is
    Boolean."""
    bs = check_boolean(s).structure
    return [restricted_groupoid(s)] + ([bs.atoms_groupoid] if bs else [])


READ_GROUPOIDS = {
    **{
        f"{name}.grp": (lambda n=name: [corpus_groupoid(n)])
        for name in GROUPOID_BUILDERS
    },
    **{
        f"{name}.ist": (lambda n=name: groupoids_of(corpus_semigroup(n)))
        for name in SEMIGROUP_BUILDERS
    },
}


@pytest.mark.parametrize("name", sorted(READ_GROUPOIDS))
def test_validation_matches_oracle_on_the_corpus(name):
    for g in READ_GROUPOIDS[name]():
        assert_validation_matches_oracle(g.ptable)


@settings(max_examples=60, deadline=None)
@given(component_forms)
def test_validation_matches_oracle_on_generated_forms(form):
    assert_validation_matches_oracle(reconstruct(form).ptable)


def single_entry_changes(g):
    """g's table with one entry set to another id or to None, each way."""
    for x, y in itertools.product(range(g.size), repeat=2):
        for v in (None, *range(g.size)):
            if v != g.ptable[x][y]:
                rows = [list(r) for r in g.ptable]
                rows[x][y] = v
                yield rows


SMALL = ("conn2z2", "z2pair2", "restricted i2", "Z9")


@pytest.mark.parametrize("name", SMALL)
def test_validation_matches_oracle_on_every_single_entry_change(name):
    # a change that keeps every check before associativity leaves the row
    # lengths alone, so on Z9 the generator pass decides it, and declines;
    # on conn2z2 (84 such changes) and Z9 (426) some break associativity only
    g = GROUPOIDS[name]()
    assert generator_pass(g.ptable, g) == (name == "Z9")
    axioms = Counter()
    for rows in single_entry_changes(g):
        assert_validation_matches_oracle(rows)
        axioms[verdict(naive_groupoid, rows)[1]] += 1
    assert (axioms["associativity"] > 0) == (name in ("conn2z2", "Z9"))


def test_the_pass_declines_where_only_associativity_breaks():
    # Z12 with 1 + 1 and 1 + 2 swapped: every row and column is still a
    # permutation, so every check before associativity holds; the pass
    # declines, and the scan names the oracle's first triple
    g = cyclic_pairs(1, 12)
    rows = [list(r) for r in g.ptable]
    rows[1][1], rows[1][2] = rows[1][2], rows[1][1]
    rows = tuple(map(tuple, rows))
    want = verdict(naive_groupoid, rows)
    assert want[1] == "associativity"
    assert generator_pass(g.ptable, g)
    assert not generator_pass(rows, g)
    assert verdict(Gpd, rows) == want


def test_the_pass_runs_on_long_rows_only():
    # I4's restricted groupoid has 79,744 composable triples on 208 arrows;
    # i3's has 945 on 33, and the scan takes it
    g = GROUPOIDS["restricted I4"]()
    assert generator_pass(g.ptable, g)
    g = GROUPOIDS["restricted i3"]()
    assert not generator_pass(g.ptable, g)


@settings(max_examples=300)
@given(st.integers(1, 3), st.data())
def test_entry_checks_match_oracle_on_drawn_entries(k, data):
    entries = st.sampled_from([None, None, 0, 1, 2, -1, True, 1.0, "0"])
    lengths = st.integers(k - 1, k + 1) if data.draw(st.booleans()) else st.just(k)
    table = [
        data.draw(st.lists(entries, min_size=n, max_size=n))
        for n in (data.draw(lengths) for _ in range(k))
    ]
    assert_validation_matches_oracle(table)


def test_entries_keep_their_checks():
    # True and int subclasses are ints, as at construction before; floats,
    # strings and ids out of range are named with their row and value
    class Id(int):
        pass

    for v in (True, Id(1)):
        assert Gpd([[0, v], [v, 0]]).ptable == ((0, 1), (1, 0))
    for bad, want in (
        ([[0, 1.0], [1, 0]], (0, 1.0)),
        ([[0, 1], [1, "0"]], (1, "0")),
        ([[0, 1], [2, 0]], (1, 2)),
        ([[0, -1], [1, 0]], (0, -1)),
    ):
        assert verdict(Gpd, bad) == ("reject", "entry-range", want)
        assert verdict(naive_groupoid, bad) == ("reject", "entry-range", want)


# -- arrows between two identities against the scans they replaced ----------


def naive_hom(g):
    """The arrows from e to f, ascending, for each pair (e, f) with one,
    found by a scan of every arrow per pair."""
    ends = {(g.d[x], g.r[x]) for x in range(g.size)}
    return {
        (e, f): tuple(x for x in range(g.size) if (g.d[x], g.r[x]) == (e, f))
        for e, f in ends
    }


def scanned_coordinates(g):
    """coordinatize's (coord, rebuilt), with each anchor and the loops at
    each base identity found by a scan of every arrow; the loops are also
    checked to be the labels of the component's local group."""
    coord, rebuilt, off = [None] * g.size, [None] * g.size, 0
    for ci, comp in enumerate(g.form):
        ids = comp.identities
        base = ids[0]
        anchors = []
        for e in ids:
            if e == base:
                anchors.append(base)
                continue
            fwd = [x for x in range(g.size) if g.d[x] == base and g.r[x] == e]
            if fwd:
                anchors.append(min(fwd))
            else:
                back = min(x for x in range(g.size) if g.d[x] == e and g.r[x] == base)
                anchors.append(g.inv[back])
        loops = sorted(x for x in range(g.size) if g.d[x] == base and g.r[x] == base)
        assert comp.group.labels == tuple(loops)
        pos = {e: i for i, e in enumerate(ids)}
        group_index = {x: i for i, x in enumerate(loops)}
        n, h = len(ids), len(loops)
        for t in comp.member_ids:
            xi, yi = pos[g.r[t]], pos[g.d[t]]
            loop = group_index[g.ptable[g.ptable[g.inv[anchors[xi]]][t]][anchors[yi]]]
            coord[t] = (ci, xi, loop, yi)
            rebuilt[t] = off + (xi * n + yi) * h + loop
        off += n * n * h
    return tuple(coord), tuple(rebuilt)


def assert_arrow_readings_match_scans(g):
    assert g.hom == naive_hom(g)
    c = coordinatize(g)
    assert (c.coord, c.rebuilt) == scanned_coordinates(g)


@pytest.mark.parametrize("name", sorted(READ_GROUPOIDS))
def test_arrow_readings_match_scans(name):
    for g in READ_GROUPOIDS[name]():
        assert_arrow_readings_match_scans(g)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(i4_subsemigroup_tables.filter(lambda t: check_boolean(InvSgp(t)).boolean))
def test_arrow_readings_match_scans_on_generated_structures(table):
    for g in groupoids_of(InvSgp(table)):
        assert_arrow_readings_match_scans(g)
