"""Laws restricted-product, setminus-4, setminus-2, oj and fish decided on
generators, laws definition and eggs by the atom decomposition, law eggs'
triples decided from its pairs, law orthogonal's families from the
steps orthogonalize takes, and laws carre and discrete-topology from the
order's compatibility with product and inversion.

On valid Boolean tables these passes must decide the laws with no full
scan.  On a table corrupted against one premise of a pass, the pass
must decline, and the law's outcome must still be its scalar oracle's.
"""

import pytest
from hypothesis import HealthCheck, given, settings

import biskit.laws as laws
from biskit.booleanization import FilterReport, filter_groupoid
from biskit.core import InvSgp, _generators, restricted_groupoid
from biskit.corpus import (
    BOOLEAN_NAMES,
    SEMIGROUP_BUILDERS,
    corpus_semigroup,
    symmetric_inverse_table,
)
from biskit.laws import (
    Analysis,
    _atom_splits,
    _definition_by_atoms,
    _down_sets_multiply,
    _eggs_pairs_by_atoms,
    _eggs_scan,
    _fish_on_generators,
    _oj_on_generators,
    _setminus_2_on_generators,
    _setminus_4_on_generators,
    law_carre,
    law_definition,
    law_discrete_topology,
    law_eggs,
    law_fish,
    law_oj,
    law_orthogonal,
    law_restricted_product,
    law_setminus_2,
    law_setminus_4,
)
from generated import i4_subsemigroup_tables
from naive_translation import refuse_full_scans
from test_law_kernels import (
    corrupted,
    oracle_carre,
    oracle_definition,
    oracle_discrete_topology,
    oracle_eggs,
    oracle_fish,
    oracle_oj,
    oracle_restricted_product,
    oracle_setminus_2,
    oracle_setminus_4,
    outcome,
)
from unchecked import unchecked


def assert_decided_without_scans(table):
    c = Analysis(InvSgp(table))
    assert c.bs is not None
    with pytest.MonkeyPatch.context() as mp:
        refuse_full_scans(mp)
        for law in (
            law_restricted_product,
            law_setminus_4,
            law_definition,
            law_eggs,
            law_setminus_2,
            law_oj,
            law_fish,
            law_orthogonal,
            law_carre,
            law_discrete_topology,
        ):
            assert law(c) is None, law.__name__


BOOLEAN_TABLES = {
    **{name: lambda name=name: corpus_semigroup(name).table for name in BOOLEAN_NAMES},
    "symmetric_inverse_table(3)": lambda: symmetric_inverse_table(3),
    "symmetric_inverse_table(4)": lambda: symmetric_inverse_table(4),
}


@pytest.mark.parametrize("name", sorted(BOOLEAN_TABLES))
def test_generator_passes_decide_boolean_tables(name):
    assert_decided_without_scans(BOOLEAN_TABLES[name]())


def is_boolean(table):
    return Analysis(InvSgp(table)).bs is not None


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(i4_subsemigroup_tables.filter(is_boolean))
def test_generator_passes_decide_generated_boolean_tables(table):
    assert_decided_without_scans(table)


def wrong_d(name, v):
    """d(v) read as the first other idempotent, so u*d(v) = v fails; the
    relative complements are read off the table before."""
    bs = Analysis(corpus_semigroup(name)).bs
    s = bs.base
    bs.rc_table
    d = list(s.d)
    d[v] = next(e for e in s.idempotents if e != s.d[v])
    return Analysis(unchecked(bs, base=unchecked(s, d=tuple(d))))


# corruptions, each failing one check of _setminus_4_on_generators first:
# (that check, the table).  The F0, F3 and G tables, named for checks the
# pass now takes from law setminus-2's pass, fail its setminus-2 premise.
# The law fails on the F0 and H tables, where the pass without that check
# would accept
SETMINUS_4_PREMISES = {
    "F0": ("setminus-2", lambda: corrupted("z3zero", "table", 0, 2, 3)),  # not associative
    "F1": ("F1", lambda: corrupted("i2", "join_table", 3, 0, 6)),  # 3 v 0 read as 6
    "F2": ("F2", lambda: wrong_d("i2", 3)),
    "F3": ("setminus-2", lambda: corrupted("i2", "down", 5, 2, 0)),  # 4 <= 5 dropped
    "G": ("setminus-2", lambda: corrupted("i2", "rc_table", 6, 3, 6)),  # a wrong complement
    "H": ("H", lambda: corrupted("z2zero", "join_table", 0, 2, 0)),  # a wrong join
}


@pytest.mark.parametrize("name", sorted(SETMINUS_4_PREMISES))
def test_setminus_4_pass_declines_on_a_failed_premise(name):
    premise, make = SETMINUS_4_PREMISES[name]
    c = make()
    got = _setminus_4_on_generators(c.bs, c.setminus_2_on_generators)
    assert got == premise
    assert outcome(law_setminus_4, c) == outcome(oracle_setminus_4, c)


def test_restricted_product_pass_declines_without_light_test():
    # not associative, yet every generator passes the down-set check; the
    # law must not read that as a proof
    c = corrupted("m2z2zero", "table", 12, 14, 1)
    multiplies = _down_sets_multiply(c.s)
    ids = range(c.s.size)
    assert all(multiplies(a, g) for g in _generators(c.s.table) for a in ids)
    assert c.s.associative_generators is None
    got = outcome(law_restricted_product, c)
    assert got == outcome(oracle_restricted_product, c)
    assert got == ("returned", (12, 14, "down-set-product"))


def eggs_declines(c):
    return not _eggs_pairs_by_atoms(c.s, _atom_splits(c.bs))


def splits_decline(c):
    return _atom_splits(c.bs) is None


def definition_declines(c):
    """The shared atom premises hold, and law definition's own fail."""
    splits = _atom_splits(c.bs)
    return splits is not None and not _definition_by_atoms(c.s, splits)


def eggs_pairs_decline(c):
    """The shared atom premises hold, and law eggs' own fail."""
    splits = _atom_splits(c.bs)
    return splits is not None and not _eggs_pairs_by_atoms(c.s, splits)


def setminus_2_declines(c):
    return not _setminus_2_on_generators(c.bs)


def oj_declines(c):
    return not _oj_on_generators(c.s)


def fish_declines(c):
    return not _fish_on_generators(c.s)


# one corruption per premise of the passes of laws definition, eggs,
# setminus-2, oj and fish, each breaking that premise alone: (the corrupted
# Analysis, the passes that must decline on it, the laws then compared with
# their oracles).  On the I and J tables every pair of law eggs holds, so it
# is the triples that name the witness.  On the zero, compatible-join and
# extension tables the law fails, where the pass without that premise would
# accept
DEFINITION = (law_definition, oracle_definition)
EGGS = (law_eggs, oracle_eggs)
PASS_PREMISES = {
    # 4 <= 5 dropped: 5 and 1 have the same atoms below, which the join
    # premise sees as well
    "beta": (
        lambda: corrupted("i2", "down", 5, 2, 0),
        [splits_decline],
        [DEFINITION, EGGS],
    ),
    # 1 v 2 read as 6, whose atoms are not those of 1 and 2
    "join-union": (
        lambda: corrupted("i2", "join_table", 1, 2, 6),
        [splits_decline],
        [DEFINITION, EGGS],
    ),
    # 5 minus 4 read as 0, not 1
    "split": (
        lambda: corrupted("i2", "rc_table", 5, 4, 0),
        [splits_decline],
        [DEFINITION, EGGS],
    ),
    # 0 * 0 read as 1
    "zero": (
        lambda: corrupted("i2", "table", 0, 0, 1),
        [definition_declines],
        [DEFINITION],
    ),
    # 0 meet 0 read as 1
    "meet-zero": (
        lambda: corrupted("i2", "meet_table", 0, 0, 1),
        [eggs_pairs_decline],
        [EGGS],
    ),
    # 1 and 2 read as compatible, with no join, by 1 * 2 read as 0
    "compatible-join": (
        lambda: corrupted("z2zero", "table", 1, 2, 0),
        [definition_declines],
        [DEFINITION],
    ),
    # 6 * 5 read as 2, not (6 * 1) v (6 * 4) = 6
    "column-extension": (
        lambda: corrupted("i2", "table", 6, 5, 2),
        [definition_declines],
        [DEFINITION],
    ),
    # 1 * 2 read as 3, so 5 * 2 = 2 is not (1 * 2) v (4 * 2) = 6
    "row-extension": (
        lambda: corrupted("i2", "table", 1, 2, 3),
        [definition_declines],
        [DEFINITION],
    ),
    # 5 meet 5 read as 4, not (1 meet 5) v (4 meet 5) = 5
    "meet-extension": (
        lambda: corrupted("i2", "meet_table", 5, 5, 4),
        [eggs_pairs_decline],
        [EGGS],
    ),
    # 5 meet 5 read as undefined, the meet table still symmetric
    "M": (lambda: corrupted("i2", "meet_table", 5, 5, None), [eggs_declines], [EGGS]),
    # 6 meet 3 read as 4, while 3 meet 6 is 3
    "S": (lambda: corrupted("i2", "meet_table", 6, 3, 4), [eggs_declines], [EGGS]),
    # 5 v 5 read as 0
    "I": (lambda: corrupted("i2", "join_table", 5, 5, 0), [eggs_declines], [EGGS]),
    # 6 v 4 read as 0, while 4 v 6 is 6
    "J": (lambda: corrupted("i2", "join_table", 6, 4, 0), [eggs_declines], [EGGS]),
    "rc_table": (  # 6 minus 3 read as 6
        lambda: corrupted("i2", "rc_table", 6, 3, 6),
        [setminus_2_declines],
        [(law_setminus_2, oracle_setminus_2)],
    ),
    "orth": (  # 5 and 6 read as orthogonal
        lambda: corrupted("i2", "orth", 5, 6, True),
        [oj_declines],
        [(law_oj, oracle_oj)],
    ),
    "Light": (  # not associative
        lambda: corrupted("z3zero", "table", 0, 2, 3),
        [setminus_2_declines, oj_declines, fish_declines],
        [
            (law_setminus_2, oracle_setminus_2),
            (law_oj, oracle_oj),
            (law_fish, oracle_fish),
        ],
    ),
}


@pytest.mark.parametrize("premise", sorted(PASS_PREMISES))
def test_passes_decline_on_a_failed_premise(premise):
    make, declines, laws_and_oracles = PASS_PREMISES[premise]
    c = make()
    for declined in declines:
        assert declined(c), declined.__name__
    if premise in ("I", "J"):
        assert _eggs_scan(c.s, 2) is None
        assert len(outcome(law_eggs, c)[1]) == 4  # a triple and its u
    for law, oracle in laws_and_oracles:
        got = outcome(law, c)
        assert got == outcome(oracle, c), law.__name__
        assert got[0] == "returned"


# -- the filter groupoids are the restricted and the atoms groupoid ----------


def assert_filter_groupoids_match_the_scan(table):
    """The groupoids laws carre and discrete-topology read when the order is
    compatible with product and inversion, against the setwise scan: the
    restricted groupoid for the proper filters, and for a Boolean table the
    atoms groupoid for the ultrafilters."""
    c = Analysis(InvSgp(table))
    assert c.filter_order
    read = [(restricted_groupoid(c.s), c.filters.proper)]
    if c.bs is not None:
        read.append((c.bs.atoms_groupoid, c.filters.ultra))
    for got, ids in read:
        want = filter_groupoid(c.s, ids)
        assert (got.ptable, got.labels) == (want.ptable, want.labels)


FILTER_TABLES = {
    **{name: lambda n=name: corpus_semigroup(n).table for name in SEMIGROUP_BUILDERS},
    "symmetric_inverse_table(3)": lambda: symmetric_inverse_table(3),
    "symmetric_inverse_table(4)": lambda: symmetric_inverse_table(4),
}


@pytest.mark.parametrize("name", sorted(FILTER_TABLES))
def test_filter_groupoid_off_the_table_matches_the_scan(name):
    assert_filter_groupoids_match_the_scan(FILTER_TABLES[name]())


@settings(max_examples=50, deadline=None)
@given(i4_subsemigroup_tables)
def test_filter_groupoid_off_generated_tables_matches_the_scan(table):
    # Boolean or not, with a zero or without
    assert_filter_groupoids_match_the_scan(table)


def with_up(name, ids, ups):
    """Analysis of a Boolean corpus table with up[a] read as ups for each a
    in ids; the Boolean check and the meet table are read before."""
    bs = Analysis(corpus_semigroup(name)).bs
    s = bs.base
    s.meet_table
    up = tuple(ups if a in ids else u for a, u in enumerate(s.up))
    return Analysis(unchecked(bs, base=unchecked(s, up=up)))


def with_inv(name, a, value):
    """Analysis of a Boolean corpus table with the inverse of a read as
    value; the Boolean check is read before."""
    bs = Analysis(corpus_semigroup(name)).bs
    inv = (*bs.base.inv[:a], value, *bs.base.inv[a + 1 :])
    return Analysis(unchecked(bs, base=unchecked(bs.base, inv=inv)))


def without_first_filter(name):
    c = Analysis(corpus_semigroup(name))
    c.filters = FilterReport(c.filters.proper[1:], c.filters.ultra)
    return c


# one corruption per premise of the filter pass, each breaking that premise
# alone: powerset2 is 0, atoms 1 and 2, top 3; z2zero is the group {1, 2}
# with a zero 0 adjoined; i2 is 0, the idempotent atoms 1 and 4, the atoms 2
# and 3 (each the other's inverse), the identity 5 and the swap 6.  On the
# subset table _filter_order holds, but the proper filters are not those of
# every nonzero element: law carre scans and raises the unlisted product,
# and law discrete-topology reads the atoms groupoid
FILTER_PREMISES = {
    "P1 up[a] misses a": lambda: with_up("powerset2", (3,), ()),
    "P1 two equal up-sets": lambda: with_up("z2zero", (1, 2), (1, 2)),
    "P2 not transitive": lambda: with_up("powerset2", (1,), (0, 1, 3)),  # 1 <= 0 <= 2
    "P3 inverse not monotone": lambda: with_inv("powerset2", 3, 0),  # 1 <= 3, 1' not <= 3' = 0
    # 1 <= 2, but 1*1 = 1 is not below 2*1 = 0
    "P4 product not monotone": lambda: with_up("powerset2", (1,), (1, 2, 3)),
    "Light": lambda: corrupted("z3zero", "table", 0, 2, 3),  # not associative
    "subset": lambda: without_first_filter("i2"),
}
# the premises without which the restricted groupoid would differ from the
# scan's filter groupoid on these tables; "a <= a" fails alone only at the
# top of powerset2, whose filter, read either way, has no member to multiply
NEEDED = ("P1 two equal up-sets", "P2 not transitive", "P3", "P4")


@pytest.mark.parametrize("premise", sorted(FILTER_PREMISES))
def test_filter_pass_declines_on_a_failed_premise(premise, monkeypatch):
    make = FILTER_PREMISES[premise]
    c = make()
    assert c.filter_order is (premise == "subset")
    scans = []

    def counted(s, filters):
        scans.append(filters)
        return filter_groupoid(s, filters)

    monkeypatch.setattr(laws, "filter_groupoid", counted)
    for law, oracle in (
        (law_carre, oracle_carre),
        (law_discrete_topology, oracle_discrete_topology),
    ):
        assert outcome(law, c) == outcome(oracle, c), law.__name__
    assert len(scans) == (1 if premise == "subset" else 2)
    if premise == "subset":
        got = outcome(law_carre, c)
        assert got[:2] == ("raised", "CertificateFailed")
        assert "filter-product-not-listed" in got[2]
    if premise.startswith(NEEDED):
        forced = make()
        forced.filter_order = True
        assert outcome(law_carre, forced) != outcome(oracle_carre, make())
