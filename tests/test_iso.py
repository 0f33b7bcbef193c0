"""The one isomorphism search, core._table_iso, behind semigroup_iso and
group_iso: against the per-element and generating-sequence searches it
replaced (naive_iso), and on structures those could not decide."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biskit.core
import naive_iso
from biskit.core import InvSgp, semigroup_iso
from biskit.corpus import SEMIGROUP_BUILDERS, corpus_semigroup
from biskit.errors import Undecided
from biskit.groupoid import Gpd, _element_orders, group_iso
from biskit.rook import build_Mn_G0
from generated import cyclic_group, i4_subsemigroup_tables
from test_core import relabel, shuffled
from test_groupoid import ORDER_8, s3_table, v4_table, z4_by_z4_table

ORACLE_SIZE = 24  # the largest carrier the per-element search was run on


def is_table_iso(rows_a, rows_b, phi):
    """phi is a bijection with phi(x*y) = phi(x)*phi(y) for all x, y."""
    k = len(rows_a)
    return sorted(phi) == list(range(len(rows_b))) and all(
        phi[rows_a[x][y]] == rows_b[phi[x]][phi[y]] for x in range(k) for y in range(k)
    )


def assert_same_decision(got, oracle, rows_a, rows_b):
    assert (got is None) == (oracle is None)
    if got is not None:
        assert is_table_iso(rows_a, rows_b, got)


CORPUS = {name: corpus_semigroup(name) for name in SEMIGROUP_BUILDERS}
SMALL = [name for name, s in CORPUS.items() if s.size <= ORACLE_SIZE]


@pytest.mark.parametrize("a, b", list(itertools.product(SMALL, repeat=2)))
def test_corpus_pairs_agree_with_the_per_element_search(a, b):
    s, t = CORPUS[a], CORPUS[b]
    assert_same_decision(semigroup_iso(s, t), naive_iso.semigroup_iso(s, t), s.table, t.table)


def test_corpus_tables_map_to_themselves_by_the_identity():
    # i3, at 34 elements, was above the per-element search's cap
    for name, s in CORPUS.items():
        assert semigroup_iso(s, s) == tuple(range(s.size)), name


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL), st.randoms(use_true_random=False))
def test_relabelled_corpus_tables(name, rnd):
    s = CORPUS[name]
    perm = list(range(s.size))
    rnd.shuffle(perm)
    r = InvSgp(relabel(s.table, perm))
    for u, v in ((r, s), (s, r)):
        oracle = naive_iso.semigroup_iso(u, v)
        assert oracle is not None
        assert_same_decision(semigroup_iso(u, v), oracle, u.table, v.table)


@settings(max_examples=40, deadline=None)
@given(i4_subsemigroup_tables, i4_subsemigroup_tables, st.randoms(use_true_random=False))
def test_relabelled_i4_subsemigroups(table, other, rnd):
    s, t = InvSgp(table), InvSgp(other)
    perm = list(range(s.size))
    rnd.shuffle(perm)
    r = InvSgp(relabel(s.table, perm))
    phi = semigroup_iso(r, s)
    assert phi is not None and is_table_iso(r.table, s.table, phi)
    got = semigroup_iso(r, t)
    if got is not None:
        assert is_table_iso(r.table, t.table, got)
    if s.size <= ORACLE_SIZE:
        assert naive_iso.semigroup_iso(r, s) is not None
        assert_same_decision(got, naive_iso.semigroup_iso(r, t), r.table, t.table)


GROUPS = {
    **{f"Z{h}": [list(r) for r in cyclic_group(h).ptable] for h in range(1, 13)},
    "V4": v4_table(),
    "S3": s3_table(),
    **ORDER_8,
    "Z4xZ4": z4_by_z4_table(False),
    "Z4x|Z4": z4_by_z4_table(True),
}


def test_element_orders_are_the_periods_of_the_invariants():
    for name, table in GROUPS.items():
        g = Gpd(table)
        assert _element_orders(g) == naive_iso.element_orders(g), name


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(GROUPS)), st.sampled_from(sorted(GROUPS)), st.randoms(use_true_random=False))
def test_relabelled_groups_agree_with_the_generating_sequence_search(a, b, rnd):
    ga, gb = Gpd(GROUPS[a]), Gpd(GROUPS[b])
    perm = list(range(ga.size))
    rnd.shuffle(perm)
    r = Gpd(relabel(ga.ptable, perm))
    for u, v in ((r, ga), (r, gb), (gb, r)):
        oracle = naive_iso.group_iso(u, v)
        assert_same_decision(group_iso(u, v), oracle, u.ptable, v.ptable)
    assert group_iso(r, ga) is not None
    assert (group_iso(r, gb) is not None) == (a == b)


def m1(table):
    """M_1(G^0), the group G with a zero adjoined, as built by build_Mn_G0."""
    return build_Mn_G0(1, Gpd(table)).structure.base


def test_same_size_non_isomorphic_pairs_answer_none():
    z4 = [list(r) for r in cyclic_group(4).ptable]
    assert semigroup_iso(m1(z4), m1(v4_table())) is None
    order_8 = [m1(t) for t in ORDER_8.values()]
    for s, t in itertools.permutations(order_8, 2):
        assert s.size == t.size == 9
        assert semigroup_iso(s, t) is None
    z4z4, twisted = z4_by_z4_table(False), z4_by_z4_table(True)
    assert semigroup_iso(InvSgp(z4z4), InvSgp(twisted)) is None
    assert group_iso(Gpd(z4z4), Gpd(twisted)) is None


def test_groups_above_the_old_order_cap_decide():
    z65 = cyclic_group(65)
    assert group_iso(z65, z65) == tuple(range(65))
    perms = list(itertools.permutations(range(5)))
    idx = {p: i for i, p in enumerate(perms)}
    s5 = [[idx[tuple(p[q[x]] for x in range(5))] for q in perms] for p in perms]
    r = relabel(s5, shuffled(120, 1))
    phi = group_iso(Gpd(s5), Gpd(r))
    assert phi is not None and is_table_iso(s5, r, phi)


def test_search_cap_raises_undecided(monkeypatch):
    # Z4 x Z4 against Z4 x| Z4 tries 132 generator images before answering
    z4z4, twisted = InvSgp(z4_by_z4_table(False)), InvSgp(z4_by_z4_table(True))
    monkeypatch.setattr(biskit.core, "ISO_SEARCH_CAP", 132)
    assert semigroup_iso(z4z4, twisted) is None
    monkeypatch.setattr(biskit.core, "ISO_SEARCH_CAP", 131)
    with pytest.raises(Undecided) as info:
        semigroup_iso(z4z4, twisted)
    assert str(info.value) == (
        "isomorphism search tried 132 generator images, above cap ISO_SEARCH_CAP=131"
    )
