import itertools
from types import SimpleNamespace

import pytest

from biskit.boolean import check_boolean, direct_product
from biskit.corpus import BOOLEAN_NAMES, corpus_semigroup
from biskit.errors import TooLarge
from biskit.laws import Analysis
from biskit.typemon import (
    ideal_triple,
    mu_type_invariance,
    refinement_check,
    type_monoid,
    type_via_matrices,
)
from naive_order import leq


def boolean(name):
    return check_boolean(corpus_semigroup(name)).structure


def test_ranks():
    ranks = {
        "trivial": 0,
        "powerset2": 2,
        "z2zero": 1,
        "z3zero": 1,
        "i2": 1,
        "i3": 1,
        "i2xz2zero": 2,
        "m2z2zero": 1,
    }
    for name, r in ranks.items():
        assert type_monoid(boolean(name)).rank == r, name


def test_tau_counts_atomic_idempotents_below():
    for name in BOOLEAN_NAMES:
        bs = boolean(name)
        s = bs.base
        tm = type_monoid(bs)
        atomic = set(s.atoms) & set(s.idempotents)
        for e, vec in tm.tau.items():
            assert sum(vec) == sum(1 for a in atomic if leq(s, a, e))


def test_tau_table_i2xz2zero():
    tm = type_monoid(boolean("i2xz2zero"))
    assert tm.tau == {
        0: (0, 0),
        1: (1, 0),
        4: (1, 0),
        5: (2, 0),
        7: (0, 1),
        8: (1, 1),
        11: (1, 1),
        12: (2, 1),
    }


def test_tau_tops():
    assert type_monoid(boolean("i3")).tau[boolean("i3").top] == (3,)
    assert type_monoid(boolean("m2z2zero")).tau[boolean("m2z2zero").top] == (2,)
    assert type_monoid(boolean("powerset2")).tau[3] == (1, 1)


def test_component_order_follows_least_atom():
    # in the product, i2 atoms sit at ids 1..4 and the z2 atoms above them,
    # so the i2 coordinate must come first
    tm = type_monoid(boolean("i2xz2zero"))
    assert min(tm.atomic_idempotents[0]) < min(tm.atomic_idempotents[1])
    assert tm.tau[12] == (2, 1)


def test_refinement_all_boolean_corpus():
    for name in BOOLEAN_NAMES:
        assert refinement_check(type_monoid(boolean(name))), name


def test_ideal_triple_counts():
    expected = {"i2": 2, "z2zero": 2, "i2xz2zero": 4, "powerset2": 4, "m2z2zero": 2}
    for name, n in expected.items():
        a = Analysis(boolean(name))
        tri = ideal_triple(a.bs, a.tm, a.ideals, a.idem_ideals)
        assert tri.matched, name
        assert len(a.ideals) == n, name
        assert len(a.idem_ideals) == n, name
        assert 2 ** a.tm.rank == n, name  # one support per subset of coordinates
        assert tri.simple_iff_rank_one, name


def test_ideal_triple_needs_inclusion_order_to_match():
    # a semilattice 0..7 read with the carriers {0}, {0, x} for x = 1..6 and
    # everything, and tau giving the supports {}, {0}, {1}, {2}, {0, 1},
    # {0, 2}, {1, 2} and {0, 1, 2}: counts, sorted supports and induced sets
    # agree, but {0, 1} is below no carrier whose support holds {0}'s
    s = SimpleNamespace(size=8, d=tuple(range(8)), is_idempotent=lambda x: True)
    supports = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    tau = {x: tuple(int(i in supp) for i in range(3)) for x, supp in enumerate(supports)}
    tm = SimpleNamespace(rank=3, tau=tau)
    carriers = [frozenset({0, x}) for x in range(7)] + [frozenset(range(8))]
    triple = ideal_triple(
        SimpleNamespace(base=s), tm, carriers, carriers
    )
    assert not triple.matched


def test_matrix_oracle_runs_clean():
    for name, n in itertools.product(("i2", "z2zero", "i2xz2zero"), (2, 3)):
        bs = boolean(name)
        mo = type_via_matrices(bs, n, type_monoid(bs))
        assert mo.partition_agrees, (name, n)
        assert mo.witnesses_verified, (name, n)
        assert mo.separation_ok, (name, n)


def test_matrix_oracle_cap():
    i3 = boolean("i3")
    with pytest.raises(TooLarge) as info:
        type_via_matrices(i3, 6, type_monoid(i3))
    assert str(info.value) == (
        "8^6 = 262144 diagonal idempotents, above cap MATRIX_IDEMPOTENT_CAP=100000"
    )
    i2 = boolean("i2")
    with pytest.raises(TooLarge):
        type_via_matrices(i2, 1, type_monoid(i2))


def test_mu_invariance():
    for name in BOOLEAN_NAMES:
        a = Analysis(boolean(name))
        assert mu_type_invariance(a.bs, a.tm, a.mu, a.mu_tm), name


def product_type_check(bs, bt):
    """Types over a direct product are the two types side by side."""
    p = direct_product(bs, bt)
    tm_p, tm_s, tm_t = type_monoid(p), type_monoid(bs), type_monoid(bt)
    if tm_p.rank != tm_s.rank + tm_t.rank:
        return False
    ks = bs.base.size
    sides = []
    for comp in tm_p.atomic_idempotents:
        e = min(comp)
        a, b = e % ks, e // ks
        if b == bt.base.zero:
            side = ("left", next(
                i for i, c in enumerate(tm_s.atomic_idempotents) if a in c
            ))
        else:
            side = ("right", next(
                i for i, c in enumerate(tm_t.atomic_idempotents) if b in c
            ))
        sides.append(side)
    if sorted(sides) != sorted(
        [("left", i) for i in range(tm_s.rank)]
        + [("right", i) for i in range(tm_t.rank)]
    ):
        return False
    for e in bs.base.idempotents:
        for f in bt.base.idempotents:
            pid = f * ks + e
            vec = tm_p.tau[pid]
            for ci, side in enumerate(sides):
                tag, i = side
                want = tm_s.tau[e][i] if tag == "left" else tm_t.tau[f][i]
                if vec[ci] != want:
                    return False
    return True


def test_product_type_concatenates():
    assert product_type_check(boolean("i2"), boolean("z2zero"))
    assert product_type_check(boolean("z2zero"), boolean("z3zero"))
    assert product_type_check(boolean("powerset2"), boolean("z2zero"))
