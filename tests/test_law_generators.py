"""Laws restricted-product and setminus-4 decided on generators.

On valid Boolean tables the generator passes must decide both laws with no
full scan.  On a table corrupted against one premise of a pass, the pass
must decline, and the law's outcome must still be its scalar oracle's.
"""

import pytest
from hypothesis import HealthCheck, given, settings

import biskit.laws as laws
from biskit.core import InvSgp
from biskit.corpus import BOOLEAN_NAMES, corpus_semigroup, symmetric_inverse_table
from biskit.laws import (
    Analysis,
    _associative_generators,
    _down_set_products,
    _setminus_4_on_generators,
    law_restricted_product,
    law_setminus_4,
)
from generated import i4_subsemigroup_tables
from test_law_kernels import (
    corrupted,
    oracle_restricted_product,
    oracle_setminus_4,
    outcome,
)


def down_pairs(s):
    return [(x, t) for x in range(s.size) for t in s.down[x]]


def refuse_full_scans(mp):
    def refuse_rows(bs, pairs):
        raise AssertionError("setminus-4 ran its full scan")

    def gens_only(s, b_ids):
        if isinstance(b_ids, range):
            raise AssertionError("restricted-product ran its full scan")
        return _down_set_products(s, b_ids)

    mp.setattr(laws, "_setminus_4_rows", refuse_rows)
    mp.setattr(laws, "_down_set_products", gens_only)


def assert_decided_on_generators(table):
    c = Analysis(InvSgp(table))
    assert c.bs is not None
    with pytest.MonkeyPatch.context() as mp:
        refuse_full_scans(mp)
        assert law_restricted_product(c) is None
        assert law_setminus_4(c) is None


BOOLEAN_TABLES = {
    **{name: lambda name=name: corpus_semigroup(name).table for name in BOOLEAN_NAMES},
    "symmetric_inverse_table(3)": lambda: symmetric_inverse_table(3),
    "symmetric_inverse_table(4)": lambda: symmetric_inverse_table(4),
}


@pytest.mark.parametrize("name", sorted(BOOLEAN_TABLES))
def test_generator_passes_decide_boolean_tables(name):
    assert_decided_on_generators(BOOLEAN_TABLES[name]())


def is_boolean(table):
    return Analysis(InvSgp(table)).bs is not None


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(i4_subsemigroup_tables.filter(is_boolean))
def test_generator_passes_decide_generated_boolean_tables(table):
    assert_decided_on_generators(table)


def wrong_d(name, v):
    """d(v) read as the first other idempotent, so u*d(v) = v fails; the
    relative complements are read off the table before."""
    c = Analysis(corpus_semigroup(name))
    s = c.s
    c.bs.rc_table
    d = list(s.d)
    d[v] = next(e for e in s.idempotents if e != s.d[v])
    s.d = tuple(d)
    return c


# one corruption per check of _setminus_4_on_generators, each failing it
# first; the F0 and H tables are ones the law fails, where the pass with that
# check left out would accept
SETMINUS_4_PREMISES = {
    "F0": lambda: corrupted("z3zero", "table", 0, 2, 3),  # not associative
    "F1": lambda: corrupted("i2", "rc_table", 3, 0, 0),  # 3 minus 0 read as 0
    "F2": lambda: wrong_d("i2", 3),
    "F3": lambda: corrupted("i2", "down", 5, 2, 0),  # 4 <= 5 dropped from P
    "G": lambda: corrupted("i2", "rc_table", 6, 3, 6),  # a wrong complement
    "H": lambda: corrupted("z2zero", "join_table", 0, 2, 0),  # a wrong join
}


@pytest.mark.parametrize("premise", sorted(SETMINUS_4_PREMISES))
def test_setminus_4_pass_declines_on_a_failed_premise(premise):
    c = SETMINUS_4_PREMISES[premise]()
    gens = _associative_generators(c.s.table)
    assert _setminus_4_on_generators(c.bs, down_pairs(c.s), gens) == premise
    assert outcome(law_setminus_4, c) == outcome(oracle_setminus_4, c)


def test_restricted_product_pass_declines_without_light_test():
    # not associative, yet every generator passes the down-set check; the
    # law must not read that as a proof
    c = corrupted("m2z2zero", "table", 12, 14, 1)
    gens = laws._generators(c.s.table)
    assert _down_set_products(c.s, gens) is None
    assert _associative_generators(c.s.table) is None
    got = outcome(law_restricted_product, c)
    assert got == outcome(oracle_restricted_product, c)
    assert got == ("returned", (12, 14, "down-set-product"))
