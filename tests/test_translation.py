"""The two-sided generator passes and their one witness scan:
core._on_generator_sides reads row g and column g of each generator, and
core._translation_failure names the first (tuple, u, side) that breaks a
relation.

Laws oj, setminus-2 and definition, check_boolean's distributivity and
verify_additive_ideal must give the witness, or raise the error, of the
scans they replaced (tests/naive_translation.py), on corrupted tables
and with every pass made to decline.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biskit.boolean import as_boolean, verify_additive_ideal
from biskit.core import (
    _on_generator_sides,
    _translation_failure,
    check_congruence,
    mu_and_quotient,
)
from biskit.corpus import BOOLEAN_NAMES, SEMIGROUP_BUILDERS, corpus_semigroup
from biskit.laws import Analysis, law_definition, law_oj, law_setminus_2
from naive_translation import (
    _definition_scan,
    _ideal_scan,
    _oj_scan,
    _setminus_2_scan,
    naive_additive_ideal,
)
from test_law_kernels import corrupted, corruptions, outcome
from test_on_generators import corrupt, corrupted_products_and_classes
from unchecked import unchecked

# -- the helpers ---------------------------------------------------------------


def naive_translation_failure(s, tuples, related):
    t = s.table
    for tup in tuples:
        for u in range(s.size):
            if not related(*(t[u][x] for x in tup)):
                return tup, u, "left"
            if not related(*(t[x][u] for x in tup)):
                return tup, u, "right"
    return None


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SEMIGROUP_BUILDERS)), st.data())
def test_translation_failure_takes_tuples_then_u_then_left(name, data):
    s = corpus_semigroup(name)
    ids = st.integers(0, s.size - 1)
    arity = data.draw(st.integers(1, 3))
    tuples = data.draw(st.lists(st.tuples(*[ids] * arity), max_size=6))
    bad = data.draw(st.sets(st.tuples(*[ids] * arity), max_size=4))

    def related(*xs):
        return xs not in bad

    want = naive_translation_failure(s, tuples, related)

    def lazy():  # tuples past the first failure are not taken
        yield from tuples[: tuples.index(want[0]) + 1] if want else tuples
        if want:
            raise AssertionError("a tuple past the failure was taken")

    assert _translation_failure(s, lazy(), related) == want


def test_on_generator_sides_reads_row_then_column_of_each_generator():
    s = corpus_semigroup("i2xz2zero")
    t, gens = s.table, s.associative_generators
    seen = []
    assert _on_generator_sides(s, lambda side: seen.append(side) or True)
    assert seen == [side for g in gens for side in (t[g], tuple(r[g] for r in t))]
    seen.clear()
    assert not _on_generator_sides(s, lambda side: seen.append(side) or False)
    assert seen == [t[gens[0]]]  # a failing row ends the pass


def test_two_sided_passes_cache_no_columns():
    # quotients and products are checked too, and cached columns would keep
    # each of them alive
    for name in BOOLEAN_NAMES:
        s = corpus_semigroup(name)
        assert check_congruence(s, mu_and_quotient(s).mu) is None
        c = Analysis(s)
        assert law_oj(c) is None is law_setminus_2(c)
        assert "cols" not in vars(s), name


# -- laws oj, setminus-2 and definition against the scans they replaced --------


def declined(corruption):
    """corrupted(*corruption) with Light's test read as failed and no atom
    splits, so every pass declines and each law runs its scan."""
    bs = corrupted(*corruption).bs
    c = Analysis(unchecked(bs, base=unchecked(bs.base, associative_generators=None)))
    c.atom_splits = None
    return c


SCANS = {
    "oj": (law_oj, lambda c: _oj_scan(c.s)),
    "setminus-2": (law_setminus_2, lambda c: _setminus_2_scan(c.bs)),
    "definition": (law_definition, lambda c: _definition_scan(c.bs.base)),
}


def assert_scans_match(corruption):
    for key, (law, scan) in SCANS.items():
        got = outcome(law, declined(corruption))
        assert got == outcome(scan, declined(corruption)), key


@settings(max_examples=200, deadline=None)
@given(corruptions())
def test_law_scans_match_the_naive_scans_on_corrupted_tables(corruption):
    assert_scans_match(corruption)


@pytest.mark.parametrize(
    "law, corruption, want",
    [
        # NotBelow at a down-pair, and at a translated pair
        (law_setminus_2, ("powerset2", "rc_rows", 3, 1, None), "NotBelow"),
        (law_setminus_2, ("powerset2", "table", 1, 0, 1), "NotBelow"),
        (
            law_definition,
            ("powerset2", "join_table", 1, 2, None),
            (1, 2, "missing-join"),
        ),
    ],
)
def test_pinned_corruptions_reach_the_error_paths(law, corruption, want):
    got = outcome(law, declined(corruption))
    assert got[1] == want
    assert_scans_match(corruption)


# -- check_boolean's distributivity and verify_additive_ideal ------------------


@settings(max_examples=200, deadline=None)
@given(corrupted_products_and_classes())
def test_verify_additive_ideal_matches_the_naive_scans_on_corrupted_products(drawn):
    corruption, classes = drawn
    name = corruption[0]
    bs = corrupted(*corruption).bs
    drawn_subset = [x for x in reversed(range(bs.base.size)) if classes[x] == 0]
    for subset in (
        drawn_subset,
        {bs.base.zero, *drawn_subset},
        *Analysis(corpus_semigroup(name)).ideals,
    ):
        assert verify_additive_ideal(bs, subset) == naive_additive_ideal(bs, subset)


def test_verify_additive_ideal_checks_joins_after_a_declined_pass():
    bs = as_boolean(corpus_semigroup("powerset2"))
    assert verify_additive_ideal(bs, {0, 1, 2}) == ("join", 1, 2)
    bs = unchecked(bs, base=corrupt(bs.base, 3, 3, 0))  # Light's test fails
    assert bs.base.associative_generators is None
    assert _ideal_scan(bs.base.table, {0, 1, 2}) is None
    assert verify_additive_ideal(bs, {0, 1, 2}) == ("join", 1, 2)
