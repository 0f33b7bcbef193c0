import pytest

import biskit.booleanization as booleanization
import biskit.core
from biskit.boolean import check_boolean, check_multiplicative
from biskit.booleanization import (
    FILTER_SCAN_CAP,
    booleanization_iso,
    booleanize,
    enumerate_filters,
    filter_groupoid,
    gamma_extension,
    principal_map_is_iso,
)
from biskit.core import InvSgp, semigroup_iso
from biskit.corpus import corpus_semigroup, symmetric_inverse_table
from biskit.errors import CertificateFailed, NotMultiplicative, TooLarge
from biskit.groupoid import groupoid_iso
from biskit.laws import run_laws
from unchecked import unchecked


def test_booleanization_sizes():
    cases = {"b2": 7, "chain3": 4, "antichain3": 4, "z2-group": 3, "i2": 21}
    for name, size in cases.items():
        assert booleanize(corpus_semigroup(name)).bs.size == size, name


def test_beta_is_multiplicative_and_injective_off_zero():
    for name in ("b2", "chain3", "z2-group"):
        b = booleanize(corpus_semigroup(name))
        s0, t = b.source0, b.bs.base
        assert check_multiplicative(s0, t, b.beta) is None
        nonzero = [x for x in range(s0.size) if x != s0.zero]
        images = [b.beta[x] for x in nonzero]
        assert len(set(images)) == len(images)
        assert b.beta[s0.zero] == t.zero


@pytest.mark.parametrize(
    "atom_down, witness",
    [
        ((0,), ("beta-not-injective",)),  # atom 1 read as the zero
        ((0, 1, 2), ("beta-not-multiplicative", 1, 2)),  # 1 read above 2
    ],
)
def test_booleanize_certificates_name_the_failure(atom_down, witness):
    # powerset2 is 0, atoms 1 and 2, top 3; one down-set is read wrongly
    s = corpus_semigroup("powerset2")
    s = unchecked(s, down=(s.down[0], atom_down, *s.down[2:]))
    with pytest.raises(CertificateFailed) as e:
        booleanize(s)
    assert e.value.witness == witness


def test_booleanization_of_boolean_is_bigger():
    # beta is multiplicative but not additive, so i2 grows to its
    # lattice of compatible down-sets
    b = booleanize(corpus_semigroup("i2"))
    assert b.source.size == 7
    assert b.bs.size == 21


def test_gamma_extension_of_inclusion():
    s = corpus_semigroup("b2")
    b = booleanize(s)
    g = gamma_extension(b, b.beta, b.bs)
    assert g.map == tuple(range(b.bs.size))


def test_gamma_needs_a_coherent_alpha():
    s = corpus_semigroup("b2")
    b = booleanize(s)
    alpha = list(b.beta)
    alpha[1], alpha[2] = alpha[2], alpha[1]  # no longer multiplicative
    with pytest.raises(Exception):
        gamma_extension(b, tuple(alpha), b.bs)


def test_gamma_extension_names_the_pair_a_non_multiplicative_extension_breaks():
    # joins of two singletons read as 0: every value on a beta(a) is still
    # alpha(a), but {0, 1} * {0} = {0} now maps to 0 * alpha(a).  The
    # singleton values of a bisection come to join_of as a list; the values
    # of alpha below a, which have the same ids here, do not
    b = booleanize(corpus_semigroup("powerset2"))
    target = check_boolean(b.bs.base).structure
    base = target.base

    def join_of(xs):
        if isinstance(xs, list) and len(xs) == 2:
            return base.zero
        return base.join_of(xs)

    target = unchecked(target, base=unchecked(base, join_of=join_of))
    with pytest.raises(NotMultiplicative) as info:
        gamma_extension(b, b.beta, target)
    assert info.value.witness == (1, 4)


def test_filters_chain3():
    s = corpus_semigroup("chain3")
    fr = enumerate_filters(s)
    assert {frozenset(s.up[x]) for x in fr.proper} == {
        frozenset({2}),
        frozenset({1, 2}),
    }
    assert fr.ultra == (1,)
    assert s.size <= FILTER_SCAN_CAP
    [law] = [r for r in run_laws(s) if r.key == "universal-groupoid"]
    assert law.status == "pass"


def test_filters_of_a_group_are_everything_upward():
    fr = enumerate_filters(corpus_semigroup("z2-group"))
    assert len(fr.proper) == 2
    assert len(fr.ultra) == 2


def test_ultrafilters_are_atom_upsets():
    for name in ("i2", "m2z2zero", "z3zero"):
        s = corpus_semigroup(name)
        fr = enumerate_filters(s)
        assert set(fr.ultra) == set(s.atoms), name


def test_filter_groupoid_matches_restricted_product():
    s = corpus_semigroup("i2")
    fr = enumerate_filters(s)
    fg = filter_groupoid(s, fr.proper)
    assert fg.size == len(fr.proper)
    assert principal_map_is_iso(s, fr.proper, fg)


def test_ultrafilter_groupoid_is_the_atoms():
    s = corpus_semigroup("i3")
    bs = check_boolean(s).structure
    fr = enumerate_filters(s)
    fg = filter_groupoid(s, fr.ultra)
    assert groupoid_iso(fg, bs.atoms_groupoid) is not None


def test_booleanization_iso_positive():
    f = booleanization_iso(corpus_semigroup("chain3"), corpus_semigroup("antichain3"))
    assert f is not None
    # the induced map really is an isomorphism of the two Booleanizations
    bs = booleanize(corpus_semigroup("chain3")).bs.base
    bt = booleanize(corpus_semigroup("antichain3")).bs.base
    for a in range(bs.size):
        for b in range(bs.size):
            assert f[bs.table[a][b]] == bt.table[f[a]][f[b]]


def test_booleanization_iso_direct_cross_check():
    # a direct table search confirms the iso found through the groupoids
    s, t = corpus_semigroup("chain3"), corpus_semigroup("antichain3")
    assert booleanization_iso(s, t) is not None
    bs, bt = booleanize(s).bs.base, booleanize(t).bs.base
    assert bs.size <= 8
    assert semigroup_iso(bs, bt) is not None


@pytest.mark.parametrize(
    "name, swap, pair", [("i2", (1, 2), (1, 2)), ("b2", (0, 1), (1, 3))]
)
def test_booleanization_iso_names_the_first_pair_not_multiplied(
    name, swap, pair, monkeypatch
):
    # the groupoid map found, with two arrows exchanged, still induces a
    # bijection; the witness is the first pair a plain scan finds
    s = corpus_semigroup(name)
    b = booleanize(s)
    m = list(groupoid_iso(b.target.groupoid, b.target.groupoid))
    i, j = swap
    m[i], m[j] = m[j], m[i]
    monkeypatch.setattr(booleanization, "groupoid_iso", lambda g, h: tuple(m))
    f = [b.target.index[frozenset(m[x] for x in a)] for a in b.target.bisections]
    t, ids = b.bs.base.table, range(b.bs.size)
    first = next((a, c) for a in ids for c in ids if f[t[a][c]] != t[f[a]][f[c]])
    assert first == pair
    with pytest.raises(CertificateFailed) as e:
        booleanization_iso(s, s)
    assert e.value.witness == ("induced-not-multiplicative", *pair)


def test_booleanization_iso_negative():
    assert booleanization_iso(corpus_semigroup("b2"), corpus_semigroup("z2zero")) is None


def test_booleanization_of_z2_is_z2zero():
    b = booleanize(corpus_semigroup("z2-group"))
    assert semigroup_iso(b.bs.base, corpus_semigroup("z2zero")) is not None


def test_booleanization_finite_skips_above_the_cap_before_the_groupoid(monkeypatch):
    # I4 has 83,135,918,096,825 local bisections: the count read off I4's own
    # domains and ranges refuses it, so booleanize never builds its
    # restricted groupoid (law carre, which runs first, builds it)
    def refused(s):
        raise AssertionError("restricted_groupoid ran")

    s = InvSgp(symmetric_inverse_table(4))
    with monkeypatch.context() as patch:
        patch.setattr(biskit.core, "restricted_groupoid", refused)
        with pytest.raises(TooLarge):
            booleanize(s)
    results = run_laws(s)
    (r,) = [r for r in results if r.key == "booleanization-finite"]
    assert (r.status, r.note) == (
        "skip",
        "TooLarge: local bisection count 83135918096825 above cap "
        "K_OF_GROUPOID_CAP=4096",
    )
