"""The ten acceptance checks, one test per criterion.

Each run prints a one-line PASS/FAIL verdict per criterion (see conftest).
"""

import itertools
import time

from biskit.boolean import (
    check_boolean,
    epsilon_quotient,
    is_additive_morphism,
    is_weakly_meet_preserving,
)
from biskit.booleanization import (
    FILTER_SCAN_CAP,
    booleanization_iso,
    booleanize,
    enumerate_filters,
    filter_groupoid,
    gamma_extension,
)
from biskit.cli import main
from biskit.core import all_congruences, semigroup_iso
from biskit.corpus import (
    BOOLEAN_NAMES,
    SEMIGROUP_BUILDERS,
    corpus_semigroup,
    corpus_text,
)
from biskit.groupoid import Gpd, groupoid_iso
from biskit.laws import Analysis, _is_additive_congruence, run_laws
from biskit.rook import build_Mn_G0, decompose, theta_iso
from biskit.typemon import (
    ideal_triple,
    mu_type_invariance,
    refinement_check,
    type_monoid,
    type_via_matrices,
)
from corpus_structures import boolean, fresh_boolean
from naive_order import leq
from test_laws import CORE_LAW_KEYS

THETA_NAMES = ("i2", "i3", "z2zero", "z3zero", "powerset2", "i2xz2zero", "m2z2zero")


def test_criterion_01_theta_duality():
    for name in THETA_NAMES:
        bs = fresh_boolean(name)  # timed
        t0 = time.monotonic()
        th = theta_iso(bs, decompose(bs))
        elapsed = time.monotonic() - t0
        k = th.target.structure.base
        assert sorted(th.iso) == list(range(bs.size)), name
        for a in range(bs.size):
            for b in range(bs.size):
                assert th.iso[bs.base.table[a][b]] == k.table[th.iso[a]][th.iso[b]]
        assert is_additive_morphism(bs, th.target.structure, th.iso), name
        if name == "i3":
            assert elapsed < 5.0, elapsed


def test_criterion_02_decomposition():
    cert = decompose(boolean("i2"))
    assert cert.signature == ((2, 1, "trivial"),)

    s = corpus_semigroup("m2z2zero")
    assert s.size == 17
    cert = decompose(boolean("m2z2zero"))
    assert cert.signature == ((2, 2, "Z2"),)

    # rebuild each from its signature alone and compare up to isomorphism
    rebuilt = build_Mn_G0(2, Gpd([[0]])).structure.base
    assert semigroup_iso(rebuilt, corpus_semigroup("i2")) is not None
    rebuilt = build_Mn_G0(2, Gpd([[0, 1], [1, 0]])).structure.base
    assert semigroup_iso(rebuilt, s) is not None


def test_criterion_03_booleanization_universal_property():
    b2 = corpus_semigroup("b2")
    i2 = corpus_semigroup("i2")
    bb2 = booleanize(b2)
    assert bb2.bs.size == 7
    assert semigroup_iso(bb2.bs.base, i2) is not None
    assert booleanize(corpus_semigroup("chain3")).bs.size == 4
    bz2 = booleanize(corpus_semigroup("z2-group"))
    assert semigroup_iso(bz2.bs.base, corpus_semigroup("z2zero")) is not None

    # complete enumeration of homomorphisms b2 -> i2: 7^5 candidate maps,
    # kept when multiplicative and zero-preserving
    target = boolean("i2")
    alphas = []
    for mp in itertools.product(range(7), repeat=5):
        if mp[0] != 0:
            continue
        if all(
            mp[b2.table[a][b]] == i2.table[mp[a]][mp[b]]
            for a in range(5)
            for b in range(5)
        ):
            alphas.append(mp)
    assert len(alphas) > 1
    for alpha in alphas:
        g = gamma_extension(bb2, alpha, target)
        for x in range(5):
            assert g.map[bb2.beta[x]] == alpha[x]
        assert is_additive_morphism(bb2.bs, target, g.map)


def test_criterion_04_iso_criterion():
    chain3 = corpus_semigroup("chain3")
    antichain3 = corpus_semigroup("antichain3")
    assert booleanization_iso(chain3, antichain3) is not None
    direct = semigroup_iso(
        booleanize(chain3).bs.base, booleanize(antichain3).bs.base
    )
    assert direct is not None
    assert booleanization_iso(corpus_semigroup("b2"), corpus_semigroup("z2zero")) is None


def test_criterion_05_filters():
    for name in SEMIGROUP_BUILDERS:
        s = corpus_semigroup(name)
        fr = enumerate_filters(s)
        [law] = [r for r in run_laws(s) if r.key == "universal-groupoid"]
        if s.size <= FILTER_SCAN_CAP:
            assert law.status == "pass", name
        else:
            assert law.status == "skip", name
            assert f"FILTER_SCAN_CAP={FILTER_SCAN_CAP}" in law.note, name
            assert f"carrier has {s.size} elements" in law.note, name
        assert fr.proper == s.nonzero(), name
        if name in BOOLEAN_NAMES:
            bs = boolean(name)
            assert len(fr.ultra) == len(s.atoms), name
            fg = filter_groupoid(s, fr.ultra)
            assert groupoid_iso(fg, bs.atoms_groupoid) is not None, name


def test_criterion_06_ideal_congruence_machinery():
    for name in BOOLEAN_NAMES:
        bs = boolean(name)
        s = bs.base
        ideals = Analysis(bs).ideals
        congs = list(all_congruences(s)) if s.size <= 9 else None
        for ideal in ideals:
            proj = epsilon_quotient(bs, ideal)
            kernel = frozenset(
                x for x in range(s.size) if proj.map[x] == proj.target.base.zero
            )
            assert kernel == ideal, name
            assert check_boolean(proj.target.base).boolean, name
            assert is_weakly_meet_preserving(bs, proj.target, proj.map), name
            if congs is None:
                continue
            eps = proj.map
            for cls in congs:
                kern = frozenset(
                    x for x in range(s.size) if cls[x] == cls[s.zero]
                )
                if kern != ideal or not _is_additive_congruence(s, cls):
                    continue
                for x in range(s.size):
                    for y in range(s.size):
                        if eps[x] == eps[y]:
                            assert cls[x] == cls[y], (name, x, y)


def test_criterion_07_law_suite():
    assert len(CORE_LAW_KEYS) == 14
    for name in SEMIGROUP_BUILDERS:
        results = [r for r in run_laws(corpus_semigroup(name)) if r.key in CORE_LAW_KEYS]
        assert len(results) == len(CORE_LAW_KEYS), name
        failed = [r.key for r in results if r.status == "fail"]
        assert failed == [], (name, failed)


def test_criterion_08_type_monoid():
    assert type_monoid(boolean("i2")).rank == 1
    assert type_monoid(boolean("z2zero")).rank == 1
    prod = boolean("i2xz2zero")
    tm = type_monoid(prod)
    assert tm.rank == 2
    pair_of_identities = 1 * 7 + 5
    assert tm.tau[pair_of_identities] == (2, 1)
    for name in BOOLEAN_NAMES:
        bs = boolean(name)
        # the count-vector laws are asserted during construction
        a = Analysis(bs)
        assert refinement_check(a.tm), name
        assert ideal_triple(bs, a.tm, a.ideals, a.idem_ideals).matched, name
        assert mu_type_invariance(bs, a.tm, a.mu, a.mu_tm), name
    for name in ("i2", "z2zero", "i2xz2zero"):
        bs = boolean(name)
        mo = type_via_matrices(bs, type_monoid(bs))
        assert mo.partition_agrees, name
        assert mo.witnesses_verified, name
        assert mo.separation_ok, name


def test_criterion_09_atoms_semisimple():
    for name in BOOLEAN_NAMES:
        bs = boolean(name)
        s = bs.base
        atoms = set(s.atoms)
        assert atoms or s.size == 1, name
        for a in range(s.size):
            if a == s.zero:
                continue
            below = [x for x in atoms if leq(s, x, a)]
            assert below, (name, a)
            assert s.join_of(below) == a, (name, a)


def test_criterion_10_mutation_robustness(tmp_path):
    text = corpus_text("i2.ist")
    rows = [
        ln for ln in text.splitlines() if ln and not ln.startswith(("#", "n "))
    ]
    base = [ln.split() for ln in rows]
    assert len(base) == 7

    t0 = time.monotonic()
    detected = 0
    for i, j in itertools.product(range(7), repeat=2):
        tab = [list(r) for r in base]
        tab[i][j] = str((int(tab[i][j]) + 1) % 7)
        path = tmp_path / f"mut_{i}_{j}.ist"
        path.write_text("n 7\n" + "\n".join(" ".join(r) for r in tab) + "\n")
        if main(["verify", str(path)]) == 1:
            detected += 1
    elapsed = time.monotonic() - t0
    assert detected == 49
    assert elapsed < 10.0, elapsed
