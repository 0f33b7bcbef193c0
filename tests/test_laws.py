import ast
import builtins
import importlib
import os
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import replace
from functools import cache, cached_property

import pytest

import biskit
import biskit.boolean
import biskit.core
import biskit.groupoid
import biskit.typemon
from biskit.boolean import as_boolean, check_boolean
from biskit.cli import build_report
from biskit.core import InvSgp
from biskit.corpus import (
    GROUPOID_BUILDERS,
    SEMIGROUP_BUILDERS,
    corpus_groupoid,
    corpus_semigroup,
    symmetric_inverse_table,
)
from biskit.errors import BiskitError, NotBoolean
from biskit.laws import (
    CONGRUENCE_SCAN_CAP,
    GROUPOID_LAWS,
    ROOK_ENUM_CAP,
    SEMIGROUP_LAWS,
    Analysis,
    _run_law,
    law_anja,
    law_idept_sep_kernel,
    law_toby,
    law_type_fundamental,
    law_universal_groupoid,
    run_laws,
)
from biskit.rook import rook_matrix
from test_rook import counted_validations
from unchecked import replaced, unchecked

# criterion names cmd_verify must be able to report individually
CORE_LAW_KEYS = (
    "l-and-r-order",
    "wedge",
    "fish",
    "oj",
    "buffs",
    "restricted-product",
    "eggs",
    "chicken",
    "pork",
    "orthogonal",
    "setminus-2",
    "setminus-4",
    "setminus-1-corrected",
    "setminus-5-corrected",
)


def test_core_law_keys_registered():
    assert len(CORE_LAW_KEYS) == 14
    registered = {key for key, _kind, _fn in SEMIGROUP_LAWS}
    assert set(CORE_LAW_KEYS) <= registered


def test_no_failures_on_semigroup_corpus():
    for name in SEMIGROUP_BUILDERS:
        results = run_laws(corpus_semigroup(name))
        fails = [(r.key, r.witness) for r in results if r.status == "fail"]
        assert fails == [], name


def test_no_failures_on_groupoid_corpus():
    for name in GROUPOID_BUILDERS:
        results = run_laws(corpus_groupoid(name))
        fails = [(r.key, r.witness) for r in results if r.status == "fail"]
        assert fails == [], name


def test_results_follow_registry_order():
    results = run_laws(corpus_semigroup("z2zero"))
    assert [r.key for r in results] == [key for key, _k, _f in SEMIGROUP_LAWS]
    results = run_laws(corpus_groupoid("conn2z2"))
    assert [r.key for r in results] == [key for key, _k, _f in GROUPOID_LAWS]


def test_core_laws_never_skip_on_boolean_corpus():
    # criterion-level keys must genuinely run wherever they apply
    from biskit.corpus import BOOLEAN_NAMES

    for name in BOOLEAN_NAMES:
        results = {r.key: r for r in run_laws(corpus_semigroup(name))}
        for key in CORE_LAW_KEYS:
            assert results[key].status == "pass", (name, key)


def test_zero_free_skips_are_labelled():
    results = {r.key: r for r in run_laws(corpus_semigroup("z2-group"))}
    assert results["oj"].status == "skip"
    assert results["oj"].note == "no zero"
    assert results["wedge"].status == "pass"


def test_selected_keys_only():
    results = [r for r in run_laws(corpus_semigroup("i2")) if r.key in ("wedge", "fish")]
    assert [r.key for r in results] == ["wedge", "fish"]
    assert all(r.status == "pass" for r in results)


def test_toby_reports_a_wrong_zero_simplifying_verdict():
    a = Analysis(corpus_semigroup("i2"))  # 0-simplifying
    assert law_toby(a) is None
    a.zero_simplifying = False
    witness = law_toby(a)
    assert isinstance(witness, tuple) and len(witness) == 2

    a = Analysis(corpus_semigroup("powerset2"))  # not 0-simplifying
    assert law_toby(a) is None
    a.zero_simplifying = True
    e, f = law_toby(a)
    assert e in a.s.idempotents and f in a.s.idempotents


def test_capped_skips_name_the_cap_and_the_size():
    s = corpus_semigroup("i2xz2zero")
    notes = {r.key: r.note for r in run_laws(s) if r.status == "skip"}
    caps = {
        "mu-separating": f"CONGRUENCE_SCAN_CAP={CONGRUENCE_SCAN_CAP}",
        "noise": f"CONGRUENCE_SCAN_CAP={CONGRUENCE_SCAN_CAP}",
        "ale": f"ROOK_ENUM_CAP={ROOK_ENUM_CAP}",
    }
    for key, cap in caps.items():
        assert notes[key].endswith(f"capped at {cap}, carrier has {s.size} elements")


def test_universal_groupoid_finds_an_unlisted_filter():
    a = Analysis(corpus_semigroup("chain3"))
    assert law_universal_groupoid(a) is None
    dropped, *kept = a.filters.proper
    a.filters = type(a.filters)(tuple(kept), a.filters.ultra)
    assert law_universal_groupoid(a) == (a.s.up[dropped],)


def test_run_laws_reports_a_zero_restricted_product_as_two_failures():
    # powerset2 (0, atoms 1 and 2, top 3) with 1*1 read as 0: d(1) = r(1)
    # = 0 on that table, so 1 * 1 is kept in the restricted groupoid and is
    # the zero
    s = corpus_semigroup("powerset2")
    s = unchecked(s, table=replaced(s.table, 1, 1, 0))
    results = run_laws(s)
    assert [r.key for r in results] == [key for key, _, _ in SEMIGROUP_LAWS]
    raised = ("raised", "CertificateFailed", "certificate failed: "
              "('restricted-product-zero', 1, 1)")
    by_key = {r.key: r for r in results}
    for key in ("carre", "booleanization-finite"):
        assert (by_key[key].status, by_key[key].witness) == ("fail", raised), key


def test_a_law_that_builds_a_broken_rook_matrix_fails():
    # two group elements in one row of z2zero have comparable domains: the
    # typed NotRook is a law failure, not a traceback out of verify
    c = Analysis(as_boolean(corpus_semigroup("z2zero")))
    got = _run_law("boolean", lambda c: rook_matrix(c.bs, [[1, 2], [0, 0]]), c)
    raised = ("raised", "NotRook", "rook condition fails: ('row', 0, 0, 1)")
    assert got == ("fail", raised, None)


def test_one_idempotent_ideal_scan_per_structure(monkeypatch):
    # the additive ideals and the ideal triple read the one scan Analysis holds
    import biskit.boolean
    import biskit.laws
    import biskit.typemon

    calls = []
    real = biskit.boolean.idempotent_ideals

    def counted(s):
        calls.append(s)
        return real(s)

    for module in (biskit.boolean, biskit.laws):
        monkeypatch.setattr(module, "idempotent_ideals", counted)
    results = run_laws(corpus_semigroup("i2"))
    assert [r.key for r in results if r.status == "fail"] == []
    assert len(calls) == 1


def test_one_ideal_closure_per_atom_component_set(monkeypatch):
    # law smallest runs one closure per set of atom components: i3's atoms
    # groupoid is connected, so the zero and the first nonzero idempotent
    # are closed, and no other element
    import biskit.boolean
    import biskit.laws

    calls = []
    real = biskit.boolean.ideal_closure

    def counted(bs, gens):
        calls.append(tuple(gens))
        return real(bs, gens)

    for module in (biskit.boolean, biskit.laws):
        monkeypatch.setattr(module, "ideal_closure", counted)
    s = corpus_semigroup("i3")
    results = run_laws(s)
    assert [r.key for r in results if r.status == "fail"] == []
    assert calls == [(s.zero,), (s.idempotents[1],)]


def test_k_of_i3_built_twice_per_structure(monkeypatch):
    # decompose builds K of the rebuilt atoms once and law main-finite reads
    # it; law finite decomposes that product once more
    import biskit.boolean

    built = []
    real = biskit.boolean.k_of_groupoid

    def counted(g, *args, **kwargs):
        kg = real(g, *args, **kwargs)
        built.append(kg.structure.size)
        return kg

    for module in list(sys.modules.values()):
        if module is not None and getattr(module, "__name__", "").startswith("biskit"):
            if getattr(module, "k_of_groupoid", None) is real:
                monkeypatch.setattr(module, "k_of_groupoid", counted)
    results = run_laws(corpus_semigroup("i3"))
    assert [r.key for r in results if r.status == "fail"] == []
    assert built == [34, 34]


def counted_groupoid_builds(monkeypatch):
    """(structures, groupoids): each BoolInvSgp whose atoms groupoid is
    built, and each Gpd whose component form is built, in build order."""
    structures, groupoids = [], []
    real = biskit.boolean.BoolInvSgp.atoms_groupoid.func

    def atoms_groupoid(bs):
        structures.append(bs)
        return real(bs)

    prop = cached_property(atoms_groupoid)
    prop.__set_name__(biskit.boolean.BoolInvSgp, "atoms_groupoid")
    monkeypatch.setattr(biskit.boolean.BoolInvSgp, "atoms_groupoid", prop)
    real_form = biskit.groupoid.component_form

    def component_form(g):
        groupoids.append(g)
        return real_form(g)

    monkeypatch.setattr(biskit.groupoid, "component_form", component_form)
    return structures, groupoids


def test_analyze_builds_the_atoms_groupoid_and_its_form_once(monkeypatch):
    # decompose and type_monoid read the one atoms groupoid of I4 and its
    # one component form
    structures, groupoids = counted_groupoid_builds(monkeypatch)
    build_report(InvSgp(symmetric_inverse_table(4)))
    assert len(structures) == 1
    assert groupoids == [structures[0].atoms_groupoid]


def test_verify_builds_two_atoms_groupoids_and_forms_on_i4(monkeypatch):
    # one for S, read by laws main-finite and the type monoid laws, and one
    # for the product law finite decomposes again
    structures, groupoids = counted_groupoid_builds(monkeypatch)
    s = InvSgp(symmetric_inverse_table(4))
    results = run_laws(s)
    assert [r.key for r in results if r.status == "fail"] == []
    assert len(structures) == 2 and structures[0].base is s
    assert groupoids == [bs.atoms_groupoid for bs in structures]


def test_groupoid_laws_build_the_input_form_once(monkeypatch):
    # laws connected-groupoids, bordeaux1 and local-bisections-rook, and
    # groupoid_iso, read g.form
    _structures, groupoids = counted_groupoid_builds(monkeypatch)
    for name in GROUPOID_BUILDERS:
        g = corpus_groupoid(name)
        results = run_laws(g)
        assert [r.key for r in results if r.status == "fail"] == [], name
        assert sum(x is g for x in groupoids) == 1, name


def counted_type_monoids(monkeypatch):
    """The structures type_monoid is called on, wherever biskit calls it."""
    calls = []
    real = biskit.typemon.type_monoid

    def counted(bs):
        calls.append(bs)
        return real(bs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("biskit") and (
            getattr(module, "type_monoid", None) is real
        ):
            monkeypatch.setattr(module, "type_monoid", counted)
    return calls


def test_fundamental_mu_quotient_is_not_checked_again(monkeypatch):
    # I4 is fundamental, so its mu quotient is the input: laws
    # idept-sep-kernel and type-fundamental read its one check_boolean
    # verdict and its one type monoid
    type_monoids = counted_type_monoids(monkeypatch)
    s = InvSgp(symmetric_inverse_table(4))
    with counted_validations() as counts:
        results = run_laws(s)
    assert [r.key for r in results if r.status == "fail"] == []
    assert counts["check_boolean"] == 3
    assert len(type_monoids) == 1


def test_verify_builds_one_k_table_on_i4(monkeypatch):
    # decompose checks its map on columns of K; only law finite reads the
    # product, so K's table is built once
    built = []
    real = biskit.boolean.KOfGroupoid.table.func

    def counted(kg):
        built.append(len(kg.bisections))
        return real(kg)

    monkeypatch.setattr(biskit.boolean.KOfGroupoid, "table", property(counted))
    run_laws(InvSgp(symmetric_inverse_table(4)))
    assert built == [209]


def test_non_fundamental_mu_quotient_is_checked(monkeypatch):
    # the quotient of i2 x z2zero by mu is a smaller table, checked once by
    # law idept-sep-kernel and given its own type monoid by type-fundamental
    c = Analysis(corpus_semigroup("i2xz2zero"))
    c.tm, c.eps_projections
    assert c.mu.quotient.size < c.s.size
    type_monoids = counted_type_monoids(monkeypatch)
    with counted_validations() as counts:
        assert law_idept_sep_kernel(c) is None
    assert counts["check_boolean"] == 1
    assert law_type_fundamental(c) is None
    assert [t.base for t in type_monoids] == [c.mu.quotient]


@pytest.mark.parametrize("name", [*SEMIGROUP_BUILDERS, "i4"])
def test_each_congruence_result_is_built_once(name, monkeypatch):
    # laws mu-separating and noise read one congruence scan; laws
    # idept-sep-kernel and type-fundamental read one check_boolean and one
    # type monoid of the mu quotient, the input's own when it is fundamental
    builders = (
        (biskit.core, "all_congruences"),
        (biskit.boolean, "check_boolean"),
        (biskit.typemon, "type_monoid"),
    )
    args = {}  # builder name -> the structure of each call, held so no id is reused
    for module, fn in builders:
        real, seen = getattr(module, fn), args.setdefault(fn, [])

        def counted(s, real=real, seen=seen):
            seen.append(s)
            return real(s)

        for holder in list(sys.modules.values()):
            if getattr(holder, "__name__", "").startswith("biskit") and (
                getattr(holder, fn, None) is real
            ):
                monkeypatch.setattr(holder, fn, counted)
    s = InvSgp(symmetric_inverse_table(4)) if name == "i4" else corpus_semigroup(name)
    results = run_laws(s)
    assert [r.key for r in results if r.status == "fail"] == []
    repeats = {fn: len(seen) - len(set(map(id, seen))) for fn, seen in args.items()}
    assert repeats == {"all_congruences": 0, "check_boolean": 0, "type_monoid": 0}


def test_one_certificate_per_map(monkeypatch):
    # run_laws on I4 checks two maps: the identity (the projection onto the
    # quotient by {0}) and the projection onto the quotient by everything.
    # epsilon_quotient decides each once; laws anja, idept-sep-kernel and
    # factorization read those certificates
    calls = Counter()
    for name in ("is_additive_morphism", "is_weakly_meet_preserving"):
        real = getattr(biskit.boolean, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("biskit") and (
                getattr(module, name, None) is real
            ):
                monkeypatch.setattr(module, name, counted)
    results = run_laws(InvSgp(symmetric_inverse_table(4)))
    assert [r.key for r in results if r.status == "fail"] == []
    assert calls == {"is_additive_morphism": 2, "is_weakly_meet_preserving": 2}


def test_one_ideal_certificate_per_carrier(monkeypatch):
    # run_laws on I4 meets two additive ideals, {0} and everything, in
    # ideal_closure, enumerate_additive_ideals, epsilon_quotient and
    # analyze_morphism: each carrier is verified once
    carriers = []
    real = biskit.boolean.verify_additive_ideal

    def counted(bs, subset):
        carriers.append(frozenset(subset))
        return real(bs, subset)

    monkeypatch.setattr(biskit.boolean, "verify_additive_ideal", counted)
    s = InvSgp(symmetric_inverse_table(4))
    results = run_laws(s)
    assert [r.key for r in results if r.status == "fail"] == []
    assert sorted(map(len, carriers)) == [1, s.size]


def forced_report(bs, mp, target=None):
    """Analysis of bs whose one epsilon projection, for the ideal {0}, maps
    onto target (bs itself by default) by mp, its cached
    weakly-meet-preserving verdict forced to True."""
    c = Analysis(bs)
    target = target or bs
    proj = biskit.boolean.Morphism(bs, target, mp)
    proj.__dict__["weakly_meet_preserving"] = True
    c.eps_projections = [(frozenset({bs.zero}), proj)]
    return c


def powerset2_without_a_meet():
    """powerset2 with the meet of its atoms 1 and 2 read as undefined."""
    bs = check_boolean(corpus_semigroup("powerset2")).structure
    meets = replaced(bs.base.meet_table, 1, 2, None)
    return unchecked(bs, base=unchecked(bs.base, meet_table=meets))


def test_anja_decides_without_the_cached_verdict(monkeypatch):
    # powerset2 is 0, atoms 1 and 2, top 3.  Sending both atoms to the top
    # is monotone and takes 1 meet 2 = 0 to 0, not to 3 meet 3 = 3
    bs = check_boolean(corpus_semigroup("powerset2")).structure
    calls = []
    real = biskit.laws.is_weakly_meet_preserving

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(biskit.laws, "is_weakly_meet_preserving", counted)
    assert law_anja(forced_report(bs, (0, 1, 2, 3))) is None
    assert law_anja(forced_report(bs, (0, 3, 3, 3))) == ((0,),)
    assert calls == []
    # 1 <= 3 but 3 <= 1 fails: not monotone, so the verdict is computed
    # afresh, and the lower bounds of p(1) = p(2) = 3 do not lift below p(0)
    assert law_anja(forced_report(bs, (0, 3, 3, 1))) == ((0,),)
    assert calls == [(0, 3, 3, 1)]
    # an undefined meet in the source or the target table: decided afresh
    identity = (0, 1, 2, 3)
    assert law_anja(forced_report(powerset2_without_a_meet(), identity)) is None
    assert law_anja(forced_report(bs, identity, powerset2_without_a_meet())) is None
    assert calls == [(0, 3, 3, 1), identity, identity]


def test_idept_sep_kernel_fails_on_a_mu_quotient_that_is_not_boolean():
    # law type-fundamental reads the same verdict, and raises its failure
    c = Analysis(corpus_semigroup("i2xz2zero"))
    chain = corpus_semigroup("chain3")
    c.mu = replace(c.mu, quotient=chain)
    failure = check_boolean(chain).failure
    assert failure is not None
    assert law_idept_sep_kernel(c) == ("mu-quotient-not-boolean", failure)
    with pytest.raises(NotBoolean) as info:
        law_type_fundamental(c)
    assert info.value.witness == failure


def test_run_laws_times_each_law():
    results = run_laws(corpus_semigroup("i2"))
    assert all(isinstance(r.seconds, float) and r.seconds >= 0 for r in results)


def test_certificates_hold_under_python_O():
    # with asserts stripped, a decomposition onto swapped coordinates, a rebuilt
    # map that does not carry the atoms, singleton values that do not join
    # orthogonally, a filter product missing from the list and a groupoid map
    # that induces no table isomorphism must be refused; so must a wrong
    # relative complement fail law orthogonal, and a quotient projection that is
    # not weakly meet preserving, a pencil range not below f (read by law toby),
    # a closure that is not an ideal, a morphism kernel that is not an ideal, an
    # atom product that is not an atom, non-orthogonal rook terms, type vectors
    # that do not separate the idempotent classes, a Booleanization embedding
    # that is not injective, a K(G) table that is not Boolean, a direct product
    # that is not Boolean and a mu relation that is not a congruence must still
    # be refused
    code = textwrap.dedent(
        """
        import biskit.boolean as boolean
        from biskit.corpus import corpus_semigroup
        from biskit.errors import CertificateFailed
        from biskit.laws import run_laws

        print("debug", __debug__)
        from dataclasses import replace
        import biskit.booleanization as booleanization
        import biskit.rook as rook
        real_coordinatize = rook.coordinatize

        def swapped(g):  # two atoms sent to each other's rebuilt arrows
            c = real_coordinatize(g)
            r = list(c.rebuilt)
            r[0], r[1] = r[1], r[0]
            return replace(c, rebuilt=tuple(r))

        m2 = boolean.check_boolean(corpus_semigroup("m2z2zero")).structure
        rook.coordinatize = swapped
        try:
            rook.decompose(m2)
        except CertificateFailed as e:
            print("decompose", e.witness[0])
        rook.coordinatize = real_coordinatize
        cert = rook.decompose(m2)
        g = cert.atoms
        i = g.identities[0]
        j = next(x for x in range(g.size) if g.d[x] != g.r[x])
        r = list(cert.rebuilt)
        r[i], r[j] = r[j], r[i]
        try:
            rook.theta_iso(m2, replace(cert, rebuilt=tuple(r)))
        except CertificateFailed as e:
            print("theta", e.witness[0])
        p2 = corpus_semigroup("powerset2")
        bp2 = booleanization.booleanize(p2)
        target = boolean.check_boolean(bp2.bs.base).structure
        target.rc = lambda x, y: x  # singleton values are read as alpha's
        try:
            booleanization.gamma_extension(bp2, bp2.beta, target)
        except CertificateFailed as e:
            print("gamma", e.witness[0])
        i2s = corpus_semigroup("i2")
        proper = booleanization.enumerate_filters(i2s).proper
        try:
            booleanization.filter_groupoid(i2s, proper[1:])
        except CertificateFailed as e:
            print("filter-groupoid", e.witness[0])
        real_iso = booleanization.groupoid_iso

        def moved(g, h):  # the found map with its first two arrows swapped
            m = list(real_iso(g, h))
            m[0], m[1] = m[1], m[0]
            return tuple(m)

        booleanization.groupoid_iso = moved
        z2zero = corpus_semigroup("z2zero")
        try:
            booleanization.booleanization_iso(z2zero, z2zero)
        except CertificateFailed as e:
            print("booleanization-iso", e.witness[0])
        booleanization.groupoid_iso = real_iso
        bs = boolean.check_boolean(corpus_semigroup("i2")).structure
        rc = bs.rc_table  # x minus y read as x wherever it is defined
        bs.rc_table = tuple(
            tuple(w if w is None else x for w in row) for x, row in enumerate(rc)
        )
        (result,) = [r for r in run_laws(bs) if r.key == "orthogonal"]
        print(result.status, result.witness[1])
        # a fresh i2: the laws above have kept the carriers of its ideals
        bs = boolean.check_boolean(corpus_semigroup("i2")).structure
        z2 = boolean.check_boolean(corpus_semigroup("z2zero")).structure
        boolean.is_weakly_meet_preserving = lambda source, target, mp: False
        try:
            boolean.epsilon_quotient(z2, [z2.zero])
        except CertificateFailed as e:
            print("epsilon", e.witness[0])
        from biskit.laws import Analysis, law_toby
        i2 = boolean.check_boolean(corpus_semigroup("i2")).structure
        i2.base.up = tuple(() for _ in range(i2.size))  # no r(x) <= f
        try:
            law_toby(Analysis(i2))
        except CertificateFailed as e:
            print("pencil", e.witness[0])
        boolean.verify_additive_ideal = lambda bs, subset: ("left-ideal", 0, 1)
        try:
            boolean.ideal_closure(bs, [1])
        except CertificateFailed as e:
            print("closure", e.witness[0])
        try:  # the identity's kernel {0} now reads as not an ideal
            ident = boolean.Morphism(bs, bs, tuple(range(bs.size)))
            boolean.analyze_morphism(ident, None)  # refused before eps is read
        except CertificateFailed as e:
            print("morphism", e.witness[0])

        import biskit.rook as rook
        from biskit.groupoid import Gpd
        sub = boolean.check_boolean(corpus_semigroup("i2")).structure
        sub.base.atoms = sub.base.atoms[1:]  # one atom is missing
        try:
            sub.atoms_groupoid
        except CertificateFailed as e:
            print("atoms", e.witness[0])
        pset = boolean.check_boolean(corpus_semigroup("powerset2")).structure
        e1, e2 = pset.base.atoms
        a = rook.rook_matrix(pset, [[e1, e2], [0, 0]])
        b = rook.rook_matrix(pset, [[e1, 0], [e2, 0]])
        pset.base.orth = [[False] * pset.size for _ in range(pset.size)]
        try:
            rook.rook_mul(a, b)  # entry (0, 0) joins e1 and e2
        except CertificateFailed as e:
            print("rook", e.witness[0])
        import biskit.typemon as typemon
        typemon.d_relation_idempotents = lambda s: [[e] for e in s.idempotents]
        try:  # i2's two atomic idempotents now sit in different classes
            typemon.type_monoid(boolean.check_boolean(corpus_semigroup("i2")).structure)
        except CertificateFailed as e:
            print("type", e.witness[0])
        real_k = booleanization.k_of_groupoid

        def one_id(g):  # every down-set is read as the empty bisection
            kg = real_k(g)
            return replace(kg, index=dict.fromkeys(kg.index, 0))

        booleanization.k_of_groupoid = one_id
        try:
            booleanization.booleanize(corpus_semigroup("powerset2"))
        except CertificateFailed as e:
            print("booleanize", e.witness[0])
        real = boolean.check_boolean
        boolean.check_boolean = lambda s: replace(real(s), boolean=False)
        try:
            boolean.k_of_groupoid(Gpd([[0]])).structure
        except CertificateFailed as e:
            print("k", e.witness[0])
        try:
            boolean.direct_product(z2, z2)
        except CertificateFailed as e:
            print("product", e.witness[0])
        import biskit.core as core
        core.check_congruence = lambda s, cong: (0, 1, 0, "left")
        try:
            core.mu_and_quotient(corpus_semigroup("i2"))
        except CertificateFailed as e:
            print("mu", e.witness[0])
        from biskit.laws import law_anja
        # a projection sending both atoms to the top, its cached verdict
        # forced to True
        top = pset.top
        proj = boolean.Morphism(pset, pset, (0, top, top, top))
        proj.__dict__["weakly_meet_preserving"] = True
        a = Analysis(pset)
        a.eps_projections = [(frozenset({0}), proj)]
        print("anja", law_anja(a))

        def exchanged(g):  # i2's arrows between its two identities exchanged,
            c = real_coordinatize(g)  # a bijection onto K, not multiplicative
            r = c.rebuilt
            return replace(c, rebuilt=(r[0], r[2], r[1], r[3]))

        rook.coordinatize = exchanged
        try:
            rook.decompose(boolean.check_boolean(corpus_semigroup("i2")).structure)
        except CertificateFailed as e:
            print("decompose-generators", e.witness[0])
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(biskit.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    ).stdout
    assert out.split("\n")[:18] == [
        "debug False",
        "decompose decomposition-not-iso",
        "theta atoms-not-carried",
        "gamma singletons-not-orthogonal",
        "filter-groupoid filter-product-not-listed",
        "booleanization-iso induced-not-multiplicative",
        "fail CertificateFailed",
        "epsilon projection-not-weakly-meet-preserving",
        "pencil pencil-range-not-below",
        "closure closure-not-an-ideal",
        "morphism kernel-not-an-ideal",
        "atoms atom-product-not-atom",
        "rook terms-not-orthogonal",
        "type types-do-not-separate-classes",
        "booleanize beta-not-injective",
        "k bisections-not-boolean",
        "product product-not-boolean",
        "mu mu-not-a-congruence",
    ]
    # and law anja must refuse a projection that does not preserve meets
    assert out.split("\n")[18] == "anja ((0,),)"
    assert out.split("\n")[19] == "decompose-generators decomposition-not-iso"


def unused_imports(tree):
    """The names a module's top-level imports bind and the module never
    reads, `from __future__ import annotations` aside."""
    bound = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name != "annotations"
    }
    return sorted(bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})


def parameter_names(tree):
    """Every parameter name of the module's functions: pytest reads one as
    the fixture of that name, and hypothesis fills one by keyword."""
    return {n.arg for n in ast.walk(tree) if isinstance(n, ast.arg)}


def names_read(trees):
    """Every name the trees read: as a name, an attribute or an imported
    name."""
    used = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
            elif isinstance(n, ast.alias):
                used.add(n.name)
    return used


def unreferenced_private_defs(trees):
    """(module, name) of each top-level function or class named _name that
    no module reads."""
    used = names_read(trees.values())
    return [
        (name, n.name)
        for name, tree in trees.items()
        for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.ClassDef))
        and n.name.startswith("_")
        and not n.name.startswith("__")
        and n.name not in used
    ]


def unreferenced_methods(trees, readers):
    """(module, class, name) of each non-dunder method of a class in trees
    whose name no tree in readers reads."""
    used = names_read(readers)
    return [
        (name, cls.name, f.name)
        for name, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for f in cls.body
        if isinstance(f, ast.FunctionDef)
        and not f.name.startswith("__")
        and f.name not in used
    ]


@cache
def parsed_modules(directory):
    """The parsed .py files of directory by file name, parsed once and
    shared by every AST check, which only reads them."""
    trees = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name)) as fh:
                trees[name] = ast.parse(fh.read(), name)
    return trees


def test_src_has_no_assert_statements():
    # a certificate behind an assert is skipped under python -O; an unused
    # import is left behind by deleted code (__init__.py imports to
    # re-export), in src/ or in tests/ (where a name read as a parameter
    # counts as read), and so is a private helper no module reads any more,
    # or a method nothing in src/ or tests/ calls
    trees = parsed_modules(os.path.dirname(os.path.abspath(biskit.__file__)))
    found = []
    for name, tree in trees.items():
        found += [(name, n.lineno) for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        if name != "__init__.py":
            found += [(name, unused) for unused in unused_imports(tree)]
    tests = parsed_modules(os.path.dirname(os.path.abspath(__file__)))
    for name, tree in tests.items():
        read = parameter_names(tree)
        found += [("tests/" + name, u) for u in unused_imports(tree) if u not in read]
    readers = [*trees.values(), *tests.values()]
    assert found + unreferenced_private_defs(trees) == []
    assert unreferenced_methods(trees, readers) == []


# the raises in src/ of no BiskitError subclass, each with why it stays
SKIP = "a law's skip, which _run_law catches first; it is no error"
UNTYPED_RAISES = {
    ("laws.py", "_applicable", "ValueError"): "an unknown registry kind, a bug in biskit",
    ("laws.py", "_skip_above", "_Skip"): SKIP,
    ("laws.py", "glaw_local_bisections_rook", "_Skip"): SKIP,
}


def raised_names(tree):
    """(enclosing function, name) of each raise of a name or a call of one,
    and (function, None) of each bare re-raise."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.append((function, exc if exc is None else exc.id))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_src_raises_only_typed_errors():
    # a caller catches BiskitError, as _run_law and the CLI do, so any other
    # error escapes them as a traceback
    untyped = set()
    src = os.path.dirname(os.path.abspath(biskit.__file__))
    for name, tree in parsed_modules(src).items():
        stem = name.removesuffix(".py")
        module = biskit if stem == "__init__" else importlib.import_module(f"biskit.{stem}")
        for function, exc in raised_names(tree):
            if exc is None:
                continue
            cls = getattr(module, exc, None) or getattr(builtins, exc)
            if not issubclass(cls, BiskitError):
                untyped.add((name, function, exc))
    assert untyped == set(UNTYPED_RAISES)


def test_src_builds_rook_matrices_only_behind_the_rook_test():
    # rook._checked and rook.rook_matrices build a RookMatrix only from
    # entries that have just passed rook_violation; RookMatrix read anywhere
    # else in src/, called or handed on, could build one that skipped it
    src = os.path.dirname(os.path.abspath(biskit.__file__))
    found = set()

    def visit(node, name, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if getattr(node, "id", getattr(node, "attr", None)) == "RookMatrix":
            found.add((name, function))
        for child in ast.iter_child_nodes(node):
            visit(child, name, function)

    for name, tree in parsed_modules(src).items():
        visit(tree, name, None)
    assert found == {("rook.py", "_checked"), ("rook.py", "rook_matrices")}


# the functions in src/ named *_by_rows, each with why it stays: a kernel
# is written once, reading its views through its form's gather, and its
# row-by-row twin lives in tests/row_kernels.py as the oracle
BY_ROWS_KEPT = {
    ("laws.py", "_joins_are_unions_by_rows"): (
        "B3 without premise D, and in the tuple form: a row U(x, .) holds None,"
        " which no tuple gather can index through"
    ),
}


def test_src_keeps_only_the_listed_by_rows_twins():
    # a second copy of a kernel for larger tables drifts from the first
    src = os.path.dirname(os.path.abspath(biskit.__file__))
    found = {
        (name, n.name)
        for name, tree in parsed_modules(src).items()
        for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name.endswith("_by_rows")
    }
    assert found == set(BY_ROWS_KEPT)


def unread_functions(trees, readers):
    """(module, name) of each function or method defined in trees, dunders
    and the cmd_* handlers cli.main looks up by name aside, that no tree in
    readers reads outside its own def: a function as a name or an imported
    name, a method as an attribute."""
    reads = set()  # (tree key, line, read as an attribute, name)
    for key, tree in readers.items():
        for n in ast.walk(tree):
            if isinstance(n, ast.alias):
                reads.add((key, n.lineno, False, n.name))
            elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.add((key, n.lineno, False, n.id))
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                reads.add((key, n.lineno, True, n.attr))
    unread = []
    for key, tree in trees.items():
        classes = [c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]
        methods = {id(f) for c in classes for f in c.body}
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef) or f.name.startswith(("__", "cmd_")):
                continue
            own = range(f.lineno, f.end_lineno + 1)
            if not any(
                (name, attr) == (f.name, id(f) in methods)
                and not (where == key and line in own)
                for where, line, attr, name in reads
            ):
                unread.append((key[1], f.name))
    return unread


def repo_trees():
    """The parsed modules of src/, tests/ and bench/, keyed by directory and
    then by (directory, file name)."""
    here = os.path.dirname(os.path.abspath(__file__))
    dirs = {
        "src": os.path.dirname(os.path.abspath(biskit.__file__)),
        "tests": here,
        "bench": os.path.join(os.path.dirname(here), "bench"),
    }
    return {
        d: {(d, name): tree for name, tree in parsed_modules(path).items()}
        for d, path in dirs.items()
    }


def test_every_function_in_src_is_read():
    # a function or method nothing calls is left behind by deleted code
    trees = repo_trees()
    readers = {**trees["src"], **trees["tests"], **trees["bench"]}
    assert unread_functions(trees["src"], readers) == []


def _dataclass_fields(c):
    """The annotated fields of class node c when a @dataclass decorates it,
    else None."""
    called = [getattr(d, "func", d) for d in c.decorator_list]
    if "dataclass" not in {getattr(d, "id", None) for d in called}:
        return None
    return [f for f in c.body if isinstance(f, ast.AnnAssign)]


def unread_fields(trees, readers, exempt):
    """(module, class, field) of each field of a @dataclass class defined in
    trees, the classes named in exempt aside, that no tree in readers reads
    as an attribute."""
    read = {
        n.attr
        for tree in readers.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    unread = []
    for key, tree in trees.items():
        for c in ast.walk(tree):
            if not isinstance(c, ast.ClassDef) or (key[1], c.name) in exempt:
                continue
            for f in _dataclass_fields(c) or ():
                if f.target.id not in read:
                    unread.append((key[1], c.name, f.target.id))
    return unread


def one_field_dataclasses(trees):
    """(module, class) of each @dataclass class in trees with exactly one
    field."""
    return [
        (key[1], c.name)
        for key, tree in trees.items()
        for c in ast.walk(tree)
        if isinstance(c, ast.ClassDef) and len(_dataclass_fields(c) or ()) == 1
    ]


def test_every_dataclass_field_in_src_is_read():
    # a field nothing reads holds a result no reader wants; the report
    # classes are read whole, by asdict
    trees = repo_trees()
    readers = {**trees["src"], **trees["tests"], **trees["bench"]}
    exempt = {("cli.py", "Report"), ("laws.py", "LawResult")}
    assert unread_fields(trees["src"], readers, exempt) == []


def test_unread_fields_finds_each_form():
    source = textwrap.dedent(
        """
        from dataclasses import dataclass

        @dataclass
        class A:
            read: int
            unread: int

        @dataclass(frozen=True)
        class B:
            unread: int

        class Plain:
            unread: int

        def f(a):
            return a.read
        """
    )
    trees = {("src", "m.py"): ast.parse(source)}
    found = unread_fields(trees, trees, set())
    assert found == [("m.py", "A", "unread"), ("m.py", "B", "unread")]
    assert unread_fields(trees, trees, {("m.py", "B")}) == [("m.py", "A", "unread")]
    assert one_field_dataclasses(trees) == [("m.py", "B")]


def test_no_dataclass_in_src_has_one_field():
    # a one-field dataclass wraps a value its builder can return itself
    assert one_field_dataclasses(repo_trees()["src"]) == []


def _is_none_test(test, names):
    """(name, True) for `name is None`, (name, False) for `name is not
    None`, name in names; None for any other test."""
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Is, ast.IsNot))
        and isinstance(test.left, ast.Name)
        and test.left.id in names
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        return test.left.id, isinstance(test.ops[0], ast.Is)
    return None


def recomputed_defaults(trees):
    """(module, function, parameter) for each parameter defaulting to None
    that its function replaces, when it is None, by a call to a function or
    class defined in trees: `if p is None: p = f(...)`, or `p if p is not
    None else f(...)` (either way round)."""
    defined = {
        n.name
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.ClassDef))
    }

    def calls_defined(nodes):
        return any(
            isinstance(n, ast.Call)
            and getattr(n.func, "id", getattr(n.func, "attr", None)) in defined
            for node in nodes
            for n in ast.walk(node)
        )

    found = []
    for key, tree in trees.items():
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef):
                continue
            a = f.args
            positional = [*a.posonlyargs, *a.args]
            pairs = [*zip(positional[len(positional) - len(a.defaults):], a.defaults)]
            pairs += [(p, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            nones = {
                p.arg
                for p, d in pairs
                if isinstance(d, ast.Constant) and d.value is None
            }
            for n in ast.walk(f):
                if not isinstance(n, (ast.If, ast.IfExp)):
                    continue
                hit = _is_none_test(n.test, nones)
                if hit is None:
                    continue
                name, is_none = hit
                branch = n.body if is_none else n.orelse
                if calls_defined(branch if isinstance(branch, list) else [branch]):
                    found.append((key, f.name, name))
    return sorted(set(found))


def test_no_parameter_is_computed_unless_passed_in():
    # a derived input is computed in one place (laws.Analysis) and passed
    # on as a required argument, not rebuilt by a default of None
    trees = parsed_modules(os.path.dirname(os.path.abspath(biskit.__file__)))
    assert recomputed_defaults(trees) == []


def test_recomputed_defaults_finds_each_form():
    source = textwrap.dedent(
        """
        def build(s):
            return s

        def a(s, x=None):
            if x is None:
                x = build(s)
            return x

        def b(s, *, x=None):
            return x if x is not None else build(s)

        def c(s, x=None):
            return build(s) if x is None else x

        def kept(s, labels=None, keys=None, timings=None):
            labels = labels if labels is not None else tuple(range(s))
            if keys is not None and s not in keys:
                return None
            if timings is not None:
                timings["s"] = s
            return labels
        """
    )
    found = recomputed_defaults({"m.py": ast.parse(source)})
    assert found == [("m.py", "a", "x"), ("m.py", "b", "x"), ("m.py", "c", "x")]
