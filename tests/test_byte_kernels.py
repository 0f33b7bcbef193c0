"""The kernels that read views, in both forms, against the row oracles.

Every table gets a view of its product table (InvSgp.view), made by the
one builder core._view, and so do its meet table (InvSgp.meet_view), its
join table on the compatible partners (InvSgp.join_view) and, when
Boolean, its relative complements on the down-sets (BoolInvSgp.rc_view).
The form of a view is a property of the table's size: at most 255 ids,
256-byte bytes.translate tables, byte 255 standing for no id
(core._Bytes); above that, the tables' rows themselves, None for no id
(core._Tuples).  Each kernel is written once and reads its views through
its form's gather: Light's test, InvSgp.compat_partners and the join reads
of check_boolean (boolean._partner_joins) and its distributivity pass
(boolean._joins_kept); and in the law suite, law wedge's rows, law fish's
generator rows (laws._fish_kept), law definition's join premise B3
(laws._joins_are_unions, whose tuple form reads by rows), law eggs' meet
premise E4 (laws._meets_extend), and the two-index laws restricted-product
(core._restricted_product_kept) and setminus-4
(laws._setminus_4_on_generators).

Each is compared, in both forms, with its oracle in tests/row_kernels.py,
the same decision read by rows, and each view with its table: on the
corpus, on generated structures relabelled by seeded permutations, on
tables with one entry corrupted (built unchecked from a validated table),
and at the boundary, 255 ids in the byte form and 256 in the tuple form.
The tuple form of a small table is built here (tuple_form); biskit has no
switch for it.  A kernel that accepts is never refuted by its oracle, and
on a valid table every kernel accepts, so valid tables never reach the
witness scans.  Flag tables, such as the idempotent flags of
compat_partners, are no views: in the byte form they hold 0, false, at
byte 255, so a 255 read through them declines.
"""

from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import biskit.boolean
import biskit.core
import biskit.laws
from biskit.boolean import _joins_kept, _partner_joins, k_of_groupoid
from biskit.cli import main
from biskit.core import (
    InvSgp,
    _Bytes,
    _Tuples,
    _form,
    _generators,
    _light_test,
    _on_generator_sides,
    _restricted_product_kept,
    _view,
    adjoin_zero,
    table_product,
)
from biskit.corpus import (
    BOOLEAN_NAMES,
    SEMIGROUP_BUILDERS,
    corpus_semigroup,
    corpus_text,
    render_ist,
    symmetric_inverse_table,
)
from biskit.errors import CertificateFailed
from biskit.groupoid import reconstruct
from biskit.laws import (
    Analysis,
    _eggs_pairs_by_atoms,
    _fish_kept,
    _joins_are_unions,
    _joins_are_unions_by_rows,
    _meets_extend,
    _run_law,
    _setminus_4_on_generators,
    _wedge_scan,
    SEMIGROUP_LAWS,
    law_definition,
    law_eggs,
    law_fish,
    law_orthogonal,
    law_restricted_product,
    law_setminus_4,
    law_wedge,
)
from generated import (
    bisection_count,
    component_forms,
    cyclic_group,
    i4_subsemigroup_tables,
)
from row_kernels import (
    compat_partners_by_rows,
    fish_kept_by_rows,
    joins_extend,
    joins_kept_by_rows,
    light_test_by_rows,
    restricted_product_by_rows,
    setminus_4_by_rows,
)
from test_core import (
    I4,
    assert_orth_matches_oracle,
    assert_rc_rows_match_oracle,
    relabel,
    shuffled,
)
from test_law_kernels import corrupted, corruptions, outcome
from test_laws import BY_ROWS_KEPT
from unchecked import FROM_TABLE, replaced, unchecked

# the scans that name a witness when a kernel declines, where biskit looks
# them up: Light's test falls back to the row scan of associativity, and
# the distributivity pass and law definition to _translation_failure
WITNESS_SCANS = (
    (biskit.core, "_check_associativity"),
    (biskit.boolean, "_translation_failure"),
    (biskit.laws, "_translation_failure"),
    (biskit.laws, "_wedge_scan"),
    (biskit.laws, "_fish_scan"),
    (biskit.laws, "_restricted_product_scan"),
    (biskit.laws, "_eggs_scan"),
    (biskit.laws, "_setminus_4_scan"),
)

# the row twins src/ keeps (test_laws.BY_ROWS_KEPT), which the byte form
# of a valid table never reaches
TWINS = tuple((getattr(biskit, name[:-3]), f) for name, f in BY_ROWS_KEPT)

# the laws whose kernels read the views; law definition is the first reader
# of Analysis.atom_splits, whose join premise B3 is a kernel
VIEW_LAWS = (
    law_wedge,
    law_fish,
    law_restricted_product,
    law_definition,
    law_eggs,
    law_orthogonal,
    law_setminus_4,
)


def refuse(mp, paths):
    """Make the functions paths names raise where biskit calls them."""
    for module, name in paths:

        def refused(*args, name=name):
            raise AssertionError(f"{name} ran")

        mp.setattr(module, name, refused)


def count_calls(mp, paths, calls):
    """Make the functions paths names append their names to calls where
    biskit calls them."""
    for module, name in paths:
        real = getattr(module, name)

        def counted(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        mp.setattr(module, name, counted)


def tuple_form(c):
    """An Analysis of c's structure whose every view is in the tuple form,
    as a table of more than 255 ids has, read off c's tables; the
    compatible partners are read through it again."""
    s, bs, k = c.s, c.bs, c.s.size
    views = {"view": s.table, "meet_view": s.meet_table, "join_view": s.join_table}
    views = {name: _Tuples.view(table, k) for name, table in views.items()}
    t = unchecked(s, ("compat_partners",), **views)
    if bs is None:
        return Analysis(t)
    return Analysis(unchecked(bs, base=t, rc_view=_Tuples.view(bs.rc_rows, k, s.down)))


def forms(c):
    """c, read through the byte form of its views, and its tuple form."""
    assert _form(c.s.view) is _Bytes
    return (c, tuple_form(c))


def per_a(s):
    """check_boolean's (a, partners, joins) per a (_partner_joins), in the
    form of the join view, or None when a compatible pair has no join."""
    out, none = _partner_joins(s)
    return None if any(none in joins for _, _, joins in out) else out


def sides(s):
    """Row u and column u of the table, for every u."""
    t = s.table
    return [*t, *zip(*t)]


def assert_kernels_agree(c, gens=None, valid=False):
    """In both forms: Light's test on each generator alone (on every id when
    gens is None), the compatible pairs, and the distributivity reads of
    every row and column against their oracles.  A side the kernel accepts
    the oracle accepts; on a valid table (valid) they agree."""
    for d in forms(c):
        s = d.s
        rows, view = s.table, s.view
        for g in range(s.size) if gens is None else gens:
            assert _light_test(view, (g,)) == light_test_by_rows(rows, (g,)), g
        assert s.compat_partners == compat_partners_by_rows(rows, s.inv, s.idempotents)
        triples = None if s.zero is None else per_a(s)
        if triples is not None:
            kept = _joins_kept(s, triples)
            by_rows = joins_kept_by_rows(s.join_table, triples)
            for side in sides(s):
                got, want = kept([side]), by_rows(side)
                assert got == want if valid else want >= got
            # every side at once, their views built in one call
            got, want = kept(sides(s)), all(map(by_rows, sides(s)))
            assert got == want if valid else want >= got


def atom_labels(s):
    """_atom_splits' beta and owner: the bitmask of the atoms below each id,
    and the id of each bitmask."""
    bit = {a: 1 << i for i, a in enumerate(s.atoms)}
    beta = [sum(map(bit.__getitem__, bit.keys() & down)) for down in s.down]
    return beta, {b: x for x, b in enumerate(beta)}


def eggs_by_rows(s, splits):
    """_eggs_pairs_by_atoms read by rows: E1, E2, E3 and E4."""
    mt, z = s.meet_table, s.zero
    if any(None in row for row in mt) or list(map(tuple, mt)) != list(zip(*mt)):
        return False
    return set(mt[z]) == {z} and joins_extend(s.join_table, mt, splits)


def assert_law_kernels_agree(c, gens=None, splits=None, valid=False):
    """In both forms: law wedge against its scan; law fish's read of each
    generator's row (of every id when gens is None); and, on a Boolean
    structure, law definition's B3 when the atom labels are injective (B1),
    and law eggs' E4 on splits (c's own by default) when every meet is
    defined (E1), and its whole pass, E1 included.  A pass the kernel
    accepts the oracle accepts; on a valid table they agree."""
    for d in forms(c):
        s = d.s
        assert law_wedge(d) == _wedge_scan(s)
        if s.meet_view is not None:
            kept, by_rows = _fish_kept(s), fish_kept_by_rows(s)
            for g in range(s.size) if gens is None else gens:
                assert kept(g) == by_rows(g), g
        if d.bs is None:
            continue
        beta, owner = atom_labels(s)
        if len(owner) == s.size:
            by_rows = _joins_are_unions_by_rows(s.join_table, beta, owner)
            assert _joins_are_unions(s, beta, owner) == by_rows
        splits = d.atom_splits if splits is None else splits
        if splits is None:
            continue
        kept, by_rows = _eggs_pairs_by_atoms(s, splits), eggs_by_rows(s, splits)
        assert kept == by_rows if valid else by_rows >= kept
        if s.meet_view is not None and not any(None in row for row in s.meet_table):
            kept = _meets_extend(s, splits)
            by_rows = joins_extend(s.join_table, s.meet_table, splits)
            assert kept == by_rows if valid else by_rows >= kept


def assert_view_holds(view, rows, supports, k, exact):
    """In the byte form, row x of view is a 256-byte table holding rows[x][y]
    or byte 255 at each y < k, and 255 at every other byte: never an id the
    table does not hold there.  When exact, as on a table the view was read
    off, it holds rows[x][y] at each y of supports[x] where that is an id,
    and 255 at every other byte.  A dict row, as BoolInvSgp.rc_rows has,
    holds None off its keys.  In the tuple form view is rows itself."""
    if _form(view) is _Tuples:
        assert view == rows
        return
    assert len(view) == len(rows)
    for table, row, support in zip(view, rows, supports):
        if isinstance(row, dict):
            row = tuple(map(row.get, range(k)))
        assert len(table) == 256 and set(table[k:]) <= {255}
        assert all(b == 255 or b == v for b, v in zip(table, row))
        ids = [y for y in support if row[y] in range(k) and type(row[y]) is int]
        if exact:
            assert [table[y] for y in ids] == [row[y] for y in ids]
            assert table.count(255) == 256 - len(ids)


def assert_two_index_kernels_agree(c, valid=False):
    """In both forms: the views against their tables, and laws
    restricted-product and setminus-4: a kernel that accepts is never
    refuted by its oracle, law restricted-product returns what its oracle
    does and law setminus-4 returns or raises as in the byte form, and on
    a valid table (valid) every kernel accepts."""
    for d in forms(c):
        s = d.s
        by_rows = restricted_product_by_rows(s)
        assert law_restricted_product(d) == by_rows
        assert by_rows is None if _restricted_product_kept(s) else not valid
        if d.bs is None:
            continue
        bs, k = d.bs, s.size
        if s.join_view is not None:
            assert_view_holds(s.join_view, s.join_table, s.compat_partners, k, valid)
        if bs.rc_view is not None:
            assert_view_holds(bs.rc_view, bs.rc_rows, s.down, k, valid)
        pairs = [(x, t) for x in range(k) for t in s.down[x]]
        setminus_2 = d.setminus_2_on_generators
        by_rows = outcome(setminus_4_by_rows, bs, pairs, setminus_2)
        if _setminus_4_on_generators(bs, setminus_2) is None:
            assert by_rows == ("returned", None)
        else:
            assert not valid
        assert outcome(law_setminus_4, d) == outcome(law_setminus_4, c)


def relabelled(table, seed):
    return relabel(tuple(map(tuple, table)), shuffled(len(table), seed))


def assert_all_agree(s, gens=None):
    """Every kernel against its oracle, on the valid structure s."""
    c = Analysis(s)
    assert_kernels_agree(c, gens=gens, valid=True)
    assert_law_kernels_agree(c, gens=gens, valid=True)
    assert_two_index_kernels_agree(c, valid=True)


@pytest.mark.parametrize("name", [*SEMIGROUP_BUILDERS, "i4"])
def test_byte_kernels_match_the_general_path_on_the_corpus(name):
    table = I4 if name == "i4" else SEMIGROUP_BUILDERS[name]()
    gens = _generators(InvSgp(table).table) if name == "i4" else None
    assert_all_agree(InvSgp(table), gens=gens)
    s = InvSgp(relabelled(table, 7))
    assert s.meet_view is not None
    assert_all_agree(s, gens=_generators(s.table))


@settings(max_examples=40, deadline=None)
@given(i4_subsemigroup_tables, st.integers(0, 2**16))
def test_byte_kernels_match_the_general_path_on_generated_structures(table, seed):
    s = InvSgp(relabelled(table, seed))
    assert_all_agree(s, gens=_generators(s.table))


# the forms whose tables of local bisections have at most 255 ids, so that
# both forms differ from the one such a table is read in
byte_forms = component_forms.filter(
    lambda form: bisection_count(reconstruct(form)) <= 255
)


@settings(max_examples=20, deadline=None)
@given(byte_forms, st.integers(0, 2**16))
def test_byte_kernels_match_the_general_path_on_component_forms(form, seed):
    table = k_of_groupoid(reconstruct(form)).table
    s = InvSgp(relabelled(table, seed))
    assert_all_agree(s, gens=_generators(s.table))


def rows_kept(s, per_a):
    """joins_kept_by_rows on s's join table, holding on a list of sides
    when it holds on each."""
    holds = joins_kept_by_rows(s.join_table, per_a)
    return lambda sides: all(map(holds, sides))


def distributivity_pass(s, kept):
    """Whether _distributivity_failure's pass accepts s with holds made by
    kept, read on the sides _on_generator_sides gives, or None when a
    compatible pair has no join."""
    triples, sides = per_a(s), []
    if triples is None:
        return None
    collected = _on_generator_sides(s, lambda side: sides.append(side) or True)
    return collected and kept(s, triples)(sides)


@settings(max_examples=200, deadline=None)
@given(corruptions(tables=("table",)))
def test_byte_kernels_decline_as_the_general_path_on_corrupted_tables(corruption):
    # one product of a Boolean corpus table, built unchecked: Light's
    # test fails in the same cases in both forms and by rows, and the
    # distributivity pass accepts only where the oracle does
    c = corrupted(*corruption)
    rows = c.s.table
    gens = _generators(rows)
    assert_kernels_agree(c)
    for d in forms(c):
        s = d.s
        assert _light_test(s.view, gens) == light_test_by_rows(rows, gens)
        by_rows = distributivity_pass(s, rows_kept)
        assert not distributivity_pass(s, _joins_kept) or by_rows


@settings(max_examples=300, deadline=None)
@given(corruptions(tables=("table", "meet_table", "join_table", "rc_rows", "order")))
# a meet read as undefined, and one read as another id
@example(("i2", "meet_table", 5, 5, None))
@example(("i2", "meet_table", 5, 5, 4))
# a join read as undefined, and one whose atoms are not the union
@example(("i2", "join_table", 1, 4, None))
@example(("i2", "join_table", 1, 2, 6))
# 4 <= 5 dropped, so beta(5) loses a bit and beta is no longer injective
@example(("i2", "order", 4, 5, None))
# atom 2 meet 2 read as 3, the meet table still symmetric: row 2 holds more
# than 0 and 2, so law eggs' E4 declines
@example(("powerset2", "meet_table", 2, 2, 3))
def test_law_kernels_match_the_general_path_on_corrupted_tables(corruption):
    # one entry of the product, meet, join or relative-complement table, or
    # of the order, of a Boolean corpus table; law eggs' E4 is read on the
    # splits of the valid table when the corrupted one has none
    c = corrupted(*corruption)
    assert c.s.meet_view is not None
    valid = Analysis(corpus_semigroup(corruption[0]))
    assert_law_kernels_agree(c, splits=c.atom_splits or valid.atom_splits)
    assert_two_index_kernels_agree(c)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(BOOLEAN_NAMES), st.sampled_from(("d", "r")), st.data())
def test_two_index_kernels_match_the_general_path_on_corrupted_d_and_r(
    name, which, data
):
    # d(a) or r(a) read as another id; the meet, join and relative-complement
    # tables are read off the valid table first, so only reads of d or r see
    # the change
    bs = Analysis(corpus_semigroup(name)).bs
    s = bs.base
    s.meet_table, s.join_table, bs.rc_rows
    ids, a = list(getattr(s, which)), data.draw(st.integers(0, s.size - 1))
    ids[a] = data.draw(st.integers(0, s.size - 1))
    c = Analysis(unchecked(bs, base=unchecked(s, **{which: tuple(ids)})))
    assert_two_index_kernels_agree(c)


def test_restricted_product_declines_where_only_a2_below_a_fails():
    # z2zero (zero 0, identity 1, 2*2 = 1) with row 2 read as the identity's
    # row, 2*x = x: the table stays associative, the down-sets multiply,
    # every f*b <= b, d(a2) = r(b2) and a2*b2 = a*b; only a2 = 2*r(1) = 1
    # <= 2 fails, so the kernel declines in both forms on its a2 <= a check
    # alone, and the scan names (2, 1)
    c = corrupted("z2zero", "table", 2, 1, 1)
    assert c.s.table == ((0, 0, 0), (0, 1, 2), (0, 1, 1))
    s = unchecked(c.s, FROM_TABLE, table=replaced(c.s.table, 2, 2, 2))
    c = Analysis(unchecked(c.bs, ("rc_rows",), base=s))
    for d in forms(c):
        assert not _restricted_product_kept(d.s)
        assert law_restricted_product(d) == restricted_product_by_rows(d.s) == (2, 1)


def test_byte_rows_read_none_as_255_and_decline_other_entries():
    # the view of whole rows, such as the product and meet tables: None and
    # the padding read as 255, an entry that is no id declines the view;
    # the byte form has no view above 255 ids
    k, pad = 3, b"\xff" * 253
    assert _view(((0, None, 1),), k) == (bytes((0, 255, 1)) + pad,)
    for bad in (-1, k, 255, "0", 0.5, [0]):  # read by bytes() and by the dict
        assert _view(((0, 1, 2), (1, bad, 0)), k) is None, bad
        assert _view(((0, None, 2), (1, bad, 0)), k) is None, bad
    assert _Bytes.view(((None,),) * 256, 256) is None


def test_tuple_view_is_the_rows_and_declines_other_entries():
    # above 255 ids the view is the rows themselves, shared, None for no id;
    # an entry read that is no int id declines the view; one off the support
    # is not read
    rows = ((0, None, 1), (2, 1, None))
    assert _Tuples.view(rows, 3) is rows
    assert _Tuples.view(rows, 3, ((0,), (0, 1))) is rows
    for bad in (-1, 3, 255, "0", 0.5, 1.0, [0]):
        assert _Tuples.view(((0, 1, 2), (1, bad, 0)), 3) is None, bad
        assert _Tuples.view(((0, 1, 2), (1, bad, 0)), 3, ((0,), (0, 1))) is None, bad
        assert _Tuples.view(((0, 1, 2), (1, bad, 0)), 3, ((0,), (0, 2))) is not None
    table = boundary_table(256)
    assert _view(table, 256) is table


def test_byte_flags_are_the_per_id_table():
    # the flag table is built by two translations; it holds what a scan of
    # the 256 bytes gives: 255 at each id flagged, 0 elsewhere, byte 255
    # included, for no ids, every id up to 254, and the idempotents of the
    # corpus and of I4
    def per_id(ids):
        return bytes(255 if e in ids else 0 for e in range(256))

    sets = [set(), {0}, {254}, set(range(255)), set(range(0, 255, 7))]
    for table in (*map(corpus_semigroup, SEMIGROUP_BUILDERS), InvSgp(I4)):
        sets.append(set(table.idempotents))
    for ids in sets:
        assert _Bytes.flags(ids, 255) == per_id(ids), sorted(ids)
    assert _Tuples.flags({0, 2}, 3) == (True, False, True)


def test_partner_view_reads_255_off_the_support_and_at_entries_no_id():
    # the view of rows read on supports, such as the join table on the
    # compatible partners: a byte off the support and an entry None read as
    # 255; an entry off the support is not read, so no id there still gives
    # a view
    rows, k, pad = ((0, None, 1), (2, 1, "x")), 3, b"\xff" * 253
    assert _view(rows, k, ((0, 1, 2), (0, 1))) == (
        bytes((0, 255, 1)) + pad,
        bytes((2, 1, 255)) + pad,
    )
    for bad in (-1, k, 255, "0", 0.5, [0]):
        assert _view(((0, 1, 2), (1, bad, 0)), k, ((0,), (0, 1))) is None, bad
        assert _view(((0, 1, 2), (1, bad, 0)), k, ((0,), (0, 2))) is not None, bad
    for support in ((0, 0), (k,), (-1,)):  # an id twice, k, -1
        assert _view(rows[:1], k, (support,)) is None, support
    assert _Bytes.view(((None,),) * 256, 256, ((),) * 256) is None


def test_whole_view_tables_compose_as_the_rows_do():
    # no id read through any byte view stays no id, so the whole tables of a
    # product view compose as the rows do, in both forms: view[g] gathered
    # through view[x] is view[x*g]
    tables = [tuple(map(tuple, build())) for build in SEMIGROUP_BUILDERS.values()]
    for table in (*tables, I4, boundary_table(255), boundary_table(256)):
        k = len(table)
        for form in (_Bytes, _Tuples) if k <= 255 else (_Tuples,):
            view = form.view(table, k)
            for x, row in enumerate(table):
                products = [form.read(view[g], view[x]) for g in range(k)]
                assert products == [view[xg] for xg in row], x


def test_a_meet_table_entry_outside_the_ids_takes_the_general_path():
    # a meet read as -1, as k or as 255 on a table of 17 ids: the view
    # declines in both forms, and law wedge reads the meets by its scan;
    # the laws that index by the meets fail, naming the entry, and no other
    # exception leaves the registry
    for value in (-1, 17, 255):
        c = corrupted("m2z2zero", "meet_table", 3, 3, value)
        for d in forms(c):
            assert d.s.view is not None and d.s.meet_view is None
            calls = []
            with pytest.MonkeyPatch.context() as mp:
                count_calls(mp, WITNESS_SCANS, calls)
                assert law_wedge(d) == (3, 3, value)
            assert calls == ["_wedge_scan"]
            results = {key: _run_law(kind, law, d) for key, kind, law in SEMIGROUP_LAWS}
            named = ("raised", "CertificateFailed")
            named += (str(CertificateFailed(("meet-not-an-id", 3, 3, value))),)
            for key in ("fish", "eggs", "pork", "orthogonal"):
                assert results[key] == ("fail", named, None), key


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("i2", "powerset2", "z3zero")), st.data())
def test_no_exception_leaves_the_registry_at_a_meet_that_is_no_id(name, data):
    # the entry at any place, as -1, as k or as 255; the laws that index
    # by every meet fail
    k = corpus_semigroup(name).size
    a, b = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
    c = corrupted(name, "meet_table", a, b, data.draw(st.sampled_from((-1, k, 255))))
    for key, kind, law in SEMIGROUP_LAWS:
        status, _, _ = _run_law(kind, law, c)
        assert status == "fail" or key not in ("fish", "eggs", "pork"), key


def test_an_rc_entry_read_as_no_id_declines_law_setminus_4():
    # z2zero's pair (x, t) = (2, 0) reads x-t = rc(2, 0), here undefined:
    # row 2 lacks the key 0 of its down-set, so neither form has an rc
    # view, the kernel declines in both forms, as law setminus-2's pass
    # already has, and the scan names the witness
    c = corrupted("z2zero", "rc_rows", 2, 0, None)
    for d in forms(c):
        assert d.bs.rc_view is None
        assert _setminus_4_on_generators(d.bs, True) is not None
        assert outcome(law_setminus_4, d) == outcome(law_setminus_4, c)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SEMIGROUP_BUILDERS)), st.data())
def test_light_test_by_bytes_fails_where_the_general_path_fails(name, data):
    table = [list(r) for r in SEMIGROUP_BUILDERS[name]()]
    k = len(table)
    a, b, v = (data.draw(st.integers(0, k - 1)) for _ in range(3))
    table[a][b] = v
    rows = tuple(map(tuple, table))
    for form in (_Bytes, _Tuples):
        view = form.view(rows, k)
        assert view is not None
        for gens in (_generators(rows), *((g,) for g in range(k))):
            assert _light_test(view, gens) == light_test_by_rows(rows, gens)


# -- the boundary: 255 ids read bytes, 256 tuples ------------------------------


@cache
def boundary_table(k):
    """A Boolean table of k ids: z2zero x Z4 with a zero x m2z2zero for 255,
    (z3zero x powerset2) squared for 256."""
    if k == 255:
        z4zero = adjoin_zero(InvSgp(cyclic_group(4).ptable))
        parts = (corpus_semigroup("z2zero"), z4zero, corpus_semigroup("m2z2zero"))
    else:
        parts = (corpus_semigroup("z3zero"), corpus_semigroup("powerset2")) * 2
    s = parts[0]
    for t in parts[1:]:
        s = InvSgp(table_product(s, t))
    assert s.size == k
    return s.table


def test_a_table_of_255_ids_takes_the_byte_path():
    s = InvSgp(boundary_table(255))
    assert _form(s.view) is _Bytes
    assert s.associative_generators == _generators(s.table)  # ranked by sets
    assert_all_agree(s, gens=_generators(s.table))
    with pytest.MonkeyPatch.context() as mp:
        refuse(mp, WITNESS_SCANS + TWINS)
        c = Analysis(InvSgp(boundary_table(255)))
        assert c.check.boolean
        views = (c.s.view, c.s.meet_view, c.s.join_view, c.bs.rc_view)
        assert {_form(view) for view in views} == {_Bytes}
        assert [law(c) for law in VIEW_LAWS] == [None] * len(VIEW_LAWS)


def test_256_ids_take_the_tuple_form_of_the_same_kernels():
    # every view is its table itself, and every kernel accepts, so no
    # witness scan runs; law definition's B3 reads by rows, and the
    # generators are ranked without the byte count
    calls, table = [], boundary_table(256)
    with pytest.MonkeyPatch.context() as mp:
        refuse(mp, [*WITNESS_SCANS, (_Bytes, "distinct")])
        count_calls(mp, TWINS, calls)
        c = Analysis(InvSgp(table))
        assert c.check.boolean
        s = c.s
        assert s.associative_generators == _generators(s.table)
        assert s.view is s.table and s.meet_view is s.meet_table
        assert s.join_view is s.join_table and c.bs.rc_view is c.bs.rc_rows
        assert [law(c) for law in VIEW_LAWS] == [None] * len(VIEW_LAWS)
    assert calls == ["_joins_are_unions_by_rows"]


@pytest.mark.parametrize("k", [255, 256])
def test_orth_matches_the_oracle_at_the_boundary(k):
    assert_orth_matches_oracle(InvSgp(boundary_table(k)))


@pytest.mark.parametrize("k", [255, 256])
def test_rc_rows_match_the_oracle_at_the_boundary(k):
    assert_rc_rows_match_oracle(InvSgp(boundary_table(k)))


# -- valid tables never reach the witness scans ------------------------------


@pytest.mark.parametrize("name", ["i4", *SEMIGROUP_BUILDERS, "boundary256"])
def test_valid_tables_never_reach_the_general_path(name, tmp_path, capsys):
    # the witness scans are refused, and below 256 ids the row twins too;
    # every output stays as it is
    path = tmp_path / f"{name}.ist"
    if name == "i4":
        path.write_text(render_ist(symmetric_inverse_table(4)))
    elif name == "boundary256":
        path.write_text(render_ist(boundary_table(256)))
    else:
        path.write_text(corpus_text(f"{name}.ist"))
    refused = WITNESS_SCANS if name == "boundary256" else WITNESS_SCANS + TWINS
    for command in (["analyze", str(path), "--format", "json"], ["verify", str(path)]):
        main(command)
        want = capsys.readouterr().out
        with pytest.MonkeyPatch.context() as mp:
            refuse(mp, refused)
            main(command)
        assert capsys.readouterr().out == want
