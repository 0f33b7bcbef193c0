"""The byte kernels against the itemgetter reads they stand in for.

A table of at most 255 ids gets a byte view (core._byte_view), and its
meet table one too (core._byte_rows, InvSgp.meet_view, None read as byte
255).  Its join table on the compatible partners and, when Boolean, its
relative complements on the down-sets get the join and rc views
(core._partner_view, InvSgp.join_view and BoolInvSgp.rc_view), 255 off
the support.  Ten kernels read them with bytes.translate: Light's test,
InvSgp.compat_partners and the join reads of check_boolean's
distributivity pass (boolean._joins_kept); and in the law suite, law
wedge's rows, law fish's generator rows (laws._fish_kept), law
definition's join premise B3 (laws._joins_are_unions), law eggs' meet
premise E4 (laws._meets_extend), and the two-index laws restricted-product
(core._restricted_product_kept), orthogonal (boolean._orthogonal_kept) and
setminus-4 (boolean._setminus_4_kept).  Each is compared with its general
path, the one every larger table takes (_light_test without a view,
_compat_partners_by_rows, _joins_kept_by_rows, _wedge_scan,
_fish_kept_by_rows, _joins_are_unions_by_rows, _joins_extend,
_restricted_product_by_rows, _orthogonal_by_rows, _setminus_4_by_rows),
and each view with its table, on the corpus, on generated structures
relabelled by seeded permutations, on tables with one entry corrupted
(built unchecked from a validated table), and at the boundary: 255 ids
take the byte path, 256 the general one.  Valid tables of at most 255
ids never reach the general path.
"""

from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import biskit.boolean
import biskit.core
import biskit.laws
from biskit.boolean import (
    _joins_kept,
    _joins_kept_by_rows,
    _orthogonal_kept,
    _setminus_4_kept,
    k_of_groupoid,
)
from biskit.cli import main
from biskit.core import (
    InvSgp,
    _byte_rows,
    _byte_view,
    _partner_view,
    _compat_partners_by_rows,
    _generators,
    _light_test,
    _on_generator_sides,
    _picker,
    _restricted_product_kept,
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
    _fish_kept_by_rows,
    _joins_are_unions,
    _joins_are_unions_by_rows,
    _joins_extend,
    _meets_extend,
    _orthogonal_by_rows,
    _restricted_product_by_rows,
    _run_law,
    _setminus_4_by_rows,
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
from generated import component_forms, cyclic_group, i4_subsemigroup_tables
from test_core import I4, relabel, shuffled
from test_law_kernels import corrupted, corruptions, outcome
from unchecked import unchecked

GENERAL_PATHS = (
    (biskit.core, "_light_test_by_rows"),
    (biskit.core, "_compat_partners_by_rows"),
    (biskit.boolean, "_joins_kept_by_rows"),
    (biskit.laws, "_wedge_scan"),
    (biskit.laws, "_fish_kept_by_rows"),
    (biskit.laws, "_joins_are_unions_by_rows"),
    (biskit.laws, "_joins_extend"),
    (biskit.laws, "_restricted_product_by_rows"),
    (biskit.laws, "_orthogonal_by_rows"),
    (biskit.laws, "_setminus_4_by_rows"),
)

# the laws whose kernels read the byte, meet, join and rc views; law
# definition is the first reader of Analysis.atom_splits, whose join
# premise B3 is a kernel
BYTE_LAWS = (
    law_wedge,
    law_fish,
    law_restricted_product,
    law_definition,
    law_eggs,
    law_orthogonal,
    law_setminus_4,
)


def refuse_general_paths(mp):
    """Make the general paths raise where biskit calls them."""
    for module, name in GENERAL_PATHS:

        def refused(*args, name=name):
            raise AssertionError(f"{name} ran")

        mp.setattr(module, name, refused)


def per_a(s):
    """_distributivity_failure's (a, partners, joins) per a, or None when a
    compatible pair has no join."""
    jt, out = s.join_table, []
    for a, partners in enumerate(s.compat_partners):
        joins = _picker(partners)(jt[a])
        if None in joins:
            return None
        out.append((a, partners, joins))
    return out


def sides(s):
    """Row u and column u of the table, for every u."""
    t = s.table
    return [*t, *zip(*t)]


def assert_kernels_agree(s, gens=None):
    """Light's test on each generator alone (on every id when gens is None),
    the compatible pairs, and the distributivity reads of every row and
    column: the byte path (when the table has a view) against the general
    one."""
    rows, view = s.table, s.byte_view
    for g in range(s.size) if gens is None else gens:
        assert _light_test(rows, (g,), view) == _light_test(rows, (g,), None), g
    s.__dict__.pop("compat_partners", None)
    assert s.compat_partners == _compat_partners_by_rows(rows, s.inv, s.idempotents)
    triples = None if s.zero is None else per_a(s)
    if triples is not None:
        by_bytes = _joins_kept(s, triples)
        by_rows = _joins_kept_by_rows(s.join_table, triples)
        for side in sides(s):
            assert by_bytes(side) == by_rows(side)


def atom_labels(s):
    """_atom_splits' beta and owner: the bitmask of the atoms below each id,
    and the id of each bitmask."""
    bit = {a: 1 << i for i, a in enumerate(s.atoms)}
    beta = [sum(map(bit.__getitem__, bit.keys() & down)) for down in s.down]
    return beta, {b: x for x, b in enumerate(beta)}


def assert_law_kernels_agree(c, gens=None, splits=None):
    """Law wedge against its scan; law fish's read of each generator's row
    (of every id when gens is None); and, on a Boolean structure, law
    definition's B3 when the atom labels are injective (B1) and law eggs'
    E4 on splits (c's own by default) when every meet is defined (E1), and
    its whole pass, E1 included: the byte path, when the table has one,
    against the general one."""
    s = c.s
    assert law_wedge(c) == _wedge_scan(s)
    if s.meet_view is not None:
        by_bytes, by_rows = _fish_kept(s), _fish_kept_by_rows(s)
        for g in range(s.size) if gens is None else gens:
            assert by_bytes(g) == by_rows(g), g
    if c.bs is None:
        return
    beta, owner = atom_labels(s)
    if len(owner) == s.size:
        by_rows = _joins_are_unions_by_rows(s.join_table, beta, owner)
        assert _joins_are_unions(s, beta, owner) == by_rows
    splits = c.atom_splits if splits is None else splits
    if splits is not None:
        general = unchecked(s, meet_view=None)  # s read by rows
        assert _eggs_pairs_by_atoms(s, splits) == _eggs_pairs_by_atoms(general, splits)
    if splits is not None and not any(None in row for row in s.meet_table):
        by_rows = _joins_extend(s.join_table, s.meet_table, splits)
        assert _meets_extend(s, splits) == by_rows


def assert_view_holds(view, rows, supports, k, exact):
    """Row x of view is a 256-byte table holding rows[x][y] or byte 255 at
    each y < k, and 255 at every other byte: never an id the table does not
    hold there.  When exact, as on a table the view was read off, it holds
    rows[x][y] at each y of supports[x] where that is an id, and 255 at
    every other byte."""
    assert len(view) == len(rows)
    for table, row, support in zip(view, rows, supports):
        assert len(table) == 256 and set(table[k:]) <= {255}
        assert all(b == 255 or b == v for b, v in zip(table, row))
        ids = [y for y in support if row[y] in range(k) and type(row[y]) is int]
        if exact:
            assert [table[y] for y in ids] == [row[y] for y in ids]
            assert table.count(255) == 256 - len(ids)


def assert_two_index_kernels_agree(c, valid=False):
    """The views against their tables, and laws restricted-product,
    orthogonal and setminus-4: a byte kernel that accepts is never refuted
    by its general path, the law returns or raises as that path does, and
    on a valid table (valid) with a byte view every kernel accepts."""
    s = c.s
    valid = valid and s.byte_view is not None
    by_rows = _restricted_product_by_rows(s)
    assert law_restricted_product(c) == by_rows
    assert not _restricted_product_kept(s) or by_rows is None
    assert _restricted_product_kept(s) or not valid
    if c.bs is None:
        return
    bs, k = c.bs, s.size
    if s.join_view is not None:
        assert_view_holds(s.join_view, s.join_table, s.compat_partners, k, valid)
        assert_view_holds(bs.rc_view, bs.rc_table, s.down, k, valid)
    by_rows = outcome(_orthogonal_by_rows, bs)
    assert outcome(law_orthogonal, c) == by_rows
    assert not _orthogonal_kept(bs) or by_rows == ("returned", None)
    assert _orthogonal_kept(bs) or not valid
    pairs = [(x, t) for x in range(k) for t in s.down[x]]
    setminus_2 = c.setminus_2_on_generators
    by_rows = outcome(_setminus_4_by_rows, bs, pairs, setminus_2)
    assert outcome(_setminus_4_on_generators, bs, pairs, setminus_2) == by_rows
    kept = setminus_2 and _setminus_4_kept(bs)
    assert not kept or by_rows == ("returned", None)
    assert kept or not valid


def relabelled(table, seed):
    return relabel(tuple(map(tuple, table)), shuffled(len(table), seed))


@pytest.mark.parametrize("name", [*SEMIGROUP_BUILDERS, "i4"])
def test_byte_kernels_match_the_general_path_on_the_corpus(name):
    table = I4 if name == "i4" else SEMIGROUP_BUILDERS[name]()
    s = InvSgp(table)
    assert s.byte_view is not None
    assert_kernels_agree(s, gens=_generators(s.table) if name == "i4" else None)
    assert_kernels_agree(InvSgp(relabelled(table, 7)), gens=_generators(s.table))
    c = Analysis(InvSgp(relabelled(table, 7)))
    assert c.s.meet_view is not None
    assert_law_kernels_agree(c, gens=_generators(s.table) if name == "i4" else None)
    assert_two_index_kernels_agree(c, valid=True)


@settings(max_examples=40, deadline=None)
@given(i4_subsemigroup_tables, st.integers(0, 2**16))
def test_byte_kernels_match_the_general_path_on_generated_structures(table, seed):
    s = InvSgp(relabelled(table, seed))
    assert_kernels_agree(s, gens=_generators(s.table))
    assert_law_kernels_agree(Analysis(s), gens=_generators(s.table))
    assert_two_index_kernels_agree(Analysis(s), valid=True)


@settings(max_examples=20, deadline=None)
@given(component_forms, st.integers(0, 2**16))
def test_byte_kernels_match_the_general_path_on_component_forms(form, seed):
    table = k_of_groupoid(reconstruct(form)).table
    s = InvSgp(relabelled(table, seed))
    assert_kernels_agree(s)
    assert_law_kernels_agree(Analysis(s), gens=_generators(s.table))
    assert_two_index_kernels_agree(Analysis(s), valid=True)


def joins_kept_by_rows(s, per_a):
    """_joins_kept with every side read by rows."""
    return _joins_kept_by_rows(s.join_table, per_a)


def distributivity_pass(s, kept):
    """Whether _distributivity_failure's pass accepts s with holds made by
    kept, or None when a compatible pair has no join."""
    triples = per_a(s)
    return None if triples is None else _on_generator_sides(s, kept(s, triples))


@settings(max_examples=200, deadline=None)
@given(corruptions(tables=("table",)))
def test_byte_kernels_decline_as_the_general_path_on_corrupted_tables(corruption):
    # one product of a Boolean corpus table, built unchecked: Light's
    # test fails, and the distributivity pass declines, in the same cases
    s = corrupted(*corruption).s
    rows = s.table
    gens = _generators(rows)
    assert _light_test(rows, gens, s.byte_view) == _light_test(rows, gens, None)
    assert_kernels_agree(s)
    by_rows = distributivity_pass(s, joins_kept_by_rows)
    assert distributivity_pass(s, _joins_kept) == by_rows


@settings(max_examples=300, deadline=None)
@given(corruptions(tables=("table", "meet_table", "join_table", "rc_table", "order")))
# a meet read as undefined, and one read as another id
@example(("i2", "meet_table", 5, 5, None))
@example(("i2", "meet_table", 5, 5, 4))
# a join read as undefined, and one whose atoms are not the union
@example(("i2", "join_table", 1, 4, None))
@example(("i2", "join_table", 1, 2, 6))
# 4 <= 5 dropped, so beta(5) loses a bit and beta is no longer injective
@example(("i2", "order", 4, 5, None))
# atom 2 meet 2 read as 3, the meet table still symmetric: row 2 holds more
# than 0 and 2, so law eggs' E4 is read by rows
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
    s.meet_table, s.join_table, bs.rc_table
    ids, a = list(getattr(s, which)), data.draw(st.integers(0, s.size - 1))
    ids[a] = data.draw(st.integers(0, s.size - 1))
    c = Analysis(unchecked(bs, base=unchecked(s, **{which: tuple(ids)})))
    assert_two_index_kernels_agree(c)


def test_partner_view_reads_255_off_the_support_and_at_entries_no_id():
    rows = ((0, None, 1), (2, 1, 5))
    view = _partner_view(rows, ((0, 1, 2), (0, 2)), 3)
    assert [table[:4] for table in view] == [
        bytes((0, 255, 1, 255)),
        bytes((2, 255, 255, 255)),
    ]
    assert all(table[3:] == b"\xff" * 253 for table in view)
    for support in ((0, 0), (3,), (-1,), (256,)):  # an id twice, k, -1, 256
        assert _partner_view(rows, (support, ()), 3) is None
    assert _partner_view(((None,),) * 256, ((),) * 256, 256) is None


def test_byte_rows_read_none_as_255_and_decline_other_entries():
    assert _byte_rows(((0, None), (1, 0)), 2) == (
        (bytes((0, 255)), bytes((1, 0))),
        (bytes((0, 255)) + b"\xff" * 254, bytes((1, 0)) + b"\xff" * 254),
    )
    for bad in (2, -1, 256, "0", 0.5, [0]):
        assert _byte_rows(((0, None), (1, bad)), 2) is None, bad
        assert _byte_rows(((0, 1), (1, bad)), 2) is None, bad
    assert _byte_rows(((None,),) * 256, 256) is None


def test_a_meet_table_entry_outside_the_ids_takes_the_general_path():
    # a meet read as -1, as k or as 255 on a table of 17 ids, where byte 255
    # means None: the view declines, and law wedge reads the meets by rows;
    # the laws that index by the meets fail, naming the entry, and no other
    # exception leaves the registry
    for value in (-1, 17, 255):
        c = corrupted("m2z2zero", "meet_table", 3, 3, value)
        assert c.s.byte_view is not None and c.s.meet_view is None
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            count_general_paths(mp, calls)
            assert law_wedge(c) == (3, 3, value)
        assert calls == ["_wedge_scan"]
        results = {key: _run_law(kind, law, c) for key, kind, law in SEMIGROUP_LAWS}
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


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SEMIGROUP_BUILDERS)), st.data())
def test_light_test_by_bytes_fails_where_the_general_path_fails(name, data):
    table = [list(r) for r in SEMIGROUP_BUILDERS[name]()]
    k = len(table)
    a, b, v = (data.draw(st.integers(0, k - 1)) for _ in range(3))
    table[a][b] = v
    rows = tuple(map(tuple, table))
    view = _byte_view(rows)
    assert view is not None
    for gens in (_generators(rows), *((g,) for g in range(k))):
        assert _light_test(rows, gens, view) == _light_test(rows, gens, None)


# -- the boundary: 255 ids read bytes, 256 do not ------------------------------


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


def count_general_paths(mp, calls):
    """Make the general paths append their names to calls where biskit
    calls them."""
    for module, name in GENERAL_PATHS:
        real = getattr(module, name)

        def counted(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        mp.setattr(module, name, counted)


def test_a_table_of_255_ids_takes_the_byte_path():
    s = InvSgp(boundary_table(255))
    assert s.byte_view is not None
    assert_kernels_agree(s, gens=_generators(s.table))
    assert_law_kernels_agree(Analysis(s), gens=_generators(s.table))
    assert_two_index_kernels_agree(Analysis(s), valid=True)
    with pytest.MonkeyPatch.context() as mp:
        refuse_general_paths(mp)
        c = Analysis(InvSgp(boundary_table(255)))
        assert c.check.boolean
        assert None not in (c.s.meet_view, c.s.join_view, c.bs.rc_view)
        assert [law(c) for law in BYTE_LAWS] == [None] * len(BYTE_LAWS)


def test_a_table_of_256_ids_takes_the_general_path():
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        count_general_paths(mp, calls)
        c = Analysis(InvSgp(boundary_table(256)))
        assert c.s.byte_view is None and c.s.meet_view is None
        assert c.s.join_view is None and c.bs.rc_view is None
        assert c.check.boolean
        assert [law(c) for law in BYTE_LAWS] == [None] * len(BYTE_LAWS)
    assert sorted(set(calls)) == sorted(name for _, name in GENERAL_PATHS)


# -- valid tables never take the general path ---------------------------------


@pytest.mark.parametrize("name", ["i4", *SEMIGROUP_BUILDERS])
def test_valid_tables_never_reach_the_general_path(name, tmp_path, capsys):
    path = tmp_path / f"{name}.ist"
    if name == "i4":
        path.write_text(render_ist(symmetric_inverse_table(4)))
    else:
        path.write_text(corpus_text(f"{name}.ist"))
    for command in (["analyze", str(path), "--format", "json"], ["verify", str(path)]):
        main(command)
        want = capsys.readouterr().out
        with pytest.MonkeyPatch.context() as mp:
            refuse_general_paths(mp)
            main(command)
        assert capsys.readouterr().out == want
