"""The byte kernels against the itemgetter reads they stand in for.

A table of at most 255 ids gets a byte view (core._byte_view), and three
kernels read it: Light's test, InvSgp.compat_partners and the join reads of
check_boolean's distributivity pass (boolean._joins_kept).  Each is compared
with its general path, the one every larger table takes (_light_test
without a view, _compat_partners_by_rows, _joins_kept_by_rows), on the
corpus, on generated structures relabelled by seeded permutations, on
tables with one entry corrupted (built unchecked from a validated table),
and at the boundary: 255 ids take the byte path, 256 the general one.
Valid tables of at most 255 ids never reach the general path.
"""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biskit.boolean
import biskit.core
from biskit.boolean import (
    _joins_kept,
    _joins_kept_by_rows,
    check_boolean,
    k_of_groupoid,
)
from biskit.cli import main
from biskit.core import (
    InvSgp,
    _byte_view,
    _compat_partners_by_rows,
    _generators,
    _light_test,
    _on_generator_sides,
    _picker,
    adjoin_zero,
    table_product,
)
from biskit.corpus import (
    SEMIGROUP_BUILDERS,
    corpus_semigroup,
    corpus_text,
    render_ist,
    symmetric_inverse_table,
)
from biskit.groupoid import reconstruct
from generated import component_forms, cyclic_group, i4_subsemigroup_tables
from test_core import I4, relabel, shuffled
from test_law_kernels import corrupted, corruptions

GENERAL_PATHS = (
    (biskit.core, "_light_test_by_rows"),
    (biskit.core, "_compat_partners_by_rows"),
    (biskit.boolean, "_joins_kept_by_rows"),
)


def refuse_general_paths(mp):
    """Make the three general paths raise where biskit calls them."""
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


def relabelled(table, seed):
    return relabel(tuple(map(tuple, table)), shuffled(len(table), seed))


@pytest.mark.parametrize("name", [*SEMIGROUP_BUILDERS, "i4"])
def test_byte_kernels_match_the_general_path_on_the_corpus(name):
    table = I4 if name == "i4" else SEMIGROUP_BUILDERS[name]()
    s = InvSgp(table)
    assert s.byte_view is not None
    assert_kernels_agree(s, gens=_generators(s.table) if name == "i4" else None)
    assert_kernels_agree(InvSgp(relabelled(table, 7)), gens=_generators(s.table))


@settings(max_examples=40, deadline=None)
@given(i4_subsemigroup_tables, st.integers(0, 2**16))
def test_byte_kernels_match_the_general_path_on_generated_structures(table, seed):
    s = InvSgp(relabelled(table, seed))
    assert_kernels_agree(s, gens=_generators(s.table))


@settings(max_examples=20, deadline=None)
@given(component_forms, st.integers(0, 2**16))
def test_byte_kernels_match_the_general_path_on_component_forms(form, seed):
    table = k_of_groupoid(reconstruct(form)).table
    s = InvSgp(relabelled(table, seed))
    assert_kernels_agree(s)


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


def test_a_table_of_255_ids_takes_the_byte_path():
    s = InvSgp(boundary_table(255))
    assert s.byte_view is not None
    assert_kernels_agree(s, gens=_generators(s.table))
    with pytest.MonkeyPatch.context() as mp:
        refuse_general_paths(mp)
        s = InvSgp(boundary_table(255))
        assert check_boolean(s).boolean


def test_a_table_of_256_ids_takes_the_general_path():
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for module, name in GENERAL_PATHS:
            real = getattr(module, name)

            def counted(*args, name=name, real=real):
                calls.append(name)
                return real(*args)

            mp.setattr(module, name, counted)
        s = InvSgp(boundary_table(256))
        assert s.byte_view is None
        assert check_boolean(s).boolean
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
