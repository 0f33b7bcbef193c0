from biskit.boolean import check_boolean
from biskit.corpus import (
    BOOLEAN_NAMES,
    GROUPOID_BUILDERS,
    SEMIGROUP_BUILDERS,
    corpus_groupoid,
    corpus_semigroup,
    corpus_text,
    render_ist,
    write_corpus,
)
from biskit.core import parse_semigroup
from biskit.groupoid import parse_groupoid


def test_bundled_files_match_builders(tmp_path):
    names = write_corpus(tmp_path)
    assert len(names) == 18
    for name in names:
        regenerated = (tmp_path / name).read_text()
        assert corpus_text(name) == regenerated, name


def test_every_ist_parses_to_its_builder():
    for name in SEMIGROUP_BUILDERS:
        s = parse_semigroup(corpus_text(f"{name}.ist"))
        assert s.table == corpus_semigroup(name).table, name


def test_every_grp_parses_to_its_builder():
    for name in GROUPOID_BUILDERS:
        g = parse_groupoid(corpus_text(f"{name}.grp"))
        assert g.ptable == corpus_groupoid(name).ptable, name


def test_boolean_names_are_exact():
    for name in SEMIGROUP_BUILDERS:
        s = corpus_semigroup(name)
        if s.zero is None:
            assert name not in BOOLEAN_NAMES
            continue
        assert check_boolean(s).boolean == (name in BOOLEAN_NAMES), name


def test_files_carry_a_comment():
    for name in SEMIGROUP_BUILDERS:
        assert corpus_text(f"{name}.ist").startswith("# ")
    for name in GROUPOID_BUILDERS:
        assert corpus_text(f"{name}.grp").startswith("# ")


def test_zero_sits_at_id_zero():
    # fixed so that product atoms inherit the low ids of the left factor
    for name in SEMIGROUP_BUILDERS:
        s = corpus_semigroup(name)
        if s.zero is not None:
            assert s.zero == 0, name


def test_renderers():
    assert render_ist([[0]]) == "n 1\n0\n"
    assert render_ist([[0, None], [None, 1]]) == "n 2\n0 -1\n-1 1\n"
    assert render_ist([[0]], "note") == "# note\nn 1\n0\n"
