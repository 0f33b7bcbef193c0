import argparse
import ast
import dataclasses
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import biskit
import biskit.boolean
import biskit.core
import biskit.rook as rook
from biskit.boolean import (
    BoolInvSgp,
    check_boolean,
    enumerate_additive_ideals,
    idempotent_ideals,
    is_zero_simplifying,
)
from biskit.cli import Report, build_report, main, make_parser
from biskit.core import InvSgp, is_fundamental, parse_semigroup
from biskit.corpus import (
    BOOLEAN_NAMES,
    SEMIGROUP_BUILDERS,
    corpus_path,
    corpus_semigroup,
    corpus_text,
    render_ist,
    symmetric_inverse_table,
)
from biskit.rook import decompose
from biskit.typemon import type_monoid
from naive_translation import refuse_full_scans
from test_core import load_bench_inputs
from test_groupoid import z4_by_z4_table
from test_rook import counted_validations


@pytest.fixture
def data(tmp_path):
    def path(name):
        p = tmp_path / name
        p.write_text(corpus_text(name))
        return str(p)

    return path


@pytest.fixture
def swapped_coordinates(monkeypatch):
    """Send two atoms to each other's rebuilt arrows, so decompose fails."""
    real = rook.coordinatize

    def swapped(g):
        c = real(g)
        r = list(c.rebuilt)
        r[0], r[1] = r[1], r[0]
        return dataclasses.replace(c, rebuilt=tuple(r))

    monkeypatch.setattr(rook, "coordinatize", swapped)


def test_analyze_text(data, capsys):
    assert main(["analyze", data("i2.ist")]) == 0
    out = capsys.readouterr().out
    assert "validity: True" in out
    assert "zero_simplifying: True" in out
    assert "decomposition_signature: [[2, 1, 'trivial']]" in out


def test_analyze_json_roundtrip(data, capsys):
    assert main(["analyze", data("i2xz2zero.ist"), "--format", "json"]) == 0
    text = capsys.readouterr().out
    rep = Report(**json.loads(text))
    assert rep.validity
    assert rep.type_monoid_rank == 2
    assert rep.tau[-1] == [12, [2, 1]]
    assert rep.timings == {}


def test_analyze_is_deterministic(data, capsys):
    path = data("m2z2zero.ist")
    outs = []
    for _ in range(2):
        assert main(["analyze", path, "--format", "json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_analyze_reports_nonboolean(data, capsys):
    assert main(["analyze", data("chain3.ist")]) == 0
    out = capsys.readouterr().out
    assert "boolean: False" in out
    assert "boolean_failure: ['complement', 1, 2]" in out


def test_analyze_invalid_table(tmp_path, capsys):
    bad = tmp_path / "bad.ist"
    bad.write_text("n 2\n0 1\n0 0\n")
    assert main(["analyze", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "validity: False" in out


def test_analyze_timings_flag(data, capsys):
    assert main(["analyze", data("i2.ist"), "--timings"]) == 0
    out = capsys.readouterr().out
    assert "check_boolean" in out


def test_analyze_timings_are_per_stage(data, capsys):
    assert main(["analyze", data("i2.ist"), "--format", "json", "--timings"]) == 0
    timings = json.loads(capsys.readouterr().out)["timings"]
    stages = ["parse_validate", "check_boolean", "ideals", "decompose", "type_monoid"]
    assert list(timings) == stages
    assert all(seconds >= 0 for seconds in timings.values())


@pytest.mark.parametrize("name", sorted(SEMIGROUP_BUILDERS))
def test_build_report_matches_library_calls(name):
    s = corpus_semigroup(name)
    rep = build_report(s)
    chk = check_boolean(s) if s.zero is not None else None
    assert rep.boolean == bool(chk and chk.boolean)
    if not rep.boolean:
        assert rep.boolean_failure == (list(chk.failure) if chk else None)
        assert rep.fundamental is rep.zero_simplifying is rep.simple is None
        return
    bs = chk.structure
    assert rep.fundamental == is_fundamental(s).fundamental
    ideals = enumerate_additive_ideals(bs, idempotent_ideals(s))
    zero_simplifying = is_zero_simplifying(bs, ideals).holds
    assert rep.zero_simplifying == zero_simplifying
    assert rep.simple == (zero_simplifying and is_fundamental(s).fundamental)
    assert rep.decomposition_signature == [list(x) for x in decompose(bs).signature]
    tm = type_monoid(bs)
    assert rep.type_monoid_rank == tm.rank
    assert rep.tau == [[e, list(tm.tau[e])] for e in sorted(tm.tau)]


def test_booleanize_reingests(data, tmp_path, capsys):
    out_path = str(tmp_path / "bb2.ist")
    assert main(["booleanize", data("b2.ist"), "--out", out_path]) == 0
    text = open(out_path).read()
    t = parse_semigroup(text)
    assert check_boolean(t).boolean
    assert t.size == 7
    assert "# beta: 1 -> " in text


def test_booleanize_stdout(data, capsys):
    assert main(["booleanize", data("chain3.ist")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n 4\n")


README = Path(__file__).parent.parent / "README.md"


def readme_synopsis():
    """{subcommand: {option: its choices, or None}} from the README's
    `biskit ...` synopsis lines, the first sh block after "## CLI"."""
    text = README.read_text().split("## CLI", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    out = {}
    for line in block.splitlines():
        words = line.split()
        assert words[0] == "biskit", line
        opts = re.findall(r"(--[a-z-]+)(?: ([a-z]+(?:\|[a-z]+)+))?", line)
        out[words[1]] = {o: tuple(c.split("|")) if c else None for o, c in opts}
    return out


def parser_options():
    """The same map, read off cli.make_parser()."""
    (sub,) = (
        a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: {
            o: tuple(a.choices) if a.choices else None
            for a in sp._actions
            for o in a.option_strings
            if o.startswith("--") and o != "--help"
        }
        for name, sp in sub.choices.items()
    }


def test_readme_synopsis_names_every_parser_option():
    assert readme_synopsis() == parser_options()


def test_readme_library_entry_points_run():
    # the first python block after "## Library entry points" imports names
    # that exist
    text = README.read_text().split("## Library entry points", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})


def readme_dotted_names():
    """Each backticked `module.name` or `module.name(args)` of the README
    whose module is one of biskit's, `biskit.` prefix allowed, as (the
    module, the names after it); file names such as `rook.py` are not
    names."""
    modules = {path.stem for path in Path(biskit.__file__).parent.glob("*.py")}
    dotted = r"`(?:biskit\.)?(\w+)\.([\w.]+)(?:\([^`]*\))?`"
    found = re.findall(dotted, README.read_text())
    return [(m, rest) for m, rest in found if m in modules and rest != "py"]


def test_readme_dotted_names_resolve():
    # a rename that leaves the README naming what is gone fails here
    names = readme_dotted_names()
    assert len(set(names)) >= 15
    for module, rest in names:
        obj = importlib.import_module(f"biskit.{module}")
        for attr in rest.split("."):
            assert hasattr(obj, attr), f"{module}.{rest}"
            obj = getattr(obj, attr)


def public_functions():
    """biskit's public functions by name: each defined at the top level of
    one of its modules, its name not starting with an underscore."""
    out = {}
    for path in Path(biskit.__file__).parent.glob("*.py"):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"biskit.{path.stem}")
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                if not name.startswith("_"):
                    out[name] = fn
    return out


def test_readme_calls_match_signatures():
    # a signature that drifts from a backticked `name(args)` of the README
    # fails here; args may break across lines inside the backticks
    public = public_functions()
    calls = re.findall(r"`(\w+)\(([^`()]*)\)`", README.read_text())
    calls = [(name, args) for name, args in calls if name in public]
    assert len(calls) >= 25
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    for name, args in calls:
        params = inspect.signature(public[name]).parameters.values()
        want = sum(p.kind in positional for p in params)
        assert len([a for a in args.split(",") if a.strip()]) == want, f"{name}({args})"


def readme_caps():
    """(constant, module, value) of each row of README's table of caps."""
    text = README.read_text().split("## Caps", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| ([\d,]+) \|", text, re.M)
    return {(name, module, int(value.replace(",", ""))) for name, module, value in rows}


def src_caps():
    """(constant, module, value) of each module-level *_CAP constant in src/."""
    caps = set()
    for path in Path(biskit.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.endswith("_CAP"):
                        caps.add((target.id, path.stem, ast.literal_eval(node.value)))
    return caps


def test_readme_caps_table_matches_src():
    # a cap deleted, renamed or changed in src/ cannot stay in the docs,
    # and a new one must be added to them
    caps = src_caps()
    assert caps and readme_caps() == caps


def test_booleanize_refuses_format(data, capsys):
    # booleanize writes .ist text only
    with pytest.raises(SystemExit) as e:
        main(["booleanize", data("chain3.ist"), "--format", "json"])
    assert e.value.code == 2
    assert capsys.readouterr().out == ""


def test_booleanize_to_a_missing_directory_is_one_error_line(data, tmp_path, capsys):
    out_path = str(tmp_path / "missing" / "x.ist")
    assert main(["booleanize", data("i2.ist"), "--out", out_path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: FileNotFoundError: [Errno 2] No such file or directory: {out_path!r}\n"


@pytest.mark.parametrize(
    "command", ["analyze", "decompose", "type", "booleanize", "iso"]
)
def test_groupoid_input_is_refused_outside_verify(command, data, capsys):
    # pair2 has undefined entries, and z2's table would validate as a group
    for name in ("pair2.grp", "z2.grp"):
        path = data(name)
        args = [path, data("i2.ist")] if command == "iso" else [path]
        assert main([command, *args]) == 1
        out, err = capsys.readouterr()
        error = f"ParseError: {path} is a groupoid (.grp) file, which only verify reads"
        if command == "analyze":
            assert out.splitlines()[:2] == ["validity: False", f"error: {error}"]
        else:
            assert (out, err) == ("", f"error: {error}\n")
    assert main(["verify", data("z2.grp")]) == 0


def test_decompose(data, capsys):
    assert main(["decompose", data("m2z2zero.ist")]) == 0
    out = capsys.readouterr().out
    assert "signature: (2 x Z2)" in out
    assert "verified: True" in out


def test_decompose_rejects_nonboolean(data, capsys):
    assert main(["decompose", data("b2.ist")]) == 1
    for command in ("decompose", "type"):
        assert main([command, data("z2-group.ist")]) == 1
        assert capsys.readouterr().err.endswith("error: NotBoolean: ('no-zero',)\n")


def test_decompose_exits_1_on_a_failed_certificate(data, capsys, swapped_coordinates):
    assert main(["decompose", data("m2z2zero.ist")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: CertificateFailed: ")
    assert "decomposition-not-iso" in err


def test_analyze_reports_an_analysis_error(data, capsys, swapped_coordinates):
    assert main(["analyze", data("i2.ist")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: CertificateFailed: certificate failed: "
        "('decomposition-not-bijective',)\n"
    )


def test_build_report_validates_i4_once():
    # K of I4's atoms is certified by decompose's isomorphism onto the
    # validated input, and analyze never reads its structure
    table = symmetric_inverse_table(4)
    with counted_validations() as counts:
        rep = build_report(InvSgp(table))
    assert rep.decomposition_signature == [[4, 1, "trivial"]]
    assert counts == {"InvSgp": 1, "check_boolean": 1}


def test_build_report_builds_no_rc_table(monkeypatch):
    # type_monoid reads the relative complements of its idempotent rows
    # alone (bs.rc_row): the rows of all 209 ids of I4 are left unbuilt, and
    # each row read is the one they hold once built
    made, read, init, row_of = [], {}, BoolInvSgp.__init__, BoolInvSgp.rc_row

    def kept_init(self, *args):
        made.append(self)
        init(self, *args)

    def kept_row(self, x):
        read[x] = row_of(self, x)
        return read[x]

    monkeypatch.setattr(BoolInvSgp, "__init__", kept_init)
    monkeypatch.setattr(BoolInvSgp, "rc_row", kept_row)
    rep = build_report(InvSgp(symmetric_inverse_table(4)))
    assert rep.type_monoid_rank == 1
    assert len(made) == 1
    bs = made[0]
    assert "rc_rows" not in vars(bs)
    s = bs.base
    assert sorted(read) == sorted(s.idempotents)
    idempotent_rows = dict(read)  # building every row below reads them all
    rows = bs.rc_rows
    assert all(row.keys() <= set(s.down[x]) for x, row in enumerate(rows))
    assert all(row == rows[f] for f, row in idempotent_rows.items())


@pytest.mark.parametrize("name", ["i4", *BOOLEAN_NAMES])
def test_analyze_decides_without_scans(name, tmp_path, capsys):
    path = tmp_path / f"{name}.ist"
    if name == "i4":
        path.write_text(render_ist(symmetric_inverse_table(4)))
    else:
        path.write_text(corpus_text(f"{name}.ist"))
    assert main(["analyze", str(path), "--format", "json"]) == 0
    want = capsys.readouterr().out
    with pytest.MonkeyPatch.context() as mp:
        refuse_full_scans(mp)
        assert main(["analyze", str(path), "--format", "json"]) == 0
    assert capsys.readouterr().out == want


def test_type_json(data, capsys):
    assert main(["type", data("i2xz2zero.ist"), "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["rank"] == 2
    assert [12, [2, 1]] in got["tau"]


def test_iso_booleanization_mode(data, capsys):
    assert main(["iso", data("chain3.ist"), data("antichain3.ist")]) == 0
    assert "isomorphic: True" in capsys.readouterr().out
    assert main(["iso", data("b2.ist"), data("z2zero.ist")]) == 0
    assert "isomorphic: False" in capsys.readouterr().out


def test_iso_direct_mode(data, capsys):
    assert (
        main(["iso", data("i2.ist"), data("i2.ist"), "--mode", "direct"]) == 0
    )
    out = capsys.readouterr().out
    assert "isomorphic: True" in out
    assert "witness: [0, 1, 2, 3, 4, 5, 6]" in out


def test_iso_direct_decides_i3(data, capsys):
    assert main(["iso", data("i3.ist"), data("i3.ist"), "--mode", "direct"]) == 0
    out, err = capsys.readouterr()
    assert out == f"isomorphic: True\nwitness: {list(range(34))}\n"
    assert err == ""


def test_iso_direct_decides_relabelled_i4(tmp_path, capsys):
    inputs, paths = load_bench_inputs(), []
    for seed in (1, 2):
        files, _ = inputs.i4_inputs(seed)
        ((name, text),) = files.items()
        path = tmp_path / f"{seed}-{name}"
        path.write_text(text)
        paths.append(str(path))
    args = ["iso", *paths, "--mode", "direct", "--format", "json"]
    assert main(args) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["isomorphic"] is True
    s, t = (parse_semigroup(Path(p).read_text()) for p in paths)
    phi = got["witness"]
    assert sorted(phi) == list(range(t.size))
    assert all(
        phi[s.table[x][y]] == t.table[phi[x]][phi[y]]
        for x in range(s.size)
        for y in range(s.size)
    )


def test_iso_direct_above_the_search_cap_is_one_error_line(tmp_path, capsys, monkeypatch):
    paths = []
    for twisted in (False, True):
        path = tmp_path / f"z4z4-{twisted}.ist"
        path.write_text(render_ist(z4_by_z4_table(twisted), "z4z4"))
        paths.append(str(path))
    assert main(["iso", *paths, "--mode", "direct"]) == 0
    assert capsys.readouterr() == ("isomorphic: False\n", "")
    monkeypatch.setattr(biskit.core, "ISO_SEARCH_CAP", 131)
    assert main(["iso", *paths, "--mode", "direct"]) == 1
    assert capsys.readouterr() == (
        "",
        "error: Undecided: isomorphism search tried 132 generator images, "
        "above cap ISO_SEARCH_CAP=131\n",
    )


def test_verify_good_file(data, capsys):
    assert main(["verify", data("z2zero.ist")]) == 0
    out = capsys.readouterr().out
    assert "wedge: pass" in out
    assert "FAIL" not in out


def test_verify_grp_file(data, capsys):
    assert main(["verify", data("conn2z2.grp")]) == 0
    out = capsys.readouterr().out
    assert "bordeaux1: pass" in out


def test_verify_empty_groupoid(tmp_path, capsys):
    # the empty groupoid validates and has no component, so it is not
    # connected: K of it is the one-element structure, not 0-simplifying
    path = tmp_path / "empty.grp"
    path.write_text("n 0\n")
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  connected-groupoids: pass",
        "  groupoids: pass",
        "  bordeaux1: pass",
        "  local-bisections-rook: skip (stated for connected groupoids)",
    ]


def test_verify_detects_mutation(data, tmp_path, capsys):
    text = corpus_text("i2.ist")
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith(("#", "n "))]
    tab = [ln.split() for ln in rows]
    tab[5][5] = "6"  # identity row corrupted
    bad = tmp_path / "mut.ist"
    bad.write_text("n 7\n" + "\n".join(" ".join(r) for r in tab) + "\n")
    assert main(["verify", str(bad)]) == 1
    capsys.readouterr()
    assert main(["verify", str(bad), "--format", "json"]) == 1
    (target,) = json.loads(capsys.readouterr().out)
    assert list(target) == ["target", "error"]
    assert target["target"] == str(bad)
    assert target["error"].startswith("NotAssociative: ")


@pytest.mark.parametrize("name", ["i2.ist", "z2.grp"])
def test_verify_json_matches_text(data, capsys, name):
    path = data(name)
    assert main(["verify", path]) == 0
    text = capsys.readouterr().out
    assert main(["verify", path, "--format", "json"]) == 0
    (target,) = json.loads(capsys.readouterr().out)
    assert target["target"] == path
    lines = [path]
    for law in target["laws"]:
        assert list(law) == ["key", "status", "witness", "note"]
        shown = {"pass": "pass", "skip": f"skip ({law['note']})"}[law["status"]]
        lines.append(f"  {law['key']}: {shown}")
    assert text.splitlines() == lines
    assert main(["verify", path, "--format", "json", "--timings"]) == 0
    (timed,) = json.loads(capsys.readouterr().out)
    for law, untimed in zip(timed["laws"], target["laws"]):
        assert list(law) == ["key", "status", "witness", "note", "seconds"]
        assert isinstance(law["seconds"], float) and law["seconds"] >= 0
        assert {**law, "seconds": None} == {**untimed, "seconds": None}
    assert main(["verify", path, "--timings"]) == 0
    timed_lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(" [", 1)[0] for line in timed_lines] == lines
    assert all(line.endswith(" s]") for line in timed_lines[1:])


def test_verify_json_is_deterministic(capsys):
    outs = []
    for _ in range(2):
        assert main(["verify", "--corpus", "--format", "json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_verify_without_target_is_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["verify"])
    assert e.value.code == 2
    assert "one of the arguments path --corpus is required" in capsys.readouterr().err


def test_verify_refuses_a_path_with_corpus(capsys):
    # the path is not silently dropped for the corpus report
    with pytest.raises(SystemExit) as e:
        main(["verify", "/nonexistent.ist", "--corpus"])
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --corpus: not allowed with argument path" in err


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_missing_file_is_reported(capsys):
    assert main(["analyze", "/nonexistent/x.ist"]) == 1


# reports kept byte for byte from an earlier version of the code: the
# corpus reports do not change unless a change means them to
REPORTS = Path(__file__).parent / "reports"


PINNED = {  # file under REPORTS -> the argv whose stdout it holds
    "verify-corpus.txt": ["verify", "--corpus"],
    **{
        f"{command}-{name}.json": [
            command, str(corpus_path(f"{name}.ist")), "--format", "json"
        ]
        for command, names in (
            ("analyze", SEMIGROUP_BUILDERS),
            ("decompose", BOOLEAN_NAMES),
            ("type", BOOLEAN_NAMES),
        )
        for name in names
    },
}


def test_every_pinned_report_is_regenerated():
    assert sorted(os.listdir(REPORTS)) == sorted(PINNED)


@pytest.mark.parametrize("fname", sorted(PINNED))
def test_report_matches_the_pinned_bytes(fname, capsys):
    assert main(PINNED[fname]) == 0
    assert capsys.readouterr().out == (REPORTS / fname).read_text()


# run in a fresh interpreter: every function (CO_OPTIMIZED code: functions,
# methods, lambdas, comprehensions) of biskit that runs while biskit.cli
# is imported, by the profiler's call events
IMPORT_PROFILE = """
import inspect, os, sys
src = os.path.join(sys.argv[1], "biskit")
ran = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_flags & inspect.CO_OPTIMIZED:
        if os.path.abspath(code.co_filename).startswith(src):
            ran.add(f"{os.path.basename(code.co_filename)}:{code.co_name}")

sys.setprofile(profile)
import biskit.cli
sys.setprofile(None)
print("\\n".join(sorted(ran)))
"""


def test_importing_biskit_runs_only_module_and_class_bodies():
    # the CLI's start-up time is the import: a table, cache or check built
    # at import time would be paid by every command, whatever it reads
    src = os.path.dirname(os.path.dirname(os.path.abspath(biskit.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROFILE, src],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    ).stdout
    assert out.split() == []
