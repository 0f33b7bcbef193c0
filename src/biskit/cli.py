"""Command-line front end.

Subcommands: analyze, booleanize, decompose, type, iso, verify.  All output
is deterministic for identical input bytes; timings are only collected when
--timings is passed (and are then the one nondeterministic field).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from functools import cache

from .boolean import check_boolean
from .booleanization import booleanize, booleanization_iso
from .core import parse_semigroup, semigroup_iso
from .corpus import (
    GROUPOID_BUILDERS,
    SEMIGROUP_BUILDERS,
    corpus_groupoid,
    corpus_semigroup,
)
from .errors import BiskitError
from .groupoid import parse_groupoid
from .laws import Analysis, run_laws
from .rook import decompose
from .typemon import type_monoid


@dataclass
class Report:
    validity: bool
    error: str | None = None
    zero: int | None = None
    idempotent_count: int | None = None
    atom_count: int | None = None
    boolean: bool | None = None
    boolean_failure: list | None = None
    fundamental: bool | None = None
    zero_simplifying: bool | None = None
    simple: bool | None = None
    decomposition_signature: list | None = None
    type_monoid_rank: int | None = None
    tau: list | None = None
    timings: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text):
        return cls(**json.loads(text))


def _listify(x):
    if isinstance(x, (list, tuple)):
        return [_listify(v) for v in x]
    return x


def build_report(s, timings=None):
    """Read one Analysis of a validated structure into a Report.

    With a timings dict, each stage's duration in seconds is added to it
    under the stage's name.
    """
    a = Analysis(s)
    last = time.perf_counter()

    def mark(stage):
        nonlocal last
        now = time.perf_counter()
        if timings is not None:
            timings[stage] = round(now - last, 6)
        last = now

    rep = Report(
        validity=True,
        zero=s.zero,
        idempotent_count=len(s.idempotents),
        atom_count=len(s.atoms) if s.zero is not None else None,
    )
    chk = a.check
    rep.boolean = bool(chk.boolean) if chk else False
    if chk and not chk.boolean:
        rep.boolean_failure = _listify(chk.failure)
    mark("check_boolean")
    if a.bs is not None:
        rep.fundamental = a.fundamental
        rep.zero_simplifying = a.zero_simplifying
        rep.simple = a.zero_simplifying and a.fundamental
        mark("ideals")
        rep.decomposition_signature = _listify(a.decomposition.signature)
        mark("decompose")
        rep.type_monoid_rank = a.tm.rank
        rep.tau = [[e, list(a.tm.tau[e])] for e in sorted(a.tm.tau)]
        mark("type_monoid")
    if timings is not None:
        rep.timings = timings
    return rep


def print_report(rep, fmt, out=None):
    out = out or sys.stdout
    if fmt == "json":
        print(rep.to_json(), file=out)
        return
    for key, value in asdict(rep).items():
        print(f"{key}: {value}", file=out)


def _read_semigroup(path):
    with open(path) as fh:
        return parse_semigroup(fh.read())


def _read_boolean(path):
    """The table at path as a BoolInvSgp, or None once the Boolean axiom it
    fails is printed as an error line."""
    chk = check_boolean(_read_semigroup(path))
    if not chk.boolean:
        print(f"error: NotBoolean: {chk.failure}", file=sys.stderr)
    return chk.structure


def cmd_analyze(args):
    start = time.perf_counter()
    try:
        s = _read_semigroup(args.path)
    except (BiskitError, OSError) as e:
        rep = Report(validity=False, error=f"{type(e).__name__}: {e}")
        print_report(rep, args.format)
        return 1
    timings = None
    if args.timings:
        timings = {"parse_validate": round(time.perf_counter() - start, 6)}
    print_report(build_report(s, timings), args.format)
    return 0


def render_booleanization(b):
    """The target table as .ist text, with the id map appended as comments."""
    from .corpus import render_ist

    lines = [render_ist([list(r) for r in b.bs.base.table]).rstrip("\n")]
    if b.source0.size != b.source.size:
        lines.append(f"# beta: zero adjoined to the source as id {b.source0.size - 1}")
    for a, t in enumerate(b.beta):
        lines.append(f"# beta: {a} -> {t}")
    return "\n".join(lines) + "\n"


def cmd_booleanize(args):
    b = booleanize(_read_semigroup(args.path))
    text = render_booleanization(b)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {b.bs.size} elements to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_decompose(args):
    """Print the signature once decompose's certificate has held; a failed
    certificate raises CertificateFailed and exits 1 like any other error."""
    bs = _read_boolean(args.path)
    if bs is None:
        return 1
    cert = decompose(bs)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "signature": _listify(cert.signature),
                    "verified": True,
                },
                indent=2,
            )
        )
    else:
        sig = ", ".join(f"({n} x {name})" for n, _h, name in cert.signature)
        print(f"signature: {sig}")
        print("verified: True")
    return 0


def cmd_type(args):
    bs = _read_boolean(args.path)
    if bs is None:
        return 1
    tm = type_monoid(bs)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "rank": tm.rank,
                    "tau": [[e, list(tm.tau[e])] for e in sorted(tm.tau)],
                },
                indent=2,
            )
        )
    else:
        print(f"rank: {tm.rank}")
        for e in sorted(tm.tau):
            print(f"tau({e}) = {tuple(tm.tau[e])}")
    return 0


def cmd_iso(args):
    s = _read_semigroup(args.paths[0])
    t = _read_semigroup(args.paths[1])
    if args.mode == "direct":
        cert = semigroup_iso(s, t)
    else:
        cert = booleanization_iso(s, t)
    isomorphic = cert is not None
    if args.format == "json":
        print(
            json.dumps(
                {"isomorphic": isomorphic, "witness": _listify(cert)}, indent=2
            )
        )
    else:
        print(f"isomorphic: {isomorphic}")
        if cert is not None:
            print(f"witness: {list(cert)}")
    return 0


def _print_law_lines(label, results, timings):
    print(label)
    for r in results:
        if r.status == "pass":
            line = f"  {r.key}: pass"
        elif r.status == "skip":
            line = f"  {r.key}: skip ({r.note})"
        else:
            line = f"  {r.key}: FAIL {r.witness}"
        print(f"{line} [{r.seconds} s]" if timings else line)


def cmd_verify(args):
    """Run the law suite on each target.

    Text output streams one block per target.  With --format json one list
    is printed at the end, an object per target: {"target", "laws": [{"key",
    "status", "witness", "note"}]}, or {"target", "error"} when it does not
    validate.  With --timings each law also gets the seconds it took, as
    "seconds" in JSON and "[... s]" after its text line.  The exit code is
    1 if any target fails either way.
    """
    targets = []
    if args.corpus:
        for name in SEMIGROUP_BUILDERS:
            targets.append((f"{name}.ist", lambda n=name: corpus_semigroup(n)))
        for name in GROUPOID_BUILDERS:
            targets.append((f"{name}.grp", lambda n=name: corpus_groupoid(n)))
    else:
        def load(path=args.path):
            with open(path) as fh:
                text = fh.read()
            if path.endswith(".grp"):
                return parse_groupoid(text)
            return parse_semigroup(text)

        targets.append((args.path, load))

    as_json = args.format == "json"
    report = []
    any_failure = False
    for label, load in targets:
        try:
            obj = load()
        except (BiskitError, OSError) as e:
            error = f"{type(e).__name__}: {e}"
            if as_json:
                report.append({"target": label, "error": error})
            else:
                print(label)
                print(f"  validation: FAIL {error}")
            any_failure = True
            continue
        results = run_laws(obj)
        if as_json:
            laws = [asdict(r) for r in results]
            if not args.timings:
                for law in laws:
                    del law["seconds"]
            report.append({"target": label, "laws": laws})
        else:
            _print_law_lines(label, results, args.timings)
        failures = [r for r in results if r.status == "fail"]
        if failures:
            any_failure = True
            first = failures[0]
            print(f"first failure: {first.key} witness={first.witness}", file=sys.stderr)
    if as_json:
        print(json.dumps(report, indent=2, default=repr))
    return 1 if any_failure else 0


@cache
def make_parser():
    """The argparse tree, built once per process; main looks up the
    subcommand's handler, cmd_<command>, when it runs."""
    p = argparse.ArgumentParser(
        prog="biskit",
        description="finite inverse semigroup and Boolean inverse monoid tool",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("path", help="input .ist file")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("analyze", help="full structural report")
    common(sp)
    sp.add_argument("--timings", action="store_true")

    sp = sub.add_parser("booleanize", help="write the Booleanization table")
    sp.add_argument("path", help="input .ist file")
    sp.add_argument("--out", help="output path (default stdout)")

    sp = sub.add_parser("decompose", help="matrix-monoid product signature")
    common(sp)

    sp = sub.add_parser("type", help="type monoid rank and counts")
    common(sp)

    sp = sub.add_parser("iso", help="isomorphism tests")
    sp.add_argument("paths", nargs=2, help="two .ist files")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument(
        "--mode", choices=("booleanization", "direct"), default="booleanization"
    )

    sp = sub.add_parser("verify", help="run the law suite")
    target = sp.add_mutually_exclusive_group(required=True)
    target.add_argument("path", nargs="?", help=".ist or .grp file")
    target.add_argument("--corpus", action="store_true", help="verify bundled corpus")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--timings", action="store_true", help="seconds per law")

    return p


def main(argv=None):
    """Run one subcommand; a BiskitError or OSError it raises is printed as
    one `error:` line on stderr and exits 1."""
    args = make_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (BiskitError, OSError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
