"""Command-line front end: data ingestion, expression parsing, suite
orchestration and reporting.

Exit codes: 0 all checks pass, 1 any check fails, 2 usage or validation
error, 3 degree-budget or size-guard abort.  ``main`` lifts Python's
limit on the digits of an int converted to or from text for its call, so
exact numbers of any size load and print.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import freealg, suites
from .envelope import EnvelopingAlgebra, PBWCertificateFailure
from .exactlin import echelonize, parse_rational
from .freealg import DegreeBudgetExceeded, ExprSyntaxError, SizeGuardExceeded
from .lts import (InvalidStructure, LieAlgebra, TripleSystem, check_axioms,
                  lts_from_lie, standard_embedding, simplicity_certificate,
                  lie_closure, r_generators)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class LoadError(ValueError):
    pass


def _excerpt(text, width=40):
    """``text`` quoted, cut to its first ``width`` characters if longer."""
    if len(text) <= width:
        return repr(text)
    return f"{text[:width]!r}... ({len(text)} characters)"


def _digits(text):
    """The digits of the longer integer part of a rational "p" or "p/q"."""
    return max(len(part.strip().lstrip("+-")) for part in text.split("/", 1))


def load_system(path):
    """Load a TripleSystem or LieAlgebra from a JSON document.

    Schema: {"name", "kind": "lts"|"lie", "dim", "basis": [...],
    "entries": [{"args": [i,j,k] or [i,j], "value": {"index": "p/q"}}]}.
    Omitted entries are zero; all nonzero constants must be listed
    explicitly (skew-symmetry is checked, never assumed).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise LoadError(f"{path}: invalid UTF-8 at byte {exc.start}: {exc.reason}")
    except json.JSONDecodeError as exc:
        raise LoadError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except RecursionError:
        raise LoadError(f"{path}: JSON nested too deeply")

    def fail(msg):
        raise LoadError(f"{path}: {msg}")

    if not isinstance(doc, dict):
        fail("top-level value must be an object")
    kind = doc.get("kind")
    if kind not in ("lts", "lie"):
        fail(f'"kind" must be "lts" or "lie", got {kind!r}')
    dim = doc.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        fail(f'"dim" must be a positive integer, got {dim!r}')
    basis = doc.get("basis")
    if not isinstance(basis, list) or len(basis) != dim:
        fail(f'"basis" must list exactly {dim} labels')
    if not all(isinstance(b, str) for b in basis):
        fail('"basis" labels must be strings')
    if len(set(basis)) != dim:
        fail('"basis" labels must be distinct')
    arity = 3 if kind == "lts" else 2
    raw_entries = doc.get("entries", [])
    if not isinstance(raw_entries, list):
        fail('"entries" must be a list')
    entries = []
    for pos, entry in enumerate(raw_entries):
        if not isinstance(entry, dict):
            fail(f"entry {pos}: must be an object")
        args = entry.get("args")
        if (not isinstance(args, list) or len(args) != arity
                or not all(isinstance(a, int) and not isinstance(a, bool)
                           for a in args)):
            fail(f"entry {pos}: \"args\" must be {arity} integer indices")
        for a in args:
            if not 0 <= a < dim:
                fail(f"entry {pos}: index {a} out of range for dim {dim}")
        value = entry.get("value")
        if not isinstance(value, dict):
            fail(f"entry {pos}: \"value\" must map indices to rationals")
        coords = {}
        for key, text in value.items():
            try:
                idx = int(key)
            except ValueError:
                fail(f"entry {pos}: bad coordinate index {key!r}")
            if not 0 <= idx < dim:
                fail(f"entry {pos}: coordinate index {idx} out of range")
            text = str(text)
            try:
                coords[idx] = parse_rational(text)
            except (ValueError, ZeroDivisionError):
                digits, limit = _digits(text), sys.get_int_max_str_digits()
                if limit and digits > limit:
                    fail(f"entry {pos}: rational of {digits} digits is too long "
                         f"(this interpreter converts at most {limit})")
                fail(f"entry {pos}: malformed rational {_excerpt(text)}")
        entries.append((tuple(args), coords))
    try:
        if kind == "lts":
            return TripleSystem.from_entries(dim, basis, entries)
        return LieAlgebra.from_entries(dim, basis, entries)
    except InvalidStructure as exc:
        fail(str(exc))


def _as_lts(obj):
    if isinstance(obj, LieAlgebra):
        return lts_from_lie(obj)
    return obj


def cmd_check(args):
    obj = load_system(args.file)
    if isinstance(obj, LieAlgebra):
        try:
            obj.validate()
        except InvalidStructure as exc:
            print(f"FAIL lie algebra: {exc}")
            return EXIT_FAIL
        print(f"pass: valid Lie algebra, dim {obj.dim}")
        return EXIT_PASS
    rep = check_axioms(obj)
    for label, verdict in (("alternating", rep.alternating),
                           ("cyclic", rep.cyclic),
                           ("derivation", rep.derivation)):
        status = "pass" if verdict.ok else f"FAIL at {verdict.counterexample}"
        print(f"axiom {label}: {status}")
    return EXIT_PASS if rep.ok else EXIT_FAIL


def cmd_embed(args):
    t = _as_lts(load_system(args.file))
    try:
        emb = standard_embedding(t)
    except InvalidStructure as exc:
        print(f"FAIL: {exc}")
        return EXIT_FAIL
    print(f"standard embedding: dim {emb.dim} = {emb.inn_dim} (inner derivations) "
          f"+ {emb.t_dim} (T)")
    rank = echelonize(emb.killing.values(), emb.dim).dim
    print(f"killing form rank: {rank} / {emb.dim}"
          + (" (nondegenerate)" if rank == emb.dim else " (degenerate)"))
    return EXIT_PASS


def cmd_endo(args):
    t = _as_lts(load_system(args.file))
    space, _ = lie_closure(r_generators(t), t.dim)
    ok = space.dim == t.dim ** 2
    print(f"lie closure of right-slot operators: dim {space.dim}, "
          f"expected {t.dim ** 2}")
    print(f"verdict: {'pass' if ok else 'FAIL'}")
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_simple(args):
    t = _as_lts(load_system(args.file))
    cert = simplicity_certificate(t)
    print(f"associative envelope dimension: {cert.envelope_dim} / {t.dim ** 2}")
    print(f"verdict: {cert.verdict}")
    if cert.witness is not None:
        print(f"invariant subspace witness of dimension {cert.witness.dim}")
    return EXIT_PASS if cert.verdict == "simple" else EXIT_FAIL


def _build(args, t):
    cap = args.N if args.N is not None else suites.default_cap(t)
    return EnvelopingAlgebra(t, cap, args.max_monomials)


def cmd_pbw(args):
    t = _as_lts(load_system(args.file))
    alg = _build(args, t)
    for n, dim in enumerate(alg.degree_dims):
        print(f"filtration level {n}: dim {dim}")
    print(f"relation span dim: {alg.relspan_dim}")
    print("certificate: pass")
    return EXIT_PASS


def cmd_mul(args):
    t = _as_lts(load_system(args.file))
    alg = _build(args, t)
    x, y = (freealg.parse(text, alg) for text in args.exprs)
    print((x * y).format())
    return EXIT_PASS


def cmd_ideal(args):
    t = _as_lts(load_system(args.file))
    alg = _build(args, t)
    gens = [freealg.parse(text, alg) for text in args.right]
    if not gens or all(g.is_zero() for g in gens):
        print("error: need at least one nonzero generator", file=sys.stderr)
        return EXIT_USAGE
    ic = alg.right_ideal_closure([g for g in gens if not g.is_zero()])
    print(f"right ideal closure: dim {ic.subspace.dim} / {alg.nf_size}")
    print(f"per-degree dims: {ic.per_degree_dims}")
    print(f"contains 1: {ic.contains_one}")
    print(f"intersection with T: dim {ic.meets_t_dim}")
    print(f"stabilization degree: {ic.stabilization_degree} "
          f"(safe window {ic.safe_window})")
    return EXIT_PASS


def cmd_verify(args):
    t = _as_lts(load_system(args.file))
    rep = suites.run_suite(args.suite, t, args.N, args.seed, args.max_monomials)
    if args.json:
        print(json.dumps(rep.to_dict(machine=True), sort_keys=True, indent=2))
    else:
        for r in rep.records:
            mark = "pass" if r["verdict"] == "pass" else "FAIL"
            extra = f" {r['params']}" if r["params"] else ""
            print(f"[{mark}] {r['id']}{extra}")
        print(f"suite {rep.suite}: {'pass' if rep.ok else 'FAIL'} "
              f"({len(rep.records)} checks, {rep.timing:.2f}s)")
    return EXIT_PASS if rep.ok else EXIT_FAIL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="triplex",
        description="Exact-arithmetic kernel for Lie triple systems and their "
                    "truncated nonassociative enveloping algebras.")
    parser.add_argument("--max-monomials", type=int, default=freealg.MAX_MONOMIALS,
                        help="hard guard on the free monomial table size")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify the defining identities of a system")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("embed", help="build the standard embedding Lie algebra")
    p.add_argument("file")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("endo", help="Lie closure of the right-slot operators")
    p.add_argument("file")
    p.set_defaults(func=cmd_endo)

    p = sub.add_parser("simple", help="simplicity certificate")
    p.add_argument("file")
    p.set_defaults(func=cmd_simple)

    p = sub.add_parser("pbw", help="build the truncated enveloping algebra")
    p.add_argument("file")
    p.add_argument("-N", type=int, default=None, help="degree cap")
    p.set_defaults(func=cmd_pbw)

    p = sub.add_parser("mul", help="multiply two expressions in normal form")
    p.add_argument("file")
    p.add_argument("-N", type=int, default=None)
    p.add_argument("exprs", nargs=2, metavar="expr")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("ideal", help="right ideal closure of given elements")
    p.add_argument("file")
    p.add_argument("-N", type=int, default=None)
    p.add_argument("--right", action="append", default=[], metavar="expr",
                   help="generator expression (repeatable)")
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("file")
    p.add_argument("-N", type=int, default=None)
    p.add_argument("--suite", required=True, choices=suites.SUITE_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="machine-readable report (byte-stable)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    # exact results of any size load and print; the guards bound the work
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.max_monomials < 1:
        print(f"error: --max-monomials must be at least 1, got {args.max_monomials}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (LoadError, InvalidStructure, ExprSyntaxError, ValueError) as exc:
        if isinstance(exc, (DegreeBudgetExceeded, SizeGuardExceeded)):
            print(f"budget error: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PBWCertificateFailure as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
