"""Command-line interface.

Exit codes separate tool problems from mathematics: 0 means success (and
all verifications passed), 1 means a mathematical check failed, 2 means a
usage error.  All randomized routines read their seed from --seed or the
QUANDLE_LAB_SEED environment variable (default 0), so output bytes are
reproducible.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import cyclic_reps, polysys
from .counterexamples import maschke_counterexample, s3_hom_demo
from .dihedral_reps import dihedral_closed_form
from .errors import QuandleLabError
from .fields import build_field_q, primitive_elements
from .presentation import classify_cyclic, normalize, pairing_tables, parse_word, prime_power_equivalent, verify_presentation
from .quandles import (
    Quandle,
    alexander,
    check_axioms,
    conj_quandle,
    core_quandle,
    dihedral,
    find_isomorphism,
    inner_group,
    is_cyclic_type,
    is_dihedral_group,
    orbits,
    trivial,
)
from .reps import INVARIANCE_TOL, decompose, regular_rep

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _load_quandle(path: str) -> Quandle:
    with open(path, "r", encoding="utf-8") as fh:
        return Quandle.from_json(fh.read())


def _field_and_alpha(args) -> tuple:
    F = build_field_q(args.q)
    if getattr(args, "alpha_poly", None):
        coeffs = [int(c) for c in args.alpha_poly.split(",")]
        alpha = F.from_coeffs(coeffs)
    else:
        alpha = F.exp_table[getattr(args, "alpha_log", 1) % (F.q - 1)]
    return F, alpha


def _emit(args, payload, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


# -- report rendering --

def decomposition_rows(decomp) -> list[dict]:
    rows = []
    for p in decomp.parts:
        rows.append({"dim": p.dim, "label": str(p.label),
                     "generator": p.generator_desc})
    rows.sort(key=lambda r: (r["dim"], r["label"], r["generator"]))
    return rows


def export_report(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, sort_keys=True)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()) if rows else [])
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    width = max((len(r["label"]) for r in rows), default=5)
    lines = [f"{'dim':>3}  {'label':<{width}}  generator"]
    for r in rows:
        lines.append(f"{r['dim']:>3}  {r['label']:<{width}}  {r['generator']}")
    return "\n".join(lines)


# -- subcommand handlers --

def cmd_new(args) -> int:
    if args.kind == "dihedral":
        Q = dihedral(args.n)
    elif args.kind == "trivial":
        Q = trivial(args.n)
    elif args.kind == "alexander":
        F, alpha = _field_and_alpha(args)
        Q = alexander(F, alpha)
    elif args.kind in ("conj", "core"):
        table = _group_table(args.group)
        Q = conj_quandle(table) if args.kind == "conj" else core_quandle(table)
    else:
        raise QuandleLabError(f"unknown kind {args.kind}")
    text = Q.to_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output} (order {Q.order})")
    else:
        print(text)
    return EXIT_OK


def _group_table(spec: str):
    from .counterexamples import s3_table
    if spec == "s3":
        return s3_table()
    if spec.startswith("cyclic:"):
        n = int(spec.split(":", 1)[1])
        return [[(a + b) % n for b in range(n)] for a in range(n)]
    with open(spec, "r", encoding="utf-8") as fh:
        return json.loads(fh.read())["table"]


def cmd_check(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        data = json.loads(fh.read())
    report = check_axioms(data["table"])
    payload = {"rack": report.rack, "quandle": report.quandle,
               "failures": [{"axiom": a, "witness": list(w)} for a, w in report.failures]}
    _emit(args, payload,
          f"rack: {report.rack}  quandle: {report.quandle}"
          + (f"  failures: {report.failures[:5]}" if report.failures else ""))
    return EXIT_OK if report.quandle else EXIT_CHECK_FAILED


def cmd_info(args) -> int:
    Q = _load_quandle(args.file)
    orbs = orbits(Q)
    inn = inner_group(Q)
    dih, m = is_dihedral_group(inn)
    cyclic = is_cyclic_type(Q) if Q.order > 2 else None
    payload = {
        "order": Q.order,
        "label": Q.label,
        "orbits": orbs,
        "inner_order": inn.order,
        "inner_dihedral": f"D_{m}" if dih else None,
        "cyclic_type": cyclic,
    }
    text = (f"order {Q.order}  label {Q.label!r}\n"
            f"orbits: {orbs}\n"
            f"inner group: order {inn.order}"
            + (f" (dihedral D_{m})" if dih else "") + "\n"
            f"cyclic type: {cyclic}")
    _emit(args, payload, text)
    return EXIT_OK


def cmd_iso(args) -> int:
    Q1, Q2 = _load_quandle(args.a), _load_quandle(args.b)
    mapping = find_isomorphism(Q1, Q2)
    payload = {"isomorphic": mapping is not None, "mapping": mapping}
    _emit(args, payload,
          f"isomorphic: {mapping}" if mapping is not None else "not isomorphic")
    return EXIT_OK


def cmd_rep_decompose(args) -> int:
    Q = _load_quandle(args.file)
    if args.closed_form:
        if Q != dihedral(Q.order):
            print("error: --closed-form needs a dihedral quandle table", file=sys.stderr)
            return EXIT_USAGE
        decomp = dihedral_closed_form(Q.order, tol=args.tol)
    else:
        decomp = decompose(regular_rep(Q), tol=args.tol, seed=args.seed)
    rows = decomposition_rows(decomp)
    if args.matrices:
        from .reps import matrix_to_json
        by_key = sorted(decomp.parts,
                        key=lambda p: (p.dim, str(p.label), p.generator_desc))
        for row, part in zip(rows, by_key):
            row["basis"] = matrix_to_json(part.subspace.basis)
    fmt = "json" if args.json or args.matrices else args.format
    print(export_report(rows, fmt))
    if not decomp.complete:
        print(f"warning: decomposition incomplete, residual dimension "
              f"{decomp.residual_dim}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_classify(args) -> int:
    result = classify_cyclic(args.q)
    F = result.field
    classes_payload = []
    for c in result.classes:
        classes_payload.append({
            "rep_log": F.log(c.representative),
            "member_logs": [F.log(m) for m in c.members],
            "member_polys": [F.element_str(m) for m in c.members],
        })
    payload = {"q": args.q, "count": result.count, "classes": classes_payload}
    status = EXIT_OK
    if args.verify_iso:
        ok = _verify_classification(result)
        payload["verified"] = ok
        if not ok:
            status = EXIT_CHECK_FAILED
    text = f"{result.count} classes"
    if args.verify_iso:
        text += f"  (cross-verified: {payload['verified']})"
    _emit(args, payload, text)
    return status


def _verify_classification(result) -> bool:
    """Cross-check the classes: the log-pattern criterion must match class
    membership for every primitive pair, and for small q an explicit
    isomorphism search between the Alexander quandles must agree."""
    F = result.field
    prims = primitive_elements(F)
    index = {}
    for i, c in enumerate(result.classes):
        for m in c.members:
            index[m] = i
    phi = dict(zip(prims, map(tuple, pairing_tables(F, prims).tolist())))
    for a in prims:
        for b in prims:
            same = index[a] == index[b]
            if prime_power_equivalent(F, a, b) != same or (phi[a] == phi[b]) != same:
                return False
    if F.q <= 16:
        # one quandle per alpha, so each inner group is computed once
        alex = {a: alexander(F, a) for a in prims}
        for a in prims:
            for b in prims:
                found = find_isomorphism(alex[a], alex[b]) is not None
                if found != (index[a] == index[b]):
                    return False
    return True


def cmd_present_normalize(args) -> int:
    F, alpha = _field_and_alpha(args)
    canon = normalize(parse_word(args.word), F, alpha)
    _emit(args, {"canonical": str(canon)}, str(canon))
    return EXIT_OK


def cmd_present_verify(args) -> int:
    F, alpha = _field_and_alpha(args)
    report = verify_presentation(F, alpha, max_len=args.max_len)
    _emit(args, {"q": report.q, "alpha": report.alpha,
                 "relations": report.relations_checked,
                 "images": report.canonical_images,
                 "words": report.words_checked},
          f"presentation verified: {report.relations_checked} relations, "
          f"{report.canonical_images} canonical images, "
          f"{report.words_checked} words")
    return EXIT_OK


def cmd_verify_appendix(args) -> int:
    rows = []
    failed = False
    for q in polysys.prime_powers_upto(args.qmax):
        F = build_field_q(q)
        for inv in polysys.log_involutions(F):
            cert = polysys.system_has_no_solution(inv)
            expected = True if q % 2 else (q > 4)
            note = "" if q % 2 else "outside the printed proof (char 2)"
            if cert.no_solutions != expected:
                failed = True
                note = (note + "; " if note else "") + "UNEXPECTED"
            rows.append({
                "q": q,
                "alpha_log": F.log(inv.alpha),
                "fixed_point": cert.fixed_point,
                "gcd_degree": cert.final_degree,
                "no_solutions": cert.no_solutions,
                "note": note,
            })
    if args.json:
        print(json.dumps(rows, sort_keys=True))
    else:
        print(f"{'q':>4} {'a-log':>6} {'fixed':>6} {'gcd-deg':>8} {'verdict':>9}  note")
        for r in rows:
            fp = "-" if r["fixed_point"] is None else r["fixed_point"]
            verdict = "none" if r["no_solutions"] else "SOLVABLE"
            print(f"{r['q']:>4} {r['alpha_log']:>6} {fp:>6} {r['gcd_degree']:>8} "
                  f"{verdict:>9}  {r['note']}")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_demo_maschke(args) -> int:
    B = np.array(json.loads(args.b), dtype=complex) if args.b else \
        np.array([[1, 1], [0, 1]], dtype=complex)
    report = maschke_counterexample(args.n, B)
    mult = report.multiplicities
    payload = {
        "criterion_holds": mult.criterion_holds,
        "sum_geometric": mult.sum_geometric,
        "sum_algebraic": mult.sum_algebraic,
        "completely_reducible": report.completely_reducible,
        "complement_exists": report.complement is not None,
    }
    text = (f"orbit representation of the dihedral quandle of order {2 * args.n}\n"
            f"1 + sum(geometric) = {1 + mult.sum_geometric}, "
            f"sum(algebraic) = {mult.sum_algebraic} -> criterion "
            f"{'holds' if mult.criterion_holds else 'fails'}\n"
            f"invariant complement of the witness line: "
            f"{'exists' if report.complement is not None else 'none'}\n"
            f"completely reducible: {report.completely_reducible}")
    _emit(args, payload, text)
    if mult.criterion_holds and not report.completely_reducible:
        return EXIT_OK
    if not mult.criterion_holds and report.completely_reducible:
        return EXIT_OK
    return EXIT_CHECK_FAILED


def cmd_demo_s3(args) -> int:
    report = s3_hom_demo(args.r)
    payload = {
        "mapping": report.mapping,
        "pairs_checked": report.quandle_pairs_checked,
        "quandle_hom": report.quandle_hom,
        "group_violation": list(report.group_violation),
    }
    _emit(args, payload, report.describe())
    return EXIT_OK if report.quandle_hom else EXIT_CHECK_FAILED


def cmd_rigidity(args) -> int:
    F, alpha = _field_and_alpha(args)
    lams = [complex(x) for x in args.eigenvalues.split(",")]
    spec = cyclic_reps.JordanSpec(tuple((lam, 1) for lam in lams))
    report = cyclic_reps.rigidity_check(spec, F, alpha,
                                        restarts=args.restarts, seed=args.seed)
    payload = {
        "q": report.q,
        "restarts": report.restarts,
        "converged_to_J": report.converged_to_J,
        "offside_candidates": len(report.candidates),
        "best_offside_residual": report.best_offside_residual,
        "counterexample": report.found_counterexample,
    }
    best = ("none" if not report.candidates
            else f"{report.best_offside_residual:.3e}")
    _emit(args, payload,
          f"{report.restarts} restarts: {report.converged_to_J} converged to J, "
          f"{len(report.candidates)} stayed away (best residual {best}); "
          f"counterexample found: {report.found_counterexample}")
    return EXIT_CHECK_FAILED if report.found_counterexample else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quandle",
        description="finite quandles: construction, classification, representations")
    parser.add_argument("--json", action="store_true", help="JSON output")
    parser.add_argument("--seed", type=int,
                        default=int(os.environ.get("QUANDLE_LAB_SEED", "0")),
                        help="seed for randomized routines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("new", help="construct a quandle and write its JSON")
    p.add_argument("--kind", required=True,
                   choices=["dihedral", "trivial", "alexander", "conj", "core"])
    p.add_argument("--n", type=int, help="order (dihedral/trivial)")
    p.add_argument("--q", type=int, help="field size (alexander)")
    p.add_argument("--alpha-log", type=int, default=1)
    p.add_argument("--alpha-poly", type=str, default=None,
                   help="alpha as comma-separated coefficients, constant first")
    p.add_argument("--group", type=str,
                   help="group table JSON path, or 's3', or 'cyclic:N'")
    p.add_argument("-o", "--output", type=str, default=None)
    p.set_defaults(func=cmd_new)

    p = sub.add_parser("check", help="verify quandle axioms on a table")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("info", help="orbits, inner group, cyclic type")
    p.add_argument("file")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("iso", help="search for an isomorphism between two quandles")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("rep", help="representation operations")
    rep_sub = p.add_subparsers(dest="rep_command", required=True)
    pd = rep_sub.add_parser("decompose", help="decompose the regular representation")
    pd.add_argument("file")
    pd.add_argument("--closed-form", action="store_true")
    pd.add_argument("--tol", type=float, default=INVARIANCE_TOL)
    pd.add_argument("--format", choices=["text", "json", "csv"], default="text")
    pd.add_argument("--matrices", action="store_true",
                    help="include part bases as [re, im] pair arrays (JSON)")
    pd.set_defaults(func=cmd_rep_decompose)

    p = sub.add_parser("classify-cyclic",
                       help="prime-power classes of primitive elements")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--verify-iso", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("present", help="presented-quandle operations")
    pre_sub = p.add_subparsers(dest="present_command", required=True)
    pn = pre_sub.add_parser("normalize", help="canonical form of a word")
    pn.add_argument("--q", type=int, required=True)
    pn.add_argument("--alpha-log", type=int, default=1)
    pn.add_argument("--alpha-poly", type=str, default=None)
    pn.add_argument("word")
    pn.set_defaults(func=cmd_present_normalize)
    pv = pre_sub.add_parser("verify", help="check the presentation against the field")
    pv.add_argument("--q", type=int, required=True)
    pv.add_argument("--alpha-log", type=int, default=1)
    pv.add_argument("--alpha-poly", type=str, default=None)
    pv.add_argument("--max-len", type=int, default=6)
    pv.set_defaults(func=cmd_present_verify)
    pc = pre_sub.add_parser("classify", help="alias of classify-cyclic")
    pc.add_argument("--q", type=int, required=True)
    pc.add_argument("--verify-iso", action="store_true")
    pc.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="verification suites")
    ver_sub = p.add_subparsers(dest="verify_command", required=True)
    va = ver_sub.add_parser("appendix",
                            help="log involutions and unsolvable equation systems")
    va.add_argument("--qmax", type=int, required=True)
    va.set_defaults(func=cmd_verify_appendix)

    p = sub.add_parser("demo", help="worked examples")
    demo_sub = p.add_subparsers(dest="demo_command", required=True)
    dm = demo_sub.add_parser("maschke", help="invariant subspace without a complement")
    dm.add_argument("--n", type=int, default=2)
    dm.add_argument("--b", type=str, default=None,
                    help="matrix B as JSON, e.g. '[[1,1],[0,1]]'")
    dm.set_defaults(func=cmd_demo_maschke)
    ds = demo_sub.add_parser("s3-hom",
                             help="a quandle homomorphism that is not a group one")
    ds.add_argument("--r", type=str, default="r")
    ds.set_defaults(func=cmd_demo_s3)
    dr = demo_sub.add_parser("rigidity",
                             help="falsification search for a second generator")
    dr.add_argument("--q", type=int, required=True)
    dr.add_argument("--alpha-log", type=int, default=1)
    dr.add_argument("--eigenvalues", type=str, default="2,3")
    dr.add_argument("--restarts", type=int, default=200)
    dr.set_defaults(func=cmd_rigidity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QuandleLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
