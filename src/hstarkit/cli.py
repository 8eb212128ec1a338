"""Command-line front end.

Standard output carries report payloads only; diagnostics go to standard
error, with verbosity controlled by HSTARKIT_LOG (error, warn, info,
debug). Exit codes: 0 success, 2 parse or parameter error, 3 cap exceeded,
4 verification mismatch or internal check failure, 5 hypothesis not met in
strict mode.
"""
from __future__ import annotations

import argparse
import inspect
import logging
import os
import sys
from fractions import Fraction

from . import families, verify
from .boxgroup import DEFAULT_VOLUME_CAP, enumerate_box_group
from .errors import (
    DocumentError,
    HstarkitError,
    HypothesisNotMetError,
    InternalCheckError,
    InvalidParametersError,
    ScanTooLargeError,
    VolumeTooLargeError,
)
from .hstar import HStarVector, ehrhart_from_hstar, hstar_from_box_group
from .io import (
    SCHEMA_VERSION,
    SimplexDocument,
    canonical_dumps,
    decode_int,
    load_simplex_document,
)
from .oracle import DEFAULT_SCAN_CAP, cross_validate
from .search import search_windows
from .theorem import ExtractionCertificate, condition_report, extract_face

log = logging.getLogger("hstarkit")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_MISMATCH = 4
EXIT_HYPOTHESIS = 5

_ELEMENT_DUMP_LIMIT = 10**4


def _configure_logging() -> None:
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    raw = os.environ.get("HSTARKIT_LOG", "warn").lower()
    logging.basicConfig(stream=sys.stderr, level=levels.get(raw, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _coords_strings(row: list[int], q: int) -> list[str]:
    """One element's coordinates, numerators over the exponent q, as reduced fractions."""
    return [str(Fraction(r, q)) for r in row]


def _base_report(command: str, doc: SimplexDocument, order: int, h: HStarVector) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": doc.to_json_dict(),
        "hstar": list(h.coeffs),
        "degree": h.degree,
        "volume": str(h.normalized_volume),
        "box_group_order": order,
    }


def _cap(text: str) -> int:
    """A cap option's value; one below 1 would refuse every input and raises while parsing."""
    value = decode_int(text)
    if value < 1:
        raise InvalidParametersError(f"caps must be at least 1, got {value}")
    return value


def _emit(payload: dict) -> None:
    sys.stdout.write(canonical_dumps(payload))


def _certificate_json(cert: ExtractionCertificate) -> dict:
    out = {
        "k": cert.k,
        "strict": cert.strict,
        "window_ok": cert.window_ok,
        "hypothesis_met": cert.hypothesis_met,
        "hstar": list(cert.hstar.coeffs),
        "support": list(cert.support),
        "face_selector": list(cert.face_selector),
        "face_hstar": list(cert.face_hstar.coeffs),
        "truncation": list(cert.truncation.coeffs),
        "lemma31_ok": cert.lemma31_ok,
        "subgroup_ok": cert.subgroup_ok,
        "support_bound_ok": cert.support_bound_ok,
        "hstar_match": cert.hstar_match,
    }
    if len(cert.lambda_prime) <= _ELEMENT_DUMP_LIMIT:
        out["lambda_prime"] = [_coords_strings(r, cert.exponent) for r in cert.lambda_prime.tolist()]
    return out


def cmd_hstar(args) -> int:
    doc = load_simplex_document(args.file)
    group = enumerate_box_group(doc.to_simplex(), volume_cap=args.volume_cap)
    h = hstar_from_box_group(group)
    _emit(_base_report("hstar", doc, group.order, h))
    return EXIT_OK


def cmd_box_group(args) -> int:
    doc = load_simplex_document(args.file)
    group = enumerate_box_group(doc.to_simplex(), volume_cap=args.volume_cap)
    h = hstar_from_box_group(group)
    report = _base_report("box-group", doc, group.order, h)
    report["invariant_factors"] = list(group.invariant_factors)
    report["level_counts"] = {str(k): v for k, v in group.level_counts().items()}
    if group.order <= _ELEMENT_DUMP_LIMIT:
        report["elements"] = [_coords_strings(r, group.exponent) for r in group.rows().tolist()]
    _emit(report)
    return EXIT_OK


def cmd_ehrhart(args) -> int:
    if args.n < 0:
        raise InvalidParametersError(f"dilation --n must be nonnegative, got {args.n}")
    doc = load_simplex_document(args.file)
    simplex = doc.to_simplex()
    group = enumerate_box_group(simplex, volume_cap=args.volume_cap)
    h = hstar_from_box_group(group)
    report = _base_report("ehrhart", doc, group.order, h)
    report["n"] = args.n
    report["count"] = ehrhart_from_hstar(h, simplex.dimension, args.n)
    _emit(report)
    return EXIT_OK


def cmd_oracle_verify(args) -> int:
    doc = load_simplex_document(args.file)
    simplex = doc.to_simplex()
    group = enumerate_box_group(simplex, volume_cap=args.volume_cap)
    h = hstar_from_box_group(group)
    report = _base_report("oracle-verify", doc, group.order, h)
    cv = cross_validate(simplex, h, scan_cap=args.scan_cap)
    report["oracle_hstar"] = list(cv.oracle_hstar.coeffs)
    report["match"] = cv.match
    report["heldout_ok"] = cv.heldout_ok
    expected_ok = True
    if doc.expected_hstar is not None:
        expected_ok = h.coeffs == tuple(doc.expected_hstar)
        report["expected_ok"] = expected_ok
    _emit(report)
    if not cv.match or cv.heldout_ok is False or not expected_ok:
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_extract_face(args) -> int:
    doc = load_simplex_document(args.file)
    cert = extract_face(doc.to_simplex(), args.k, strict=args.strict, volume_cap=args.volume_cap)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "extract-face",
        "input": doc.to_json_dict(),
        "certificate": _certificate_json(cert),
    }
    _emit(report)
    return EXIT_OK


# gen family -> (constructor, its integer flags in call order, default
# document name); a flag is optional where the constructor has a default.
# `join`, which reads two documents, is the one family outside the table.
_GEN_FAMILIES = {
    "unit": (families.unit_simplex, ("dim",), "unit_d{dim}"),
    "delta_cm": (families.delta_cm, ("c", "m"), "delta_cm_c{c}_m{m}"),
    "lemma41": (families.lemma41_simplex, ("a", "b", "k", "l"), "lemma41_a{a}_b{b}_k{k}_l{l}"),
    "prop43": (families.prop43_instance, ("k", "j", "p"), "prop43_k{k}_j{j}_p{p}"),
    "remark44": (families.remark44_simplex, ("k",), "remark44_k{k}"),
}


def cmd_gen(args) -> int:
    if args.family == "join":
        left = load_simplex_document(args.left).to_simplex()
        right = load_simplex_document(args.right).to_simplex()
        simplex, name = families.join(left, right), "join"
    else:
        make, flags, template = _GEN_FAMILIES[args.family]
        values = {flag: getattr(args, flag) for flag in flags}
        simplex = make(*values.values())
        name = template.format(**values)
    _emit(SimplexDocument.from_simplex(simplex, name=args.name or name).to_json_dict())
    return EXIT_OK


def _parse_hstar_arg(text: str) -> HStarVector:
    try:
        coeffs = [decode_int(part) for part in text.split(",")]
    except DocumentError as exc:
        raise DocumentError(f"not a comma-separated integer list: {text!r}") from exc
    if not coeffs or coeffs[0] != 1 or any(c < 0 for c in coeffs):
        raise DocumentError("coefficients must be nonnegative and start with 1")
    return HStarVector.of(coeffs)


def cmd_check_conditions(args) -> int:
    h = _parse_hstar_arg(args.hstar)
    entries = condition_report(h, dim=args.dim)
    if args.json:
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "command": "check-conditions",
                "hstar": list(h.coeffs),
                "dim": args.dim,
                "conditions": [
                    {"name": e.name, "status": e.status, "detail": e.detail}
                    for e in entries
                ],
            }
        )
    else:
        width = max(len(e.name) for e in entries)
        sys.stdout.write(f"h* = {list(h.coeffs)}"
                         + (f"  (dim {args.dim})" if args.dim is not None else "")
                         + "\n")
        for e in entries:
            detail = " ".join(f"{k}={v}" for k, v in e.detail.items() if v is not None)
            sys.stdout.write(f"{e.name.ljust(width)}  {e.status}"
                             + (f"  [{detail}]" if detail else "") + "\n")
    return EXIT_OK


def cmd_verify_suite(args) -> int:
    records, ok = verify.run_suite(args.corpus, volume_cap=args.volume_cap, scan_cap=args.scan_cap)
    for record in records:
        _emit(record.to_json_dict())
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_search(args) -> int:
    hits = search_windows(args.k, args.window, args.max_order, args.max_dim, limit=args.limit)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for hit in hits:
            out.write(canonical_dumps(hit.to_json_dict()))
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hstarkit",
        description="Exact h*-polynomials of lattice simplices, two independent ways.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_caps(p) -> None:
        p.add_argument("--volume-cap", type=_cap, default=DEFAULT_VOLUME_CAP,
                       help="largest group order that will be enumerated")

    p = sub.add_parser("hstar", help="h* via the weight-group path")
    p.add_argument("file")
    add_caps(p)
    p.set_defaults(fn=cmd_hstar)

    p = sub.add_parser("box-group", help="full weight group with level counts")
    p.add_argument("file")
    add_caps(p)
    p.set_defaults(fn=cmd_box_group)

    p = sub.add_parser("ehrhart", help="lattice-point count of a dilate")
    p.add_argument("file")
    p.add_argument("--n", type=decode_int, required=True)
    add_caps(p)
    p.set_defaults(fn=cmd_ehrhart)

    p = sub.add_parser("oracle-verify", help="group path against counting oracle")
    p.add_argument("file")
    add_caps(p)
    p.add_argument("--scan-cap", type=_cap, default=DEFAULT_SCAN_CAP,
                   help="largest bounding-box candidate count for scans")
    p.set_defaults(fn=cmd_oracle_verify)

    p = sub.add_parser("extract-face", help="face extraction certificate")
    p.add_argument("file")
    p.add_argument("--k", type=decode_int, required=True)
    p.add_argument("--strict", action="store_true",
                   help="enforce stated hypotheses instead of reporting")
    add_caps(p)
    p.set_defaults(fn=cmd_extract_face)

    p = sub.add_parser("gen", help="generate a family instance document")
    fam_sub = p.add_subparsers(dest="family", required=True)
    for family, (make, flags, _) in _GEN_FAMILIES.items():
        f = fam_sub.add_parser(family)
        params = inspect.signature(make).parameters.values()
        for flag, param in zip(flags, params):
            required = param.default is param.empty
            f.add_argument(f"--{flag}", type=decode_int, required=required,
                           default=None if required else param.default)
    f = fam_sub.add_parser("join")
    f.add_argument("--left", required=True)
    f.add_argument("--right", required=True)
    for f_parser in fam_sub.choices.values():
        f_parser.add_argument("--name")
        f_parser.set_defaults(fn=cmd_gen)

    p = sub.add_parser("check-conditions", help="condition report for a bare h*")
    p.add_argument("--hstar", required=True, help='comma-separated, e.g. "1,7,1"')
    p.add_argument("--dim", type=decode_int)
    p.add_argument("--json", action="store_true",
                   help="JSON output instead of the table")
    p.set_defaults(fn=cmd_check_conditions)

    p = sub.add_parser("verify-suite", help="run every invariant over a corpus")
    p.add_argument("--corpus", required=True)
    add_caps(p)
    p.add_argument("--scan-cap", type=_cap, default=DEFAULT_SCAN_CAP)
    p.set_defaults(fn=cmd_verify_suite)

    p = sub.add_parser("search", help="bounded search over cyclic weight groups")
    p.add_argument("--k", type=decode_int, required=True)
    p.add_argument("--window", choices=("weak", "strong"), required=True)
    p.add_argument("--max-order", type=decode_int, required=True)
    p.add_argument("--max-dim", type=decode_int, required=True)
    p.add_argument("--out")
    p.add_argument("--limit", type=decode_int)
    p.set_defaults(fn=cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except (VolumeTooLargeError, ScanTooLargeError) as exc:
        log.error("%s", exc)
        return EXIT_CAP
    except HypothesisNotMetError as exc:
        log.error("%s", exc)
        return EXIT_HYPOTHESIS
    except InternalCheckError as exc:
        log.error("internal check failed: %s", exc)
        return EXIT_MISMATCH
    except (HstarkitError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
