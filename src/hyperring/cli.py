"""Command-line front end.

Exit codes: 0 success, 1 semantic validation failure, 2 input parse
failure, 3 strict-mode verification failure.  All output has fixed field
order and no floating-point content, so runs are byte-reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile
from collections import Counter, defaultdict

from .constructions import PRODUCT_TABLE_LIMIT, product_ring, quotient_ring
from .core import (
    HyperRing,
    RawRing,
    make_zn_multiplier_ring,
    validate_structure,
)
from .corpus import DEFAULT_CONFIG, iter_corpus, iter_suite_by_class, worked_example_records
from .errors import CapExceeded, HyperRingError, ValidationError
from .ideals import (
    DEFAULT_ENUM_CAP,
    alpha_nilradical,
    alpha_prime_violation,
    alpha_radical,
    as_hyperideal,
    generate_hyperideal,
    hyperideal_violation,
    is_maximal,
    is_primary,
    nilradical,
    prime_violation,
    radical_detail,
)
from .morphisms import enumerate_endomorphisms, good_homomorphism, identity_endomorphism
from .verifier import (
    Instance,
    KIND_RING_ALPHA,
    KIND_RING_ALPHA_IDEAL,
    KIND_RING_IDEAL,
    STATUS_FAILS,
    STATUS_HOLDS,
    STATUS_NOT_MET,
    STATUS_UNDECIDED,
    catalog_ids,
    ledgered_theorems,
    write_report,
)

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_PARSE = 2
EXIT_STRICT = 3


class ParseFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# input documents


def _capped_order(order: int) -> int:
    """Parsed rings are capped at the largest table the package builds itself."""
    if order > PRODUCT_TABLE_LIMIT:
        raise CapExceeded(f"ring order {order} exceeds the cap {PRODUCT_TABLE_LIMIT}")
    return order


def parse_ring_spec(doc: dict) -> HyperRing:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseFailure("ring spec must be an object with a 'kind' field")
    kind = doc["kind"]
    name = doc.get("name")
    if kind == "zn_multiplier":
        try:
            modulus = _capped_order(int(doc["modulus"]))
            multipliers = [int(m) for m in doc["multipliers"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseFailure(f"bad zn_multiplier spec: {exc}") from exc
        return make_zn_multiplier_ring(modulus, multipliers, name=name)
    if kind == "table":
        try:
            order = _capped_order(int(doc["order"]))
            zero = int(doc["zero"])
            add = [[int(v) for v in row] for row in doc["add"]]
            neg = [int(v) for v in doc["neg"]]
            hyp = [[[int(v) for v in cell] for cell in row] for row in doc["hyp"]]
            identity = doc.get("identity")
            identity = int(identity) if identity is not None else None
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseFailure(f"bad table spec: {exc}") from exc
        flavor = doc.get("identity_flavor")
        raw = RawRing(
            order=order,
            zero=zero,
            add=add,
            neg=neg,
            hyp=hyp,
            name=name or "table-ring",
            identity=identity,
            identity_flavor=flavor,
        )
        try:
            return validate_structure(raw)
        except ValueError as exc:
            raise ParseFailure(str(exc)) from exc
    raise ParseFailure(f"unknown ring kind {kind!r}")


def load_ring(path: str) -> HyperRing:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseFailure(f"cannot read ring file {path}: {exc}") from exc
    return parse_ring_spec(doc)


def parse_ideal_spec(ring: HyperRing, spec: str):
    """'0,3' (elements), 'gen:2,3' (generators), or a JSON object."""
    spec = spec.strip()
    if spec.startswith("{"):
        try:
            doc = json.loads(spec)
            if "elements" in doc:
                return ("elements", [int(v) for v in doc["elements"]])
            if "generators" in doc:
                return ("generators", [int(v) for v in doc["generators"]])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseFailure(f"bad ideal spec: {exc}") from exc
        raise ParseFailure("ideal spec object needs 'elements' or 'generators'")
    if spec.startswith("gen:"):
        body = spec[len("gen:"):]
        try:
            return ("generators", [int(v) for v in body.split(",") if v != ""])
        except ValueError as exc:
            raise ParseFailure(f"bad generator list {body!r}") from exc
    try:
        return ("elements", [int(v) for v in spec.split(",") if v != ""])
    except ValueError as exc:
        raise ParseFailure(f"bad element list {spec!r}") from exc


def resolve_ideal(ring: HyperRing, spec: str):
    """Returns (subset, ideal-or-None, witness-or-None)."""
    mode, values = parse_ideal_spec(ring, spec)
    if mode == "generators":
        ideal = generate_hyperideal(ring, values)
        return ideal.elements, ideal, None
    subset = ring.check_subset(values)
    witness = hyperideal_violation(ring, subset)
    if witness is not None:
        return subset, None, witness
    return subset, as_hyperideal(ring, subset), None


def parse_endo_spec(ring: HyperRing, spec: str):
    spec = spec.strip()
    if spec == "id":
        return identity_endomorphism(ring)
    if spec == "zero":
        table = tuple(ring.zero for _ in range(ring.order))
        return good_homomorphism(ring, ring, table, "zero")
    if spec.startswith("{"):
        try:
            doc = json.loads(spec)
            kind = doc.get("kind")
            if kind == "scale":
                spec = f"scale:{int(doc['factor'])}"
            elif kind == "map":
                spec = "map:" + ",".join(str(int(v)) for v in doc["image"])
            else:
                raise ParseFailure("endomorphism spec object needs kind scale|map")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseFailure(f"bad endomorphism spec: {exc}") from exc
    if spec.startswith("scale:"):
        try:
            factor = int(spec[len("scale:"):])
        except ValueError as exc:
            raise ParseFailure(f"bad scale factor in {spec!r}") from exc
        if "zn_multiplier" not in ring.tags:
            raise ParseFailure("scale endomorphisms need a zn_multiplier ring")
        table = tuple((factor * x) % ring.order for x in range(ring.order))
        return good_homomorphism(ring, ring, table, f"scale{factor % ring.order}")
    if spec.startswith("map:"):
        body = spec[len("map:"):]
        try:
            table = tuple(int(v) for v in body.split(","))
        except ValueError as exc:
            raise ParseFailure(f"bad map image {body!r}") from exc
        return good_homomorphism(ring, ring, table)
    raise ParseFailure(f"unknown endomorphism spec {spec!r}")


# ---------------------------------------------------------------------------
# canonical ring emission (round-trip stable)


def ring_spec_document(ring: HyperRing) -> dict:
    doc = {
        "name": ring.name,
        "kind": "table",
        "order": ring.order,
        "zero": ring.zero,
        "add": [list(row) for row in ring.add],
        "neg": list(ring.neg),
        "hyp": [[sorted(cell) for cell in row] for row in ring.hyp],
    }
    if ring.props.identity is not None:
        doc["identity"] = ring.props.identity
        doc["identity_flavor"] = ring.props.identity_flavor
    return doc


def emit_ring_spec(ring: HyperRing) -> str:
    return json.dumps(ring_spec_document(ring), separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# output helpers


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (frozenset, set)):
        return "{" + ",".join(str(v) for v in sorted(value)) + "}"
    if isinstance(value, tuple):
        return "(" + ",".join(str(v) for v in value) + ")"
    return str(value)


def emit_record(pairs, as_json: bool, out) -> None:
    if as_json:
        doc = {}
        for key, value in pairs:
            if isinstance(value, (frozenset, set)):
                value = sorted(value)
            doc[key] = value
        out.write(json.dumps(doc, separators=(", ", ": ")) + "\n")
    else:
        for key, value in pairs:
            out.write(f"{key}: {_fmt(value)}\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args, out) -> int:
    try:
        ring = load_ring(args.ring)
    except ValidationError as exc:
        out.write(f"invalid: {exc}\nwitness: {_fmt(exc.witness)}\n")
        return EXIT_SEMANTIC
    pairs = [
        ("ring", ring.name),
        ("order", ring.order),
        ("valid", True),
        ("commutative", ring.props.commutative),
        ("strongly_distributive", ring.props.strongly_distributive),
        ("zero_absorbing", ring.props.zero_absorbing),
        ("identity", ring.props.identity),
        ("identity_flavor", ring.props.identity_flavor),
        ("degenerate_multiplier", "degenerate_multiplier" in ring.tags),
    ]
    emit_record(pairs, args.json, out)
    return EXIT_OK


def cmd_props(args, out) -> int:
    try:
        ring = load_ring(args.ring)
    except ValidationError as exc:
        out.write(f"invalid: {exc}\nwitness: {_fmt(exc.witness)}\n")
        return EXIT_SEMANTIC
    props = ring.props
    pairs = [
        ("ring", ring.name),
        ("commutative", props.commutative),
        ("strongly_distributive", props.strongly_distributive),
        ("zero_absorbing", props.zero_absorbing),
        ("identity", props.identity),
        ("identity_flavor", props.identity_flavor),
    ]
    emit_record(pairs, args.json, out)
    return EXIT_OK


def cmd_classify(args, out) -> int:
    ring = load_ring(args.ring)
    subset, ideal, witness = resolve_ideal(ring, args.ideal)
    alpha = parse_endo_spec(ring, args.alpha) if args.alpha else None
    pairs = [("ring", ring.name), ("elements", subset)]
    if ideal is None:
        pairs.append(("hyperideal", False))
        pairs.append(("witness", witness))
        emit_record(pairs, args.json, out)
        return EXIT_OK
    pairs.append(("hyperideal", True))
    pairs.append(("proper", ideal.proper))
    pairs.append(("c_status", ideal.c_status))
    cap = args.max_order
    if not ideal.proper:
        pairs.extend(
            [("prime", "n/a (improper)"), ("primary", "n/a (improper)"),
             ("maximal", "n/a (improper)"), ("alpha_prime", "n/a (improper)")]
        )
        emit_record(pairs, args.json, out)
        return EXIT_OK
    pv = prime_violation(ring, ideal)
    pairs.append(("prime", pv is None))
    if pv is not None:
        pairs.append(("prime_witness", pv))
    pairs.append(("primary", is_primary(ring, ideal, max_order=cap)))
    pairs.append(("maximal", is_maximal(ring, ideal, max_order=cap)))
    if alpha is not None:
        av = alpha_prime_violation(ring, ideal, alpha)
        pairs.append(("alpha", alpha.name))
        pairs.append(("alpha_prime", av is None))
        if av is not None:
            pairs.append(("alpha_prime_witness", av))
    emit_record(pairs, args.json, out)
    return EXIT_OK


def cmd_radical(args, out) -> int:
    ring = load_ring(args.ring)
    subset, ideal, witness = resolve_ideal(ring, args.ideal)
    alpha = parse_endo_spec(ring, args.alpha) if args.alpha else None
    if ideal is None:
        out.write(f"invalid: not a hyperideal, witness: {_fmt(witness)}\n")
        return EXIT_SEMANTIC
    inter, dset, status = radical_detail(ring, ideal.elements, args.max_order)
    pairs = [
        ("ring", ring.name),
        ("ideal", ideal.elements),
        ("radical", inter),
        ("power_membership_set", dset),
        ("c_status", status),
        ("forms_agree", inter == dset),
    ]
    if alpha is not None:
        pairs.append(("alpha", alpha.name))
        pairs.append(("alpha_radical", alpha_radical(ring, ideal.elements, alpha)))
    emit_record(pairs, args.json, out)
    return EXIT_OK


def cmd_alpharadical(args, out) -> int:
    ring = load_ring(args.ring)
    subset, _ideal, _witness = resolve_ideal(ring, args.ideal)
    alpha = parse_endo_spec(ring, args.alpha)
    rad = alpha_radical(ring, subset, alpha)
    emit_record(
        [("ring", ring.name), ("subset", subset), ("alpha", alpha.name),
         ("alpha_radical", rad)],
        args.json, out,
    )
    return EXIT_OK


def cmd_nil(args, out) -> int:
    ring = load_ring(args.ring)
    alpha = parse_endo_spec(ring, args.alpha) if args.alpha else None
    pairs = [("ring", ring.name), ("nilradical", nilradical(ring))]
    if alpha is not None:
        pairs.append(("alpha", alpha.name))
        pairs.append(("alpha_nilradical", alpha_nilradical(ring, alpha)))
    emit_record(pairs, args.json, out)
    return EXIT_OK


def cmd_quotient(args, out) -> int:
    ring = load_ring(args.ring)
    _subset, ideal, witness = resolve_ideal(ring, args.ideal)
    if ideal is None:
        out.write(f"invalid: not a hyperideal, witness: {_fmt(witness)}\n")
        return EXIT_SEMANTIC
    quotient = quotient_ring(ring, ideal)
    out.write(emit_ring_spec(quotient.ring))
    return EXIT_OK


def cmd_product(args, out) -> int:
    product = product_ring(load_ring(args.ring), load_ring(args.ring2))
    if not product.ring.has_tables:
        out.write(f"product too large to emit tables (order {product.ring.order})\n")
        return EXIT_SEMANTIC
    out.write(emit_ring_spec(product.ring))
    return EXIT_OK


def cmd_endos(args, out) -> int:
    ring = load_ring(args.ring)
    endos = enumerate_endomorphisms(ring, args.max_order)
    if args.json:
        doc = {
            "ring": ring.name,
            "count": len(endos),
            "endomorphisms": [
                {"name": e.name, "image": list(e.map)} for e in endos
            ],
        }
        out.write(json.dumps(doc, separators=(", ", ": ")) + "\n")
    else:
        out.write(f"ring: {ring.name}\ncount: {len(endos)}\n")
        for endo in endos:
            out.write(f"endo {endo.name}: {'.'.join(str(v) for v in endo.map)}\n")
    return EXIT_OK


def _load_corpus_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            docs = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseFailure(f"cannot read corpus file {path}: {exc}") from exc
    if not isinstance(docs, list):
        raise ParseFailure("corpus file must hold a JSON array")
    instances = []
    for pos, doc in enumerate(docs):
        if not isinstance(doc, dict) or "ring" not in doc:
            raise ParseFailure(f"corpus entry {pos} needs a 'ring' field")
        ring = parse_ring_spec(doc["ring"])
        ideal = None
        alpha = None
        if "ideal" in doc:
            spec = doc["ideal"]
            spec_str = json.dumps(spec) if isinstance(spec, dict) else str(spec)
            _subset, ideal, witness = resolve_ideal(ring, spec_str)
            if ideal is None:
                raise ParseFailure(f"corpus entry {pos}: not a hyperideal ({witness})")
        if "alpha" in doc:
            spec = doc["alpha"]
            spec_str = json.dumps(spec) if isinstance(spec, dict) else str(spec)
            alpha = parse_endo_spec(ring, spec_str)
        if ideal is not None and alpha is not None:
            kind = KIND_RING_ALPHA_IDEAL
            uid = f"{ring.name}|a={alpha.name}|I={'.'.join(str(x) for x in sorted(ideal.elements))}"
        elif alpha is not None:
            kind = KIND_RING_ALPHA
            uid = f"{ring.name}|a={alpha.name}"
        elif ideal is not None:
            kind = KIND_RING_IDEAL
            uid = f"{ring.name}|I={'.'.join(str(x) for x in sorted(ideal.elements))}"
        else:
            raise ParseFailure(f"corpus entry {pos} needs an ideal and/or an alpha")
        instances.append(
            Instance(uid=uid, kind=kind, ring=ring, ideal=ideal, alpha=alpha)
        )
    return instances


def _verify_records(corpus: str, selection):
    """The suite's records, each class of isomorphic residue rings decided
    once, then (on the whole default corpus) the worked examples; nothing
    is read or built before the first pull, after the report opens, and the
    default corpus is built one ring at a time."""
    if corpus != "default":
        yield from iter_suite_by_class(_load_corpus_file(corpus), selection)
        return
    yield from iter_suite_by_class(iter_corpus(DEFAULT_CONFIG), selection)
    if selection is None:
        yield from worked_example_records()


def _counted(records, per_theorem: defaultdict):
    """Yield ``records`` unchanged, counting each status per theorem."""
    for record in records:
        per_theorem[record.theorem][record.status] += 1
        yield record


def _status_counts(counts: Counter) -> str:
    return (
        f"holds={counts[STATUS_HOLDS]} fails={counts[STATUS_FAILS]} "
        f"not_met={counts[STATUS_NOT_MET]} undecided={counts[STATUS_UNDECIDED]}"
    )


def _write_report_file(records, path: str) -> None:
    """Write the report through a temporary file next to ``path`` and move
    it into place at the end, so a run that stops part way leaves no
    truncated report.  A path that cannot take the report is a parse failure."""
    partial = f"{path}.{os.getpid()}.tmp"
    try:
        if os.path.isdir(path):
            raise ParseFailure(f"cannot write report {path}: Is a directory")
        with open(partial, "w", encoding="utf-8") as handle:
            write_report(records, handle)
        os.replace(partial, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(partial)
        if isinstance(exc, OSError):
            raise ParseFailure(f"cannot write report {path}: {exc.strerror or exc}") from None
        raise


def cmd_verify(args, out) -> int:
    """Stream every record into the report, keeping only per-theorem counts;
    the summary follows, then (with ``--json``) the report is copied out."""
    selection = None
    if args.theorems:
        selection = [t.strip() for t in args.theorems.split(",") if t.strip()]
        unknown = set(selection) - set(catalog_ids())
        if unknown:
            raise ParseFailure(f"unknown theorem ids {sorted(unknown)}")
    per_theorem = defaultdict(Counter)
    records = _counted(_verify_records(args.corpus, selection), per_theorem)
    with contextlib.ExitStack() as stack:
        report = None
        if args.report:
            _write_report_file(records, args.report)
            if args.json:
                report = stack.enter_context(open(args.report, encoding="utf-8"))
        elif args.json:
            report = stack.enter_context(tempfile.TemporaryFile("w+", encoding="utf-8"))
            write_report(records, report)
            report.seek(0)
        else:
            for _record in records:
                pass
        totals = sum(per_theorem.values(), Counter())
        for tid in sorted(per_theorem):
            out.write(f"{tid} {_status_counts(per_theorem[tid])}\n")
        out.write(f"total records={totals.total()} {_status_counts(totals)}\n")
        ledgered = ledgered_theorems()
        bad = sum(c[STATUS_FAILS] for tid, c in per_theorem.items() if tid not in ledgered)
        out.write(f"unledgered_failures={bad}\n")
        if args.report:
            out.write(f"report written: {args.report}\n")
        if report is not None:
            shutil.copyfileobj(report, out)
    if args.strict and bad:
        return EXIT_STRICT
    return EXIT_OK


def cmd_corpus(args, out) -> int:
    """Stream the default corpus, keeping only its uids and per-kind counts."""
    by_kind = {}
    uids = []
    for instance in iter_corpus(DEFAULT_CONFIG):
        by_kind[instance.kind] = by_kind.get(instance.kind, 0) + 1
        uids.append(instance.uid)
    if args.json:
        doc = {
            "total": len(uids),
            "by_kind": {k: by_kind[k] for k in sorted(by_kind)},
            "instances": uids,
        }
        out.write(json.dumps(doc, separators=(", ", ": ")) + "\n")
    else:
        out.write(f"total: {len(uids)}\n")
        for kind in sorted(by_kind):
            out.write(f"{kind}: {by_kind[kind]}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperring",
        description="Finite multiplicative hyperring calculator and verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ring=True, ideal=False, alpha=False, alpha_required=False):
        if ring:
            p.add_argument("--ring", required=True, help="ring spec file (JSON)")
        if ideal:
            p.add_argument("--ideal", required=True, help="ideal spec: '0,3', 'gen:2', or JSON")
        if alpha:
            p.add_argument(
                "--alpha",
                required=alpha_required,
                help="endomorphism spec: 'id', 'zero', 'scale:3', 'map:...', or JSON",
            )
        p.add_argument("--json", action="store_true", help="emit JSON records")
        p.add_argument(
            "--max-order",
            type=int,
            default=DEFAULT_ENUM_CAP,
            help="cap for enumeration-based operations",
        )

    p = sub.add_parser("validate", help="validate a ring spec and print its properties")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("props", help="print the structural property record")
    common(p)
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("classify", help="classify a subset as hyperideal/prime/...")
    common(p, ideal=True, alpha=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("radical", help="prime radical and power-membership set")
    common(p, ideal=True, alpha=True)
    p.set_defaults(func=cmd_radical)

    p = sub.add_parser("alpharadical", help="alpha-radical of a subset")
    common(p, ideal=True, alpha=True, alpha_required=True)
    p.set_defaults(func=cmd_alpharadical)

    p = sub.add_parser("nil", help="nilradical (and alpha-nilradical)")
    common(p, alpha=True)
    p.set_defaults(func=cmd_nil)

    p = sub.add_parser("quotient", help="emit the quotient ring as a table spec")
    common(p, ideal=True)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("product", help="emit the product ring as a table spec")
    common(p)
    p.add_argument("--ring2", required=True, help="second ring spec file")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("endos", help="list all good endomorphisms")
    common(p)
    p.set_defaults(func=cmd_endos)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--corpus", default="default", help="'default' or a corpus file")
    p.add_argument("--theorems", default=None, help="comma-separated theorem ids")
    p.add_argument("--report", default=None, help="write the report document here")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 on failures outside the known-discrepancy ledger")
    p.add_argument("--json", action="store_true", help="print the report to stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("corpus", help="describe the default corpus")
    p.add_argument("--json", action="store_true", help="emit uids as JSON")
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None, out=None) -> int:
    """Run one subcommand; a parse failure exits 2 and any other package
    error exits 1, each with a one-line message and no traceback.  An output
    closed by its reader exits 1 with a line on stderr."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args, out)
        out.flush()
        return code
    except ParseFailure as exc:
        out.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except HyperRingError as exc:
        out.write(f"invalid: {exc}\n")
        return EXIT_SEMANTIC
    except BrokenPipeError:
        if out is sys.stdout:  # what is still buffered goes nowhere at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write("error: the output was closed before it was complete\n")
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
