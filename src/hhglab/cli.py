"""Batch front end.

Loads a structure (catalog name or json file), runs one of the pipelines,
and emits a deterministic report: JSON for nested results, CSV for tabular
ones.  Every report embeds a schema version, the sha256 of the structure
source, and the full constant ledger, and contains no timestamps, so the
same configuration and seed reproduce the output byte for byte.

Exit codes: 0 all checks passed, 1 a check failed or a certificate was
refuted, 2 usage or input errors.
"""

import argparse
import hashlib
import json
import math
import os
import random
import sys

from .axioms import check_structure, structural_validators
from .balls import growth_function, parse_generating_set, symmetrize
from .builders import load_structure
from .certify import certify, scan_generating_sets
from .coords import fit_distance_formula, product_decomposition
from .errors import (CertifierRefutedError, ClassificationAnomalyError,
                     InputError, ResourceBudgetError, StructureInvalidError)

REPORT_SCHEMA = 1


def structure_fingerprint(source, structure):
    """sha256 of the structure file, or of the canonical recipe when the
    structure came from the built-in catalog."""
    if os.path.isfile(source):
        with open(source, "rb") as fh:
            return {"kind": "file", "source": source,
                    "sha256": hashlib.sha256(fh.read()).hexdigest()}
    recipe = json.dumps(structure.to_json(), sort_keys=True).encode()
    return {"kind": "recipe", "source": source,
            "sha256": hashlib.sha256(recipe).hexdigest()}


def report_envelope(command, structure, fingerprint, seed, report):
    return {
        "schema_version": REPORT_SCHEMA,
        "command": command,
        "structure": structure.label,
        "structure_source": fingerprint,
        "seed": seed,
        "constants": structure.constants.to_json(),
        "report": report,
    }


def render_json(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def csv_header(command, structure, fingerprint, seed):
    return (f"# schema_version={REPORT_SCHEMA} command={command}"
            f" structure={structure.label} sha256={fingerprint['sha256']}"
            f" seed={seed}")


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(text, out, summary_lines=()):
    """Document to the output file when one is named (summary to stdout),
    otherwise the document itself to stdout."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        for line in summary_lines:
            print(line)
    else:
        sys.stdout.write(text)
    return 0


def _load(args):
    structure = load_structure(args.structure)
    return structure, structure_fingerprint(args.structure, structure)


def cmd_check(args):
    structure, fp = _load(args)
    report = check_structure(structure, radius=args.radius, seed=args.seed,
                             max_pairs=args.max_pairs)
    validators = structural_validators(structure)
    ok = report.passed and validators.ok
    doc = report_envelope("check", structure, fp, args.seed, {
        "passed": ok,
        "axioms": report.to_json(),
        "validators": validators.to_json(),
    })
    lines = [f"axiom {a.index} {a.name}: {'pass' if a.passed else 'FAIL'}"
             f" (margin {a.margin:.3f}, {a.checks} checks)"
             for a in report.axioms]
    lines.append(f"validators: {'pass' if validators.ok else 'FAIL'}"
                 f" ({validators.checks} checks)")
    lines.append(f"structure {structure.label}: "
                 + ("all checks passed" if ok else "FAILED"))
    emit(render_json(doc), args.out, lines)
    return 0 if ok else 1


def cmd_certify(args):
    structure, fp = _load(args)
    if not args.genset:
        raise InputError("certify needs --genset \"w1,w2,...\"")
    words = parse_generating_set(structure.group, args.genset)
    cert = certify(structure, words, depth=args.depth)
    doc = report_envelope("certify", structure, fp, args.seed, cert.to_json())
    lines = [f"variant: {cert.variant}"]
    if cert.words:
        u = structure.group.format(cert.words["u"])
        w = structure.group.format(cert.words["w"])
        lines.append(f"words: {u}, {w} (lengths {cert.lengths},"
                     f" bound {cert.x_length_bound})")
    for caveat in cert.caveats:
        lines.append(f"caveat: {caveat}")
    emit(render_json(doc), args.out, lines)
    return 0


SCAN_COLUMNS = ("row,generating_set,variant,max_word_length,lambda_estimate,"
                "lambda_floor,master_bound,meets_master_bound,error")


def scan_csv(report, header):
    lines = [header, SCAN_COLUMNS]
    for i, row in enumerate(report["rows"]):
        gens = " ".join(row["generating_set"])
        if "error" in row:
            lines.append(f"{i},{gens},,,,,,,{row['error']}")
            continue
        lines.append(",".join([
            str(i), gens, row["variant"],
            _fmt(max(row["lengths"]) if row["lengths"] else None),
            _fmt(row["rate_estimate"]), _fmt(row["lower_bound"]),
            _fmt(row["master_bound"]), _fmt(row["meets_master_bound"]), ""]))
    s = report["summary"]
    lines.append(",".join([
        "summary", f"rows={s['rows']}", f"errors={s['errors']}", "",
        _fmt(s["min_rate"]), "", "", _fmt(s["all_meet_master_bound"]), ""]))
    return "\n".join(lines) + "\n"


def cmd_scan(args):
    structure, fp = _load(args)
    report = scan_generating_sets(structure, args.scan_size, args.scan_length,
                                  args.radius, depth=args.depth,
                                  growth_n=args.growth_n)
    ok = (report["summary"]["errors"] == 0
          and report["summary"]["all_meet_master_bound"])
    summary = [f"scanned {report['summary']['rows']} generating sets,"
               f" {report['summary']['errors']} errors,"
               f" min rate {_fmt(report['summary']['min_rate'])}"]
    if args.format == "json":
        doc = report_envelope("scan", structure, fp, args.seed, report)
        emit(render_json(doc), args.out, summary)
    else:
        header = csv_header("scan", structure, fp, args.seed)
        emit(scan_csv(report, header), args.out, summary)
    return 0 if ok else 1


def _random_pairs(model, count, length, seed):
    if length < 1:
        raise InputError("sampled word length must be at least 1")
    rnd = random.Random(seed)
    letters = symmetrize(model, model.generators())
    words = []
    for _ in range(2 * count):
        w = model.parse("1")
        for _ in range(rnd.randrange(1, length + 1)):
            w = model.multiply(w, rnd.choice(letters))
        words.append(w)
    return list(zip(words[:count], words[count:]))


def cmd_distance(args):
    structure, fp = _load(args)
    pairs = _random_pairs(structure.group, args.pairs, args.length, args.seed)
    fit = fit_distance_formula(structure, pairs, s=args.s)
    doc = report_envelope("distance", structure, fp, args.seed, fit.to_json())
    lines = ([f"fit: d ~ sum within (K={fit.K}, C={fit.C})"
              f" over {fit.n_samples} pairs at s={fit.s}"]
             if fit.ok else [f"fit failed: {fit.failure}"])
    emit(render_json(doc), args.out, lines)
    return 0 if fit.ok else 1


def cmd_decompose(args):
    structure, fp = _load(args)
    dec = product_decomposition(structure)
    doc = report_envelope("decompose", structure, fp, args.seed, dec.to_json())
    lines = [f"{len(dec.blocks)} block(s): "
             + "; ".join("x".join(b) for b in dec.blocks)]
    emit(render_json(doc), args.out, lines)
    return 0


def cmd_growth(args):
    structure, fp = _load(args)
    model = structure.group
    if args.genset:
        gens = parse_generating_set(model, args.genset)
        if args.symmetrize:
            gens = symmetrize(model, gens)
        label = "given"
    else:
        gens = symmetrize(model, model.generators())
        label = "standard"
    beta = growth_function(model, gens, args.n)
    rows = [{"n": n, "count": beta[n],
             "log_count_over_n": math.log(beta[n]) / n}
            for n in range(1, args.n + 1)]
    summary = [f"beta({args.n}) = {beta[args.n]} over {label} set"
               f" ({len(gens)} words)"]
    if args.format == "json":
        doc = report_envelope("growth", structure, fp, args.seed, {
            "generating_set": [model.format(w) for w in gens],
            "rows": rows,
        })
        emit(render_json(doc), args.out, summary)
    else:
        lines = [csv_header("growth", structure, fp, args.seed),
                 "n,count,log_count_over_n"]
        lines += [f"{r['n']},{r['count']},{_fmt(r['log_count_over_n'])}"
                  for r in rows]
        emit("\n".join(lines) + "\n", args.out, summary)
    return 0


COMMANDS = {
    "check": cmd_check,
    "certify": cmd_certify,
    "scan": cmd_scan,
    "distance": cmd_distance,
    "decompose": cmd_decompose,
    "growth": cmd_growth,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hhglab",
        description="Check, certify, and scan hierarchical structures.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("structure",
                       help="catalog name (e.g. free2) or structure json path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("check", help="run the nine axiom checks")
    common(p)
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--max-pairs", type=int, default=60)

    p = sub.add_parser("certify", help="growth certificate for one set")
    common(p)
    p.add_argument("--depth", type=int, default=6,
                   help="freeness verification depth")
    p.add_argument("--genset", help='comma-separated words, e.g. "a,b"')

    p = sub.add_parser("scan", help="certify every small generating set")
    common(p)
    p.add_argument("--depth", type=int, default=6,
                   help="freeness verification depth")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--scan-size", type=int, default=0,
                   help="max words per generating set")
    p.add_argument("--scan-length", type=int, default=0,
                   help="max word length in the enumeration pool")
    p.add_argument("--radius", type=int, default=6,
                   help="generation must be witnessed inside this ball")
    p.add_argument("--growth-n", type=int, default=10,
                   help="ball radius for the measured rate")

    p = sub.add_parser("distance", help="fit the distance-formula constants")
    common(p)
    p.add_argument("--s", type=float, default=0.0, help="sum threshold")
    p.add_argument("--pairs", type=int, default=50)
    p.add_argument("--length", type=int, default=4,
                   help="max sampled word length")

    p = sub.add_parser("decompose", help="orthogonal block decomposition")
    common(p)

    p = sub.add_parser("growth", help="ball growth table")
    common(p)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--n", type=int, default=10, help="max ball radius")
    p.add_argument("--genset", help="words to grow with (default: standard)")
    p.add_argument("--symmetrize", action="store_true",
                   help="close --genset under inverses")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (InputError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (CertifierRefutedError, StructureInvalidError,
            ClassificationAnomalyError, ResourceBudgetError) as err:
        dump = {"error": type(err).__name__, "message": str(err),
                "witness": getattr(err, "witness", {})}
        print(json.dumps(dump, sort_keys=True, default=str), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
