"""Batch front end.

`main` owns every step around a command: it loads the structure (catalog
name or json file), takes its fingerprint, runs the command, wraps a JSON
report in its envelope and renders it, and writes the report to the
``--out`` file (summary lines to stdout) or else to stdout.  A command
returns its report (a dict, or the text of a CSV report), its summary
lines and its exit code.  Reports embed a schema version and the sha256
of the structure source (JSON also the constant ledger) and no timestamp,
so the same configuration and seed reproduce them byte for byte.

Exit codes, mapped by `main`: 0 all checks passed, 1 a check failed or a
certificate was refuted (one JSON line on stderr), 2 usage, input or file
errors (one ``error:`` line on stderr).
"""

import argparse
import hashlib
import json
import math
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
    """sha256 of the structure file, as load_structure read it, or of the
    canonical recipe when the structure came from the built-in catalog."""
    if structure.source_sha256 is not None:
        return {"kind": "file", "source": source, "sha256": structure.source_sha256}
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


def cmd_check(structure, fp, args):
    report = check_structure(structure, radius=args.radius, seed=args.seed,
                             max_pairs=args.max_pairs)
    validators = structural_validators(structure)
    ok = report.passed and validators.ok
    lines = [f"axiom {a.index} {a.name}: {'pass' if a.passed else 'FAIL'}"
             f" (margin {a.margin:.3f}, {a.checks} checks)"
             for a in report.axioms]
    lines.append(f"validators: {'pass' if validators.ok else 'FAIL'}"
                 f" ({validators.checks} checks)")
    lines.append(f"structure {structure.label}: "
                 + ("all checks passed" if ok else "FAILED"))
    return ({"passed": ok, "axioms": report.to_json(),
             "validators": validators.to_json()}, lines, 0 if ok else 1)


def cmd_certify(structure, fp, args):
    if not args.genset:
        raise InputError("certify needs --genset \"w1,w2,...\"")
    words = parse_generating_set(structure.group, args.genset)
    cert = certify(structure, words, depth=args.depth)
    lines = [f"variant: {cert.variant}"]
    if cert.words:
        u = structure.group.format(cert.words["u"])
        w = structure.group.format(cert.words["w"])
        lines.append(f"words: {u}, {w} (lengths {cert.lengths},"
                     f" bound {cert.x_length_bound})")
    for caveat in cert.caveats:
        lines.append(f"caveat: {caveat}")
    return cert.to_json(), lines, 0


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


def cmd_scan(structure, fp, args):
    report = scan_generating_sets(structure, args.scan_size, args.scan_length,
                                  args.radius, depth=args.depth,
                                  growth_n=args.growth_n)
    ok = (report["summary"]["errors"] == 0
          and report["summary"]["all_meet_master_bound"])
    summary = [f"scanned {report['summary']['rows']} generating sets,"
               f" {report['summary']['errors']} errors,"
               f" min rate {_fmt(report['summary']['min_rate'])}"]
    if args.format == "csv":
        report = scan_csv(report, csv_header("scan", structure, fp, args.seed))
    return report, summary, 0 if ok else 1


def _random_pairs(model, count, length, seed):
    if length < 1:
        raise InputError("sampled word length must be at least 1")
    rnd = random.Random(seed)
    letters = symmetrize(model, model.generators())
    if not letters:
        raise InputError("empty generating set")
    words = []
    for _ in range(2 * count):
        w = model.parse("1")
        for _ in range(rnd.randrange(1, length + 1)):
            w = model.multiply(w, rnd.choice(letters))
        words.append(w)
    return list(zip(words[:count], words[count:]))


def cmd_distance(structure, fp, args):
    pairs = _random_pairs(structure.group, args.pairs, args.length, args.seed)
    fit = fit_distance_formula(structure, pairs, s=args.s)
    lines = ([f"fit: d ~ sum within (K={fit.K}, C={fit.C})"
              f" over {fit.n_samples} pairs at s={fit.s}"]
             if fit.ok else [f"fit failed: {fit.failure}"])
    return fit.to_json(), lines, 0 if fit.ok else 1


def cmd_decompose(structure, fp, args):
    dec = product_decomposition(structure)
    lines = [f"{len(dec.blocks)} block(s): "
             + "; ".join("x".join(b) for b in dec.blocks)]
    return dec.to_json(), lines, 0


def cmd_growth(structure, fp, args):
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
        return ({"generating_set": [model.format(w) for w in gens], "rows": rows},
                summary, 0)
    lines = [csv_header("growth", structure, fp, args.seed),
             "n,count,log_count_over_n"]
    lines += [f"{r['n']},{r['count']},{_fmt(r['log_count_over_n'])}"
              for r in rows]
    return "\n".join(lines) + "\n", summary, 0


DEPTH = ("--depth", {"type": int, "default": 6, "help":
                     "recorded as verified_depth; the freeness test is exact at every depth"})
FORMAT = ("--format", {"choices": ("json", "csv"), "default": "csv"})

# name -> (function, help, options besides structure, --seed and --out);
# main calls function(structure, fingerprint, args)
COMMANDS = {
    "check": (cmd_check, "run the nine axiom checks", (
        ("--radius", {"type": int, "default": 3}),
        ("--max-pairs", {"type": int, "default": 60}))),
    "certify": (cmd_certify, "growth certificate for one set", (
        DEPTH,
        ("--genset", {"help": 'comma-separated words, e.g. "a,b"'}))),
    "scan": (cmd_scan, "certify every small generating set", (
        DEPTH, FORMAT,
        ("--scan-size", {"type": int, "default": 0,
                         "help": "max words per generating set"}),
        ("--scan-length", {"type": int, "default": 0,
                           "help": "max word length in the enumeration pool"}),
        ("--radius", {"type": int, "default": 6, "help":
                      "where no exact test applies, generation must be witnessed in this ball"}),
        ("--growth-n", {"type": int, "default": 10,
                        "help": "ball radius for the measured rate"}))),
    "distance": (cmd_distance, "fit the distance-formula constants", (
        ("--s", {"type": float, "default": 0.0, "help": "sum threshold"}),
        ("--pairs", {"type": int, "default": 50}),
        ("--length", {"type": int, "default": 4,
                      "help": "max sampled word length"}))),
    "decompose": (cmd_decompose, "orthogonal block decomposition", ()),
    "growth": (cmd_growth, "ball growth table", (
        FORMAT,
        ("--n", {"type": int, "default": 10, "help": "max ball radius"}),
        ("--genset", {"help": "words to grow with (default: standard)"}),
        ("--symmetrize", {"action": "store_true",
                          "help": "close --genset under inverses"}))),
}


def build_parser(command):
    """The argument parser.  Given a known command it builds that command's
    subparser alone, with a metavar naming every command, so the usage
    line an unrecognized argument prints is the full parser's.  Given
    anything else (None included) it builds every subparser and keeps no
    metavar: its invalid-choice and missing-command errors name the
    argument "command"."""
    parser = argparse.ArgumentParser(
        prog="hhglab",
        description="Check, certify, and scan hierarchical structures.")
    one = command in COMMANDS
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(COMMANDS) + "}" if one else None)
    for name in [command] if one else COMMANDS:
        _, help_text, options = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("structure",
                       help="catalog name (e.g. free2) or structure json path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output path (default: stdout)")
        for flag, settings in options:
            p.add_argument(flag, **settings)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        structure = load_structure(args.structure)
        fp = structure_fingerprint(args.structure, structure)
        report, summary, code = COMMANDS[args.command][0](structure, fp, args)
        if not isinstance(report, str):
            report = render_json(report_envelope(args.command, structure, fp,
                                                 args.seed, report))
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(report)
            for line in summary:
                print(line)
        else:
            sys.stdout.write(report)
        return code
    except (InputError, json.JSONDecodeError, OSError) as err:
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
