import hashlib
import json
import math
import pathlib
import subprocess
import sys
import time

import pytest

from hhglab import balls, cli
from hhglab.builders import structure_from_json
from hhglab.certify import collect_big_domains
from hhglab.cli import main
from hhglab.errors import ResourceBudgetError
from hhglab.structures import FreeProductHHG

STRUCTURES = "structures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def with_constants(tmp_path, name, **constants):
    """A copy of the catalog file NAME in tmp_path, with its full constant
    ledger written out and the given constants overridden."""
    with open(f"{STRUCTURES}/{name}.json") as fh:
        recipe = json.load(fh)
    ledger = structure_from_json(recipe).constants.to_json()
    recipe["constants"] = {**ledger, **constants}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(recipe))
    return path


# The CLI's usage surface at COLUMNS=80, recorded before the parser was
# built per command, and kept byte for byte: argv -> (exit code, stdout,
# stderr).
TOP_USAGE = "usage: hhglab [-h] {check,certify,scan,distance,decompose,growth} ...\n"
CERTIFY_USAGE = """\
usage: hhglab certify [-h] [--seed SEED] [--out OUT] [--depth DEPTH]
                      [--genset GENSET]
                      structure
"""
SCAN_USAGE = """\
usage: hhglab scan [-h] [--seed SEED] [--out OUT] [--depth DEPTH]
                   [--format {json,csv}] [--scan-size SCAN_SIZE]
                   [--scan-length SCAN_LENGTH] [--radius RADIUS]
                   [--growth-n GROWTH_N]
                   structure
"""
USAGE_SURFACE = {
    ("--help",): (0, TOP_USAGE + """
Check, certify, and scan hierarchical structures.

positional arguments:
  {check,certify,scan,distance,decompose,growth}
    check               run the nine axiom checks
    certify             growth certificate for one set
    scan                certify every small generating set
    distance            fit the distance-formula constants
    decompose           orthogonal block decomposition
    growth              ball growth table

options:
  -h, --help            show this help message and exit
""",
        ""),
    ("check", "--help"): (0, """\
usage: hhglab check [-h] [--seed SEED] [--out OUT] [--radius RADIUS]
                    [--max-pairs MAX_PAIRS]
                    structure

positional arguments:
  structure             catalog name (e.g. free2) or structure json path

options:
  -h, --help            show this help message and exit
  --seed SEED
  --out OUT             output path (default: stdout)
  --radius RADIUS
  --max-pairs MAX_PAIRS
""",
        ""),
    ("certify", "--help"): (0, CERTIFY_USAGE + """
positional arguments:
  structure        catalog name (e.g. free2) or structure json path

options:
  -h, --help       show this help message and exit
  --seed SEED
  --out OUT        output path (default: stdout)
  --depth DEPTH    recorded as verified_depth; the freeness test is exact at
                   every depth
  --genset GENSET  comma-separated words, e.g. "a,b"
""",
        ""),
    ("scan", "--help"): (0, SCAN_USAGE + """
positional arguments:
  structure             catalog name (e.g. free2) or structure json path

options:
  -h, --help            show this help message and exit
  --seed SEED
  --out OUT             output path (default: stdout)
  --depth DEPTH         recorded as verified_depth; the freeness test is exact
                        at every depth
  --format {json,csv}
  --scan-size SCAN_SIZE
                        max words per generating set
  --scan-length SCAN_LENGTH
                        max word length in the enumeration pool
  --radius RADIUS       where no exact test applies, generation must be
                        witnessed in this ball
  --growth-n GROWTH_N   ball radius for the measured rate
""",
        ""),
    ("distance", "--help"): (0, """\
usage: hhglab distance [-h] [--seed SEED] [--out OUT] [--s S] [--pairs PAIRS]
                       [--length LENGTH]
                       structure

positional arguments:
  structure        catalog name (e.g. free2) or structure json path

options:
  -h, --help       show this help message and exit
  --seed SEED
  --out OUT        output path (default: stdout)
  --s S            sum threshold
  --pairs PAIRS
  --length LENGTH  max sampled word length
""",
        ""),
    ("decompose", "--help"): (0, """\
usage: hhglab decompose [-h] [--seed SEED] [--out OUT] structure

positional arguments:
  structure    catalog name (e.g. free2) or structure json path

options:
  -h, --help   show this help message and exit
  --seed SEED
  --out OUT    output path (default: stdout)
""",
        ""),
    ("growth", "--help"): (0, """\
usage: hhglab growth [-h] [--seed SEED] [--out OUT] [--format {json,csv}]
                     [--n N] [--genset GENSET] [--symmetrize]
                     structure

positional arguments:
  structure            catalog name (e.g. free2) or structure json path

options:
  -h, --help           show this help message and exit
  --seed SEED
  --out OUT            output path (default: stdout)
  --format {json,csv}
  --n N                max ball radius
  --genset GENSET      words to grow with (default: standard)
  --symmetrize         close --genset under inverses
""",
        ""),
    (): (2, "",
        TOP_USAGE + "hhglab: error: the following arguments are required: command\n"),
    ("nonesuch",): (2, "",
        TOP_USAGE + "hhglab: error: argument command: invalid choice: 'nonesuch'"
        " (choose from 'check', 'certify', 'scan', 'distance', 'decompose',"
        " 'growth')\n"),
    ("certify",): (2, "",
        CERTIFY_USAGE
        + "hhglab certify: error: the following arguments are required: structure\n"),
    ("certify", "z2", "--bogus", "1"): (2, "",
        TOP_USAGE + "hhglab: error: unrecognized arguments: --bogus 1\n"),
    ("scan", "free2", "--format", "xml"): (2, "",
        SCAN_USAGE + "hhglab scan: error: argument --format: invalid choice:"
        " 'xml' (choose from 'json', 'csv')\n"),
}


class TestCheck:
    def test_standard_file_passes(self, capsys):
        code, doc, _ = run_json(capsys, "check", f"{STRUCTURES}/f2xz.json")
        assert code == 0
        assert doc["schema_version"] == 1
        assert doc["command"] == "check"
        assert doc["structure"] == "f2xz"
        assert doc["report"]["passed"] is True
        assert doc["report"]["axioms"]["failed_axioms"] == []
        assert doc["report"]["validators"]["ok"] is True

    def test_file_hash_embedded(self, capsys):
        path = f"{STRUCTURES}/f2xz.json"
        code, doc, _ = run_json(capsys, "check", path)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert doc["structure_source"] == {
            "kind": "file", "source": path, "sha256": digest}

    def test_catalog_name_hash_is_recipe(self, capsys):
        code, doc, _ = run_json(capsys, "check", "z1")
        assert code == 0
        assert doc["structure_source"]["kind"] == "recipe"
        assert len(doc["structure_source"]["sha256"]) == 64

    def test_catalog_name_beside_a_file_of_that_name(self, capsys, tmp_path, monkeypatch):
        # a source without ".json" or "/" is loaded as a catalog name, so its
        # fingerprint is the recipe's, whatever file of that name lies here
        (tmp_path / "free2").write_text("unrelated")
        monkeypatch.chdir(tmp_path)
        code, doc, _ = run_json(capsys, "decompose", "free2")
        assert code == 0
        assert doc["structure_source"]["kind"] == "recipe"

    def test_constants_embedded(self, capsys):
        _, doc, _ = run_json(capsys, "check", "z1")
        assert doc["constants"]["tau0"] == 1.0
        assert doc["constants"]["N_rank"] == 1

    def test_corrupt_fixture_fails_axiom_four(self, capsys):
        code, doc, _ = run_json(capsys, "check", "f2xz-corrupt-rho")
        assert code == 1
        assert doc["report"]["passed"] is False
        assert doc["report"]["axioms"]["failed_axioms"] == [4]

    @pytest.mark.parametrize("option,value,message", [
        ("--radius", "0", "check radius must be at least 1"),
        ("--radius", "-2", "check radius must be at least 1"),
        ("--max-pairs", "0", "max pairs must be at least 1"),
        ("--max-pairs", "-5", "max pairs must be at least 1"),
    ])
    def test_empty_sample_is_usage_error(self, capsys, option, value, message):
        # sampling nothing would pass this corrupt fixture
        code, out, err = run(capsys, "check",
                             f"{STRUCTURES}/f2xz-corrupt-uniqueness.json",
                             option, value)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", f"{STRUCTURES}/missing.json")
        assert code == 2
        assert "error:" in err

    def test_unknown_name_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "nonesuch")
        assert code == 2

    def test_csv_format_rejected(self):
        # check takes no --format: argparse refuses it as a usage error
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "z1", "--format", "csv"])
        assert exit_info.value.code == 2

    def test_depth_rejected(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "z1", "--depth", "5"])
        assert exit_info.value.code == 2

    def test_summary_to_stdout_with_out_file(self, capsys, tmp_path):
        out = tmp_path / "check.json"
        code, text, _ = run(capsys, "check", "z1", "--out", str(out))
        assert code == 0
        assert "all checks passed" in text
        assert json.loads(out.read_text())["structure"] == "z1"

    def test_budget_failure_reports_partial_radius(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise ResourceBudgetError("ball exceeded 161 elements at radius 4",
                                      partial_radius=3)

        monkeypatch.setattr("hhglab.cli.check_structure", exhausted)
        code, out, err = run(capsys, "check", "free2")
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "ResourceBudgetError",
            "message": "ball exceeded 161 elements at radius 4",
            "witness": {"partial_radius": 3}}

    @pytest.mark.parametrize("name", ["free2", "f2xz", "z2"])
    def test_a_huge_radius_builds_only_the_sample(self, capsys, built_layers, name):
        # the checker keeps 600 ball elements and 25 points of each tree,
        # so it builds the least balls holding them, not the ball of the
        # radius; the lines of f2xz and z2 are ranges, not balls
        code, doc, _ = run_json(capsys, "check", name, "--radius", "99999",
                                "--max-pairs", "1")
        assert code == 0
        assert doc["report"]["axioms"]["radius"] == 99999
        assert doc["report"]["passed"] is True
        assert 600 < sum(built_layers) < 1600

    def test_f2freez_at_a_huge_radius_stops_on_the_ball_budget(self, capsys, monkeypatch):
        # the coset tree's sample sorts the vertices of the whole ball of
        # the radius, so f2freez asks for it and fails in one line; with
        # the budget at 10,000 elements the ball of radius 5 (4,687) is the
        # last that fits, radius 6 holds 23,437
        monkeypatch.setattr(balls, "DEFAULT_MAX_ELEMENTS", 10_000)
        code, out, err = run(capsys, "check", "f2freez", "--radius", "99999",
                             "--max-pairs", "1")
        assert code == 1 and out == "" and err.count("\n") == 1
        assert json.loads(err) == {
            "error": "ResourceBudgetError",
            "message": "ball exceeded 10000 elements at radius 6",
            "witness": {"partial_radius": 5}}

    def test_missing_argument_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check"])
        assert exc.value.code == 2


FREE2 = {"family": "free", "rank": 2}
F2XZ = {"family": "direct_product",
        "factors": [FREE2, {"family": "free_abelian", "rank": 1, "labels": ["t"]}]}

MALFORMED_RECIPES = {
    "rank missing": {"builder": "product", "group": {"family": "free"}},
    "rank a string": {"builder": "product", "group": {"family": "free", "rank": "two"}},
    "rank a bool": {"builder": "product", "group": {"family": "free", "rank": True}},
    "labels not strings": {"builder": "product",
                           "group": {"family": "free", "rank": 1, "labels": [1]}},
    "group missing": {"builder": "product", "label": "x"},
    "factors not a list": {"builder": "product",
                           "group": {"family": "direct_product", "factors": 3}},
    "unknown family": {"builder": "product",
                       "group": {"family": "graph_product",
                                 "vertices": [FREE2], "edges": []}},
    "name missing": {"builder": "named"},
    "label not a string": {"builder": "product", "group": F2XZ, "label": 7},
    "radius not an integer": {"builder": "free_product", "generation_radius": "2",
                              "group": {"family": "free_product",
                                        "factors": F2XZ["factors"]}},
    "constants not an object": {"builder": "product", "group": F2XZ, "constants": 1},
    "constant not numeric": {"builder": "product", "group": F2XZ,
                             "constants": {"kappa0": "2"}},
    "integer constant fractional": {"builder": "product", "group": F2XZ,
                                    "constants": {"N_rank": 1.5}},
    "integer constant negative": {"builder": "product", "group": F2XZ,
                                  "constants": {"N_rank": -1}},
    "theta_coeffs not numbers": {"builder": "product", "group": F2XZ,
                                 "constants": {"theta_coeffs": ["a"]}},
    "tau0 zero": {"builder": "product", "group": F2XZ, "constants": {"tau0": 0}},
    "tau0 not finite": {"builder": "product", "group": F2XZ,
                        "constants": {"tau0": float("nan")}},
}
# a json integer past float range, for each constant that check or certify
# would convert to a float
MALFORMED_RECIPES.update({
    f"{name} past float range": {"builder": "product", "group": F2XZ,
                                 "constants": {name: value}}
    for name, value in [("E", 10 ** 400), ("kappa0", 10 ** 400),
                        ("n_complexity", 10 ** 400), ("theta_coeffs", [0, 10 ** 400]),
                        ("tau0", 10 ** 400), ("N_rank", 10 ** 400)]})


class TestMalformedStructureFile:
    @pytest.mark.parametrize("case", sorted(MALFORMED_RECIPES))
    def test_exits_two_with_one_error_line(self, capsys, tmp_path, case):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(MALFORMED_RECIPES[case]))
        for argv in (["check", str(path)],
                     ["certify", str(path), "--genset", "a,b,t"]):
            code, out, err = run(capsys, *argv)
            assert code == 2, (case, argv)
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("raw, message", [
        (b'{"builder": "\xff"}',
         "structure json is not UTF-8: invalid start byte at byte 13"),
        # a byte order mark is valid UTF-8, and JSON refuses it
        (b'\xef\xbb\xbf{"builder": "named", "name": "z1"}',
         "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ], ids=["not UTF-8", "UTF-8 BOM"])
    def test_undecodable_bytes_exit_two_with_one_error_line(self, capsys, tmp_path,
                                                             raw, message):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        for argv in (["check", str(path)], ["decompose", str(path)]):
            assert run(capsys, *argv) == (2, "", f"error: {message}\n")


F1 = {"family": "free", "rank": 1, "labels": ["a"]}
Z2 = {"family": "free_abelian", "rank": 2, "labels": ["b", "c"]}
ILLEGAL_FREE_PRODUCTS = {
    "Z^2 factor": ({"builder": "free_product",
                    "group": {"family": "free_product", "factors": [F1, Z2]}},
                   "factors must be free or infinite cyclic"),
    "nested free product": ({"builder": "free_product",
                             "group": {"family": "free_product", "factors": [
                                 {"family": "free_product", "factors": [
                                     F1, {"family": "free", "rank": 1, "labels": ["b"]}]},
                                 {"family": "free_abelian", "rank": 1, "labels": ["c"]}]}},
                            "factors must be free or infinite cyclic"),
    "three factors": ({"builder": "free_product",
                       "group": {"family": "free_product", "factors": [
                           F1, {"family": "free", "rank": 1, "labels": ["b"]},
                           {"family": "free_abelian", "rank": 1, "labels": ["c"]}]}},
                      "need a two-factor free product model"),
    "direct product of F1*Z^2": ({"builder": "product",
                                  "group": {"family": "direct_product", "factors": [
                                      {"family": "free_abelian", "rank": 1, "labels": ["t"]},
                                      {"family": "free_product", "factors": [F1, Z2]}]}},
                                 "factors must be free or infinite cyclic"),
}


class TestFreeProductRefusals:
    """A free product takes two free or infinite cyclic factors; any other
    exits 2 with one error line."""

    @pytest.mark.parametrize("case", sorted(ILLEGAL_FREE_PRODUCTS))
    def test_exits_two_with_one_error_line(self, capsys, tmp_path, case):
        recipe, message = ILLEGAL_FREE_PRODUCTS[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(recipe))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestDeepStructureFile:
    @pytest.mark.parametrize("case", ["brackets", "direct products"])
    def test_exits_two_with_one_error_line(self, capsys, tmp_path, case):
        path = tmp_path / "deep.json"
        if case == "brackets":
            path.write_text("[" * 200_000)
        else:
            group = {"family": "free", "rank": 1, "labels": ["a"]}
            for _ in range(450):
                group = {"family": "direct_product", "factors": [group]}
            path.write_text(json.dumps({"builder": "product", "group": group}))
        code, out, err = run(capsys, "decompose", str(path))
        assert code == 2 and out == ""
        assert err == "error: structure json nests too deeply\n"


class TestCertify:
    def test_product_semigroup(self, capsys):
        code, doc, _ = run_json(capsys, "certify",
                                f"{STRUCTURES}/f2xz.json",
                                "--genset", "a,b,t")
        assert code == 0
        assert doc["report"]["variant"] == "free-semigroup"
        assert doc["report"]["schema_version"] == 1
        assert doc["report"]["ledger"]["k1"] == 240

    def test_f2xf2_builds_only_the_generation_ball(self, capsys, built_layers):
        # the growth cross-check takes its counts (472,393 at radius 9) from
        # the series
        code, doc, _ = run_json(capsys, "certify", f"{STRUCTURES}/f2xf2.json",
                                "--genset", "a,b,c,d")
        assert code == 0
        assert doc["report"]["evidence"]["growth_check"]["rows"][-1]["beta"] == 472_393
        # the generation check stops at radius 1, where a, b, c, d are reached
        assert built_layers == [1, 8]

    def test_nested_route(self, capsys):
        code, doc, _ = run_json(capsys, "certify", "f2freez", "--genset", "a,b,ac")
        assert code == 0
        assert doc["report"]["variant"] == "free-subgroup"
        assert doc["report"]["evidence"]["case"] == "nested"
        assert doc["report"]["evidence"]["parent_domain"] == "S"

    def test_over_declared_rank_scans_the_closure_once(self, capsys, tmp_path,
                                                       monkeypatch):
        # N_rank 5 on f2freez orbits the big sets into 4,688 labels; the
        # dichotomy's ordered scan asks for a handful of relations, where
        # the whole pair table of the closure would ask for 21,972,656
        path = with_constants(tmp_path, "f2freez", N_rank=5)
        st = structure_from_json(json.loads(path.read_text()))
        closure = collect_big_domains(st, [st.group.parse(w) for w in "abc"]).closure
        assert len(closure) == 4688
        calls = []
        relation = FreeProductHHG.relation

        def counted(self, u, v):
            calls.append((u, v))
            assert len(calls) <= len(closure), "more relations than labels"
            return relation(self, u, v)

        monkeypatch.setattr(FreeProductHHG, "relation", counted)
        code, doc, _ = run_json(capsys, "certify", str(path), "--genset", "a,b,c")
        assert code == 0
        assert doc["report"]["variant"] == "free-subgroup"
        assert doc["report"]["evidence"]["domains"] == ["ab@1", "c@1"]
        assert doc["report"]["evidence"]["route"]["closure"] == closure

    def test_summary_lines(self, capsys, tmp_path):
        out = tmp_path / "cert.json"
        code, text, _ = run(capsys, "certify", "free2",
                            "--genset", "a,b", "--out", str(out))
        assert code == 0
        assert "variant: free-subgroup" in text
        assert "words: a, baB" in text
        doc = json.loads(out.read_text())
        assert doc["report"]["words"] == {"u": [0], "w": [2, 0, 3]}

    def test_depth_flag_recorded(self, capsys):
        code, doc, _ = run_json(capsys, "certify", "free2",
                                "--genset", "a,b", "--depth", "5")
        assert doc["report"]["verified_depth"] == 5

    def test_missing_genset_usage(self, capsys):
        code, _, err = run(capsys, "certify", "free2")
        assert code == 2
        assert "genset" in err

    NOT_GENERATING = ("error: words do not generate the group, or, where no exact test "
                      "applies, do not reach the standard generators within radius 6\n")

    def test_non_generating_usage(self, capsys):
        code, out, err = run(capsys, "certify", "free2", "--genset", "a")
        assert code == 2 and out == ""
        assert err == self.NOT_GENERATING

    def test_direct_product_generation_past_the_radius_is_usage_error(self, capsys):
        # t = A^7 · aaaaaaat is eight steps out; a direct product has no
        # exact generation test, so the radius-6 BFS refuses the set
        code, out, err = run(capsys, "certify", "f2xz", "--genset", "a,b,aaaaaaat")
        assert code == 2 and out == ""
        assert err == self.NOT_GENERATING

    def test_far_basis_certifies(self, capsys):
        # a is nine steps out in {b, abbbbbbbb}, past the radius-6 BFS that
        # refused this set before generation was decided exactly
        code, doc, _ = run_json(capsys, "certify", f"{STRUCTURES}/free2.json",
                                "--genset", "b,abbbbbbbb")
        assert code == 0
        assert doc["report"]["variant"] == "free-subgroup"
        assert doc["report"]["lengths"] == [1, 3]

    def test_z2_basis_that_grows_fast_at_small_radii_is_abelian(self, capsys):
        # beta(8)/beta(4) = 9525/965 exceeds the doubling bound 8, yet both
        # blocks are single quasi-lines, so Z^2 is virtually abelian
        code, doc, _ = run_json(capsys, "certify", "z2", "--genset",
                                "a,b,aaaaaaaaaaab,abbbbbbbbbbb,aaaaabbbbbbbbb,aaaaaaaabbbbb")
        assert code == 0
        report = doc["report"]
        assert report["variant"] == "virtually-abelian"
        assert report["evidence"]["blocks"] == [["L1"], ["L2"]]
        assert report["evidence"]["polynomial"] is False
        assert report["evidence"]["growth"][4] == 965
        assert report["evidence"]["growth"][8] == 9525

    def test_depth_below_one_is_usage_error(self, capsys):
        code, out, err = run(capsys, "certify", "free2", "--genset", "a,b",
                             "--depth", "0")
        assert code == 2 and out == ""
        assert err == "error: verification depth must be at least 1\n"

    @pytest.mark.parametrize("name, gens, constant, value, ratio", [
        ("free2", "a,b", "tau0", 5e-324, "10*D/tau0"),
        ("f2freez", "a,b,c", "kappa0", 1e308, "2*kappa0/tau0"),
        # a finite float, but past lgamma's range
        pytest.param("f2xz", "a,b,t", "N_rank", 10 ** 306, "k1", id="N_rank-1e306"),
    ])
    def test_power_schedule_overflow_is_usage_error(self, capsys, tmp_path, name, gens,
                                                    constant, value, ratio):
        path = with_constants(tmp_path, name, **{constant: value})
        code, out, err = run(capsys, "certify", str(path), "--genset", gens)
        assert code == 2 and out == ""
        assert err == f"error: power schedule overflows: {ratio} is not finite\n"

    @pytest.mark.parametrize("tau0", [0.01, 1e-7])
    def test_huge_factorial_schedule_is_usage_error(self, capsys, tmp_path, tau0):
        # a small tau0 puts (2*n0 + 1)! past the schedule's digit limit; the
        # estimate refuses it before computing any factorial
        with open(f"{STRUCTURES}/free2.json") as fh:
            recipe = json.load(fh)
        recipe["constants"] = {"tau0": tau0}
        path = tmp_path / "free2.json"
        path.write_text(json.dumps(recipe))
        start = time.perf_counter()
        code, out, err = run(capsys, "certify", str(path), "--genset", "a,b")
        assert time.perf_counter() - start < 2.0
        assert code == 2 and out == ""
        assert err.startswith("error: power schedule overflows: k2 has about ")
        assert err.count("\n") == 1

    def test_huge_rank_never_builds_its_factorial(self, capsys, tmp_path, monkeypatch):
        # N_rank = 10^6: check bounds each domain period without building
        # N_rank!, and certify refuses the power schedule before the
        # dichotomy, whose classification would build it
        path = with_constants(tmp_path, "f2xz", N_rank=10 ** 6)
        factorial = math.factorial

        def small_factorial(n):
            if n > 1000:
                raise AssertionError(f"computed {n}!")
            return factorial(n)

        monkeypatch.setattr(math, "factorial", small_factorial)
        code, doc, _ = run_json(capsys, "check", str(path))
        assert code == 0 and doc["report"]["passed"] is True
        code, out, err = run(capsys, "certify", str(path), "--genset", "a,b,t")
        assert code == 2 and out == ""
        assert err == "error: power schedule overflows: k1 has about 11733481 digits\n"

    def test_anomaly_exits_one_with_witness(self, capsys):
        code, _, err = run(capsys, "certify", "bad-orth-closure",
                           "--genset", "t")
        assert code == 1
        dump = json.loads(err)
        assert dump["error"] == "ClassificationAnomalyError"
        assert "big set" in dump["message"]

    def test_elliptic_word_on_a_far_coset(self, capsys):
        # aaacAAA fixes only the coset aaa<c>, outside the radius-2 window
        code, doc, _ = run_json(capsys, "certify", f"{STRUCTURES}/f2freez.json",
                                "--genset", "a,b,c,aaacAAA")
        assert code == 0
        assert doc["report"]["variant"] == "free-subgroup"
        assert "c@aaa" in doc["report"]["evidence"]["route"]["big"]


class TestScan:
    def test_free_group_tiny_scan(self, capsys):
        code, out, _ = run(capsys, "scan", "free2", "--scan-size", "2",
                           "--scan-length", "1", "--radius", "4",
                           "--growth-n", "6", "--depth", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# schema_version=1 command=scan")
        assert lines[1].startswith("row,generating_set,variant")
        assert lines[2].startswith("0,a b,free-subgroup")
        assert lines[-1].startswith("summary,rows=1,errors=0")

    def test_depth_below_one_is_usage_error(self, capsys):
        code, out, err = run(capsys, "scan", "free2", "--scan-size", "2",
                             "--scan-length", "1", "--radius", "4", "--depth", "0")
        assert code == 2 and out == ""
        assert err == "error: verification depth must be at least 1\n"

    @pytest.mark.parametrize("bounds", [(), ("--scan-size", "1", "--scan-length", "1")])
    def test_depth_below_one_without_certified_sets(self, capsys, bounds):
        code, out, err = run(capsys, "scan", "free2", *bounds, "--depth", "0")
        assert code == 2 and out == ""
        assert err == "error: verification depth must be at least 1\n"

    @pytest.mark.parametrize("radius", ["0", "-5"])
    @pytest.mark.parametrize("bounds", [(), ("--scan-size", "1", "--scan-length", "1")])
    def test_radius_below_one_without_certified_sets(self, capsys, bounds, radius):
        code, out, err = run(capsys, "scan", "free2", *bounds, "--radius", radius)
        assert code == 2 and out == ""
        assert err == "error: length and radius bounds must be at least 1\n"

    @pytest.mark.parametrize("growth_n", ["0", "-1"])
    def test_growth_n_below_one_is_usage_error(self, capsys, growth_n):
        code, out, err = run(capsys, "scan", "free2", "--scan-size", "2",
                             "--scan-length", "1", "--radius", "4",
                             "--growth-n", growth_n)
        assert code == 2 and out == ""
        assert err == "error: growth n must be at least 1\n"

    def test_radius_past_the_ball_budget(self, capsys):
        # free2 decides generation exactly, so no BFS runs: the radius-13
        # ball of 3,188,645 elements would be past the budget
        code, out, err = run(capsys, "scan", f"{STRUCTURES}/free2.json", "--scan-size", "2",
                             "--scan-length", "1", "--radius", "13")
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[2].startswith("0,a b,free-subgroup,3,")
        assert lines[-1].startswith("summary,rows=1,errors=0")

    def test_each_set_proves_generation_once(self, capsys, monkeypatch):
        # the enumeration proves that each of the 36 candidate sets
        # generates; certifying the 9 that do does not prove it again
        calls = []
        walk = balls.generates_at_radius

        def counted(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(balls, "generates_at_radius", counted)
        monkeypatch.setattr("hhglab.certify.generates_at_radius", counted)
        code, _, _ = run(capsys, "scan", "free2", "--scan-size", "2",
                         "--scan-length", "2")
        assert code == 0
        assert len(calls) == 36

    def test_empty_bounds_header_only(self, capsys):
        code, out, _ = run(capsys, "scan", "z1")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert lines[-1].startswith("summary,rows=0,errors=0")

    def test_cyclic_row(self, capsys):
        code, out, _ = run(capsys, "scan", "z1", "--scan-size", "1",
                           "--scan-length", "2", "--radius", "3",
                           "--growth-n", "6")
        assert code == 0
        assert "0,t,virtually-cyclic" in out

    def test_json_format(self, capsys):
        code, doc, _ = run_json(capsys, "scan", "z1", "--scan-size", "1",
                                "--scan-length", "2", "--radius", "3",
                                "--growth-n", "6", "--format", "json")
        assert code == 0
        assert doc["report"]["summary"]["rows"] == 1
        assert doc["report"]["rows"][0]["variant"] == "virtually-cyclic"


class TestGrowth:
    def test_standard_free_group_table(self, capsys):
        code, out, _ = run(capsys, "growth", "free2", "--n", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "n,count,log_count_over_n"
        counts = [int(line.split(",")[1]) for line in lines[2:]]
        assert counts == [2 * 3 ** n - 1 for n in range(1, 6)]

    def test_verbatim_genset(self, capsys):
        code, out, _ = run(capsys, "growth", "z1", "--genset", "t",
                           "--n", "3")
        counts = [int(line.split(",")[1])
                  for line in out.strip().split("\n")[2:]]
        assert counts == [2, 3, 4]

    def test_symmetrize_flag(self, capsys):
        code, out, _ = run(capsys, "growth", "z1", "--genset", "t",
                           "--n", "3", "--symmetrize")
        counts = [int(line.split(",")[1])
                  for line in out.strip().split("\n")[2:]]
        assert counts == [3, 5, 7]

    def test_identity_genset_is_usage_error(self, capsys):
        code, out, err = run(capsys, "growth", "free2", "--genset", "1")
        assert code == 2 and out == ""
        assert err == "error: generating set contains the identity\n"

    def test_label_e_is_a_generator(self, capsys, tmp_path):
        recipe = {"builder": "product", "label": "F5",
                  "group": {"family": "free", "rank": 5, "labels": list("abcde")}}
        path = tmp_path / "F5.json"
        path.write_text(json.dumps(recipe))
        assert structure_from_json(recipe).group.parse("e") == (8,)
        code, out, err = run(capsys, "growth", str(path), "--genset", "e,a", "--n", "2")
        assert code == 0 and err == ""
        counts = [int(line.split(",")[1]) for line in out.strip().split("\n")[2:]]
        assert counts == [3, 7]  # positive words in e and a: 1 + 2 + 4
        code, out, err = run(capsys, "growth", "free2", "--genset", "e")
        assert code == 2 and out == ""

    def test_json_format(self, capsys):
        code, doc, _ = run_json(capsys, "growth", "z2", "--n", "4",
                                "--format", "json")
        assert [r["count"] for r in doc["report"]["rows"]] == [
            2 * n * n + 2 * n + 1 for n in range(1, 5)]


class TestDistance:
    def test_product_fit_is_exact(self, capsys):
        code, doc, _ = run_json(capsys, "distance", f"{STRUCTURES}/f2xz.json",
                                "--s", "0", "--pairs", "50")
        assert code == 0
        assert doc["report"]["ok"] is True
        assert doc["report"]["K"] <= 1.5
        assert doc["report"]["C"] <= 2.0
        assert doc["report"]["n_samples"] == 50

    @pytest.mark.parametrize("length", ["0", "-3"])
    def test_length_below_one_is_usage_error(self, capsys, length):
        code, out, err = run(capsys, "distance", "f2xz", "--length", length)
        assert code == 2 and out == ""
        assert err == "error: sampled word length must be at least 1\n"

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
    def test_threshold_not_finite_and_nonnegative_is_usage_error(self, capsys, threshold):
        # a NaN or infinite threshold would be written as invalid json
        code, out, err = run(capsys, "distance", "f2xz", f"--s={threshold}")
        assert code == 2 and out == ""
        assert err == "error: threshold must be finite and nonnegative\n"

    def test_group_without_generators_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "z0.json"
        path.write_text(json.dumps({"builder": "product", "label": "z0",
                                    "group": {"family": "free_abelian", "rank": 0}}))
        code, out, err = run(capsys, "distance", str(path), "--pairs", "3")
        assert code == 2 and out == ""
        assert err == "error: empty generating set\n"

    @pytest.mark.parametrize("source", ["z0", "free-product-with-f0"])
    def test_a_finite_ball_is_not_walked_to_the_radius(self, capsys, tmp_path, source):
        # a rank-0 group's spheres are 1, 0, 0, ...: the group's own ball,
        # or a rank-0 factor's sampled tree space, stops at the first empty
        # sphere instead of walking a billion of them
        if source == "z0":
            recipe = {"builder": "product", "label": "z0",
                      "group": {"family": "free_abelian", "rank": 0}}
        else:
            with open(f"{STRUCTURES}/f2freez.json") as fh:
                recipe = json.load(fh)
            recipe["group"]["factors"][1] = {"family": "free", "rank": 0, "labels": []}
        path = tmp_path / f"{source}.json"
        path.write_text(json.dumps(recipe))
        code, out, err = run(capsys, "check", str(path), "--radius", "1000000000")
        assert code == 2 and out == ""
        assert err == "error: empty generating set\n"


class TestDecompose:
    def test_two_tree_blocks(self, capsys):
        code, doc, _ = run_json(capsys, "decompose",
                                f"{STRUCTURES}/f2xf2.json")
        assert code == 0
        assert doc["report"]["blocks"] == [["T1"], ["T2"]]
        assert [d["kind"] for d in doc["report"]["descriptors"]] == [
            "tree", "tree"]

    def test_single_block(self, capsys):
        code, doc, _ = run_json(capsys, "decompose", "z1")
        assert doc["report"]["blocks"] == [["S"]]
        assert doc["report"]["descriptors"][0]["kind"] == "line"


class TestStructureDigest:
    def test_a_piped_file_gets_the_digest_of_its_bytes(self, capsys):
        # the file is read once, so a pipe, which cannot be read twice,
        # is hashed from the bytes that were parsed
        data = pathlib.Path(f"{STRUCTURES}/f2xz.json").read_bytes()
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r}); "
             "from hhglab.cli import main; sys.exit(main())", "decompose", "/dev/stdin"],
            input=data, capture_output=True, check=True)
        piped = json.loads(done.stdout)
        assert piped["structure_source"] == {
            "kind": "file", "source": "/dev/stdin",
            "sha256": hashlib.sha256(data).hexdigest()}
        code, doc, _ = run_json(capsys, "decompose", f"{STRUCTURES}/f2xz.json")
        assert code == 0 and doc["report"] == piped["report"]
        assert doc["structure_source"]["sha256"] == piped["structure_source"]["sha256"]


class TestDriverFailures:
    """Loading, running, rendering and writing all fail inside main's
    error mapping: no traceback, and no report file unless it is whole."""

    @pytest.mark.parametrize("argv", [("check", "z1"), ("scan", "free2")])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "r"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_budget_error_writes_no_report(self, capsys, tmp_path):
        path = tmp_path / "F"
        code, out, err = run(capsys, "growth", "free2", "--n", "20000", "--out", str(path))
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "ResourceBudgetError",
            "message": "ball count exceeded 4000 digits at radius 8383",
            "witness": {"partial_radius": 8382}}
        assert not path.exists()


class TestUsage:
    @pytest.mark.parametrize("argv", list(USAGE_SURFACE),
                             ids=lambda argv: " ".join(argv) or "no-command")
    def test_usage_bytes(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out = capsys.readouterr()
        assert (exc.value.code, out.out, out.err) == USAGE_SURFACE[argv]

    def test_one_command_parses_as_the_full_parser(self, reachability):
        full = cli.build_parser(None)
        for argv in reachability.commands():
            argv = argv + ["--out", "report"]
            assert cli.build_parser(argv[0]).parse_args(argv) == full.parse_args(argv)

    def test_one_command_builds_one_subparser(self):
        parser = cli.build_parser("certify")
        assert list(parser._subparsers._group_actions[0].choices) == ["certify"]
        assert list(cli.build_parser("nonesuch")._subparsers._group_actions[0]
                    .choices) == list(cli.COMMANDS)


class TestDeterminism:
    def rerun(self, tmp_path, name, *argv):
        a, b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        assert main(list(argv) + ["--out", str(a)]) == main(
            list(argv) + ["--out", str(b)])
        return a.read_bytes(), b.read_bytes()

    def test_check_bytes(self, capsys, tmp_path):
        a, b = self.rerun(tmp_path, "check", "check",
                          f"{STRUCTURES}/f2xz.json", "--seed", "3")
        assert a == b

    def test_certify_bytes(self, capsys, tmp_path):
        a, b = self.rerun(tmp_path, "cert", "certify", "f2freez",
                          "--genset", "a,b,c", "--depth", "4")
        assert a == b

    def test_scan_bytes(self, capsys, tmp_path):
        a, b = self.rerun(tmp_path, "scan", "scan", "z1",
                          "--scan-size", "1", "--scan-length", "2",
                          "--radius", "3", "--growth-n", "6")
        assert a == b

    def test_distance_bytes(self, capsys, tmp_path):
        a, b = self.rerun(tmp_path, "dist", "distance", "f2xz",
                          "--pairs", "30", "--seed", "7")
        assert a == b


class TestBenchmarkTracer:
    """The benchmark's tracer wraps hhglab functions by name and reads the
    oracles' positional depth; renaming either fails here, not in a traced
    benchmark run."""

    RUNS = (("free2", "a,b"), ("f2xf2", "a,b,c,d"))

    def test_traced_certify_keeps_its_bytes(self, tracing, tmp_path):
        argv = [["certify", f"{STRUCTURES}/{name}.json", "--genset", genset]
                for name, genset in self.RUNS]
        untraced = []
        for i, args in enumerate(argv):
            assert cli.main(args + ["--out", str(tmp_path / f"plain{i}")]) == 0
            untraced.append((tmp_path / f"plain{i}").read_bytes())
        tracer = tracing.Tracer()
        tracer.install()
        restore = list(tracer._restore)
        try:
            codes = [cli.main(args + ["--out", str(tmp_path / f"traced{i}")])
                     for i, args in enumerate(argv)]
        finally:
            tracer.uninstall()
        assert codes == [0, 0]
        assert [(tmp_path / f"traced{i}").read_bytes()
                for i in range(len(argv))] == untraced
        for owner, name, value in restore:
            current = owner[name] if isinstance(owner, dict) else getattr(owner, name)
            assert current is value, name
        for oracle in ("verify_free_subgroup", "verify_free_semigroup"):
            assert tracer.stats[f"certify.{oracle}"][0] >= 1
            assert tracer.counts[f"certify.{oracle}.words"] > 0

    def test_traced_scan_keeps_its_bytes_and_counts(self, tracing, tmp_path):
        # the scan workload's counters: 36 candidate sets tested, 9 generate
        args = ["scan", f"{STRUCTURES}/free2.json", "--scan-size", "2",
                "--scan-length", "2"]
        assert cli.main(args + ["--out", str(tmp_path / "plain")]) == 0
        tracer = tracing.Tracer()
        tracer.install()
        try:
            code = cli.main(args + ["--out", str(tmp_path / "traced")])
        finally:
            tracer.uninstall()
        assert code == 0
        assert (tmp_path / "traced").read_bytes() == (tmp_path / "plain").read_bytes()
        assert tracer.stats["balls.generates_at_radius"][0] == 36
        assert tracer.counts["balls.generates_at_radius.accepted"] == 9
