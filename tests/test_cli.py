import hashlib
import json
import math
import time

import pytest

from hhglab import balls
from hhglab.builders import structure_from_json
from hhglab.cli import main
from hhglab.errors import ResourceBudgetError

STRUCTURES = "structures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


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

    def test_f2xf2_builds_only_the_generation_ball(self, capsys, monkeypatch):
        # every Cayley ball comes from the BFS core balls._layers; the growth
        # cross-check takes its counts (472,393 at radius 9) from the series
        built = []
        layers = balls._layers

        def counted(model, gens, max_elements):
            for layer in layers(model, gens, max_elements):
                built.append(len(layer))
                yield layer

        monkeypatch.setattr(balls, "_layers", counted)
        code, doc, _ = run_json(capsys, "certify", f"{STRUCTURES}/f2xf2.json",
                                "--genset", "a,b,c,d")
        assert code == 0
        assert doc["report"]["evidence"]["growth_check"]["rows"][-1]["beta"] == 472_393
        # the generation check stops at radius 1, where a, b, c, d are reached
        assert built == [1, 8]

    def test_nested_route(self, capsys):
        code, doc, _ = run_json(capsys, "certify", "f2freez", "--genset", "a,b,ac")
        assert code == 0
        assert doc["report"]["variant"] == "free-subgroup"
        assert doc["report"]["evidence"]["case"] == "nested"
        assert doc["report"]["evidence"]["parent_domain"] == "S"

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

    def test_non_generating_usage(self, capsys):
        code, _, err = run(capsys, "certify", "free2", "--genset", "a")
        assert code == 2

    def test_depth_below_one_is_usage_error(self, capsys):
        code, out, err = run(capsys, "certify", "free2", "--genset", "a,b",
                             "--depth", "0")
        assert code == 2 and out == ""
        assert err == "error: verification depth must be at least 1\n"

    @pytest.mark.parametrize("name, gens, constant, value, ratio", [
        ("free2", "a,b", "tau0", 5e-324, "10*D/tau0"),
        ("f2freez", "a,b,c", "kappa0", 1e308, "2*kappa0/tau0"),
    ])
    def test_power_schedule_overflow_is_usage_error(self, capsys, tmp_path, name, gens,
                                                    constant, value, ratio):
        with open(f"{STRUCTURES}/{name}.json") as fh:
            recipe = json.load(fh)
        ledger = structure_from_json(recipe).constants.to_json()
        recipe["constants"] = {**ledger, constant: value}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(recipe))
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
        with open(f"{STRUCTURES}/f2xz.json") as fh:
            recipe = json.load(fh)
        ledger = structure_from_json(recipe).constants.to_json()
        recipe["constants"] = {**ledger, "N_rank": 10 ** 6}
        path = tmp_path / "f2xz.json"
        path.write_text(json.dumps(recipe))
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

    @pytest.mark.parametrize("growth_n", ["0", "-1"])
    def test_growth_n_below_one_is_usage_error(self, capsys, growth_n):
        code, out, err = run(capsys, "scan", "free2", "--scan-size", "2",
                             "--scan-length", "1", "--radius", "4",
                             "--growth-n", growth_n)
        assert code == 2 and out == ""
        assert err == "error: growth n must be at least 1\n"

    def test_radius_past_the_ball_budget(self, capsys):
        # {a, b} reaches the standard generators at radius 1, so the
        # generation check stops there instead of building the radius-13
        # ball of 3,188,645 elements, past the budget
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

    def test_group_without_generators_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "z0.json"
        path.write_text(json.dumps({"builder": "product", "label": "z0",
                                    "group": {"family": "free_abelian", "rank": 0}}))
        code, out, err = run(capsys, "distance", str(path), "--pairs", "3")
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
