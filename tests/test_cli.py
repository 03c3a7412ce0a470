import hashlib
import json
import re

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qusp.cli
from qusp.cli import (
    EXIT_COUNTEREXAMPLE,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_PASS,
    InputProblem,
    build_report,
    canonical_report_bytes,
    export_topology,
    main,
    run_scenario,
)
from qusp.hyper import MAX_HYPER_GROUND, enumerate_preorders
from qusp.quniform import FiniteQuasiUniformity
from qusp.ratcover import CoverError
from qusp.relcore import GroundSet, Relation, ground
from qusp.serialize import canonical_json_bytes

G2 = ground("a", "b")
G3 = ground("a", "b", "c")


def rel_json(n, labels, rows):
    return {"n": n, "labels": labels, "rows": rows}


DISCRETE2 = {"min": rel_json(2, ["a", "b"], ["10", "01"])}
INDISCRETE2 = {"min": rel_json(2, ["a", "b"], ["11", "11"])}


def write_scenario(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestRunScenario:
    def test_scan_pass(self):
        code, text, report = run_scenario({"scenario": "singular_scan", "n": 3})
        assert code == EXIT_PASS
        assert report["results"]["pairs"] == 406
        assert report["results"]["collisions"] == []
        assert json.loads(text)["results"]["preorders"] == 29
        assert canonical_report_bytes(json.loads(text)) == canonical_report_bytes(report)

    def test_compare_counterexample(self):
        scenario = {"scenario": "finite_compare", "q1": DISCRETE2, "q2": INDISCRETE2}
        code, _, report = run_scenario(scenario)
        assert code == EXIT_COUNTEREXAMPLE
        counter = report["results"]["counterexample"]
        assert counter is not None and counter["direction"] in ("forward", "backward")

    def test_compare_equivalent(self):
        scenario = {"scenario": "finite_compare", "q1": DISCRETE2, "q2": DISCRETE2}
        code, _, report = run_scenario(scenario)
        assert code == EXIT_PASS and report["results"]["equivalent"]

    def test_compare_permuted_labels(self):
        q1 = {"min": rel_json(2, ["a", "b"], ["11", "01"])}
        q2 = {"min": rel_json(2, ["b", "a"], ["10", "11"])}
        code, _, report = run_scenario({"scenario": "finite_compare", "q1": q1, "q2": q2})
        assert code == EXIT_PASS and report["results"]["equivalent"]

    def test_compare_permuted_three_point_preorder(self):
        # a below the cluster {b, c}; q2 lists the same preorder over c, a, b,
        # so both hyper_h matrices are equal once q2 is aligned to q1's labels.
        q1 = {"min": rel_json(3, ["a", "b", "c"], ["111", "011", "011"])}
        q2 = {"min": rel_json(3, ["c", "a", "b"], ["101", "111", "101"])}
        code, _, report = run_scenario({"scenario": "finite_compare", "q1": q1, "q2": q2})
        assert code == EXIT_PASS
        assert report["results"]["counterexample"] is None

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(enumerate_preorders(3)), st.sampled_from(enumerate_preorders(3)), st.permutations(range(3)))
    def test_compare_label_order_does_not_matter(self, r1, r2, order):
        shuffled = r2.relabel(GroundSet(tuple(r2.ground.labels[i] for i in order)))
        aligned = {"scenario": "finite_compare", "q1": {"min": r1.to_json()}, "q2": {"min": r2.to_json()}}
        permuted = {**aligned, "q2": {"min": shuffled.to_json()}}
        code, _, report = run_scenario(aligned)
        permuted_code, _, permuted_report = run_scenario(permuted)
        assert (permuted_code, permuted_report["results"]) == (code, report["results"])

    def test_kelley(self):
        code, _, report = run_scenario(
            {"scenario": "kelley_demo", "seed": 7, "n": 6, "depth": 6, "count": 3}
        )
        assert code == EXIT_PASS and report["results"]["all_pass"]

    def test_dense_small(self):
        scenario = {
            "scenario": "dense_witness",
            "eps": "1/2",
            "depth": 40,
            "normal_depth": 2,
            "refine_depth": 1,
            "grid": 64,
            "scales": ["1/4"],
            "probe_scales": ["1/4", "1/16"],
            "probes": {"count": 5, "seed": 3},
        }
        code, _, report = run_scenario(scenario)
        assert code == EXIT_PASS
        assert report["results"]["all_pass"]
        assert report["results"]["distinct_from_background"]
        kinds = [c["kind"] for c in report["certificates"]]
        assert "dense_witness_construction" in kinds
        assert "normal_sequence" in kinds
        assert "refined_base" in kinds
        assert "not_entourage" in kinds

    def test_schema_violation_has_field_path(self):
        with pytest.raises(Exception) as err:
            run_scenario({"scenario": "singular_scan"})
        assert "$" in str(err.value) and "n" in str(err.value)

    def test_report_embeds_digest_and_version(self):
        _, _, report = run_scenario({"scenario": "singular_scan", "n": 2})
        assert report["tool"]["name"] == "qusp"
        assert len(report["input_digest"]) == 64
        assert "timing_s" in report


class TestCachedValidator:
    BAD = {"scenario": "kelley_demo", "seed": 0, "n": 0, "depth": 99}
    GOOD = {"scenario": "kelley_demo", "seed": 0, "n": 3, "depth": 2}

    def schema_error(self, scenario):
        with pytest.raises(InputProblem) as err:
            qusp.cli.validate_scenario(scenario)
        return str(err.value)

    def test_bad_after_good_keeps_the_field_path_message(self):
        qusp.cli._schema.cache_clear()
        cold = self.schema_error(self.BAD)
        assert run_scenario(self.GOOD)[0] == EXIT_PASS
        assert self.schema_error(self.BAD) == cold == (
            "scenario schema violation\n"
            "$.depth: 99 is greater than the maximum of 12\n"
            "$.n: 0 is less than the minimum of 1"
        )

    def test_validator_built_once(self, monkeypatch):
        loads = []
        real = qusp.cli.resources.files

        def counting(package):
            loads.append(package)
            return real(package)

        qusp.cli._schema.cache_clear()
        monkeypatch.setattr(qusp.cli.resources, "files", counting)
        qusp.cli.validate_scenario(self.GOOD)
        self.schema_error(self.BAD)
        assert loads == ["qusp.schemas"]
        assert qusp.cli._schema() is qusp.cli._schema()


class TestDeterminism:
    def test_reports_byte_identical(self):
        scenario = {
            "scenario": "dense_witness",
            "eps": "1/2",
            "depth": 40,
            "normal_depth": 1,
            "refine_depth": 1,
            "grid": 64,
            "scales": ["1/4"],
            "probe_scales": ["1/8"],
            "probes": {"count": 4, "seed": 9},
        }
        _, _, first = run_scenario(scenario)
        _, _, second = run_scenario(scenario)
        assert canonical_report_bytes(first) == canonical_report_bytes(second)


class TestGoldenDigests:
    """sha256 of canonical reports, pinned so that a rewrite of the code
    behind a scenario cannot drift a single report byte unnoticed.  The
    report names the tool version, so a version bump changes these too."""

    CHAIN3 = {"min": rel_json(3, ["a", "b", "c"], ["111", "011", "001"])}
    VEE3 = {"min": rel_json(3, ["a", "b", "c"], ["110", "010", "011"])}

    @pytest.mark.parametrize(
        "scenario, code, sha256",
        [
            (
                {"scenario": "kelley_demo", "seed": 7, "n": 6, "depth": 6, "count": 200},
                EXIT_PASS,
                "4d907687b66a8f1309a901cc5f893fb3d9d340de4d8aa88f08c59c4dc8233019",
            ),
            (
                {"scenario": "finite_compare", "q1": CHAIN3, "q2": VEE3},
                EXIT_COUNTEREXAMPLE,
                "94992e0fc2f89e5c0785ab8565863f2c399d46c9d72269de87b386db285277cf",
            ),
            (
                {"scenario": "dense_witness", "eps": "1/2", "depth": 64, "probes": {"count": 50, "seed": 1}},
                EXIT_PASS,
                "58ed4d11855d5088b391a7698470617a2a4c632097d54ab134d63bf37f93aa41",
            ),
            (
                {
                    "scenario": "dense_witness",
                    "eps": "1/3",
                    "depth": 48,
                    "normal_depth": 2,
                    "refine_depth": 2,
                    "probes": {"count": 8, "seed": 5},
                    "scales": ["1/3", "2/7"],
                    "bounded_scales": ["1/5", "3/11"],
                    "probe_scales": ["1/9", "5/13"],
                },
                EXIT_PASS,
                "be5c9c3e84d3ae0e1da083b6669da0a7bef5285f4ca5508f53bdf86938787247",
            ),
        ],
        ids=["kelley_demo_readme", "finite_compare_chain_vs_vee", "dense_witness_probes", "dense_witness_non_dyadic"],
    )
    def test_canonical_report_digest(self, scenario, code, sha256):
        got_code, text, report = run_scenario(scenario)
        assert got_code == code
        assert hashlib.sha256(canonical_report_bytes(report)).hexdigest() == sha256
        assert text == canonical_json_bytes(report).decode() + "\n"
        assert text.count("\n") == 1
        assert canonical_report_bytes(json.loads(text)) == canonical_report_bytes(report)

    def test_kelley_grid_digest(self):
        # Every ground size and depth the schema allows, three seeds (one negative), five ladders each.
        digest = hashlib.sha256()
        for seed in (0, 7, -3):
            for n in range(1, 9):
                for depth in range(1, 13):
                    scenario = {"scenario": "kelley_demo", "seed": seed, "n": n, "depth": depth, "count": 5}
                    code, _, report = run_scenario(scenario)
                    digest.update(b"%d:" % code + canonical_report_bytes(report) + b"\n")
        assert digest.hexdigest() == "0c9375595cc440c6a47b1f44fa00b365138c661f1b43da81ad129d27c4357838"


class TestExportTopology:
    def test_discrete_edgeless(self):
        dot = export_topology(FiniteQuasiUniformity.discrete(G2))
        assert "->" not in dot
        assert 'c0 [label="a"]' in dot and 'c1 [label="b"]' in dot

    def test_indiscrete_single_cluster(self):
        dot = export_topology(FiniteQuasiUniformity.indiscrete(G3))
        assert dot.count("label=") == 1
        assert '[label="a=b=c"]' in dot and "->" not in dot

    def test_single_edge(self):
        q = FiniteQuasiUniformity(Relation.from_pairs(G2, [("a", "b")], reflexive=True))
        dot = export_topology(q)
        assert "c0 -> c1;" in dot

    def test_transitive_reduction(self):
        q = FiniteQuasiUniformity(Relation.from_pairs(G3, [("a", "b"), ("b", "c"), ("a", "c")], reflexive=True))
        dot = export_topology(q)
        assert dot.count("->") == 2  # a->b, b->c; the composite edge is reduced away

    def test_size_guard(self):
        g = ground(*[f"x{i}" for i in range(9)])
        with pytest.raises(Exception, match="capped"):
            export_topology(FiniteQuasiUniformity.discrete(g))

    def test_label_with_cluster_separator_rejected(self):
        # A point labelled "a=b" would print as the cluster of "a" and "b".
        assert 'c0 [label="a=b"]' in export_topology(FiniteQuasiUniformity.indiscrete(G2))
        with pytest.raises(InputProblem, match="label 'a=b'"):
            export_topology(FiniteQuasiUniformity.discrete(ground("a=b", "c")))

    def test_labels_escaped(self):
        labels = ['a"b', "c\\", 'd\\"e']
        dot = export_topology(FiniteQuasiUniformity.discrete(ground(*labels)))
        quoted = re.findall(r'^  c\d+ \[label="((?:[^"\\]|\\.)*)"\];$', dot, re.M)
        assert [re.sub(r"\\(.)", r"\1", q) for q in quoted] == labels


class TestMainEntry:
    def test_run_exit_codes(self, tmp_path, capsys):
        pass_path = write_scenario(tmp_path, "scan.json", {"scenario": "singular_scan", "n": 2})
        assert main(["run", pass_path]) == EXIT_PASS
        capsys.readouterr()

        counter_path = write_scenario(
            tmp_path,
            "cmp.json",
            {"scenario": "finite_compare", "q1": DISCRETE2, "q2": INDISCRETE2},
        )
        assert main(["run", counter_path]) == EXIT_COUNTEREXAMPLE
        capsys.readouterr()

    def test_malformed_rational_is_input_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "bad.json", {"scenario": "dense_witness", "eps": "1/0"})
        assert main(["run", path]) == EXIT_INPUT
        assert "input error" in capsys.readouterr().err

    def test_eps_too_large_is_input_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "eps.json", {"scenario": "dense_witness", "eps": "3/2"})
        assert main(["run", path]) == EXIT_INPUT
        capsys.readouterr()

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/scenario.json"]) == EXIT_INPUT
        assert "cannot read" in capsys.readouterr().err

    def test_broken_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == EXIT_INPUT
        capsys.readouterr()

    def test_schema_violation_exit(self, tmp_path, capsys):
        for scenario, field in (
            ({"scenario": "singular_scan", "n": 9}, "$.n"),
            # "dense" is no longer an alias of "dense_witness".
            ({"scenario": "dense", "eps": "1/2", "depth": 12, "refine_depth": 0, "grid": 32}, "$.scenario"),
        ):
            path = write_scenario(tmp_path, "schema.json", scenario)
            assert main(["run", str(path)]) == EXIT_INPUT
            err = capsys.readouterr().err
            assert "schema violation" in err and field in err

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        path = write_scenario(tmp_path, "scan.json", {"scenario": "singular_scan", "n": 2})
        assert main(["run", path, "--out", str(out)]) == EXIT_PASS
        report = json.loads(out.read_text())
        assert report["results"]["pairs"] == 6
        capsys.readouterr()

    def test_dot_format(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            "cmp.json",
            {"scenario": "finite_compare", "q1": DISCRETE2, "q2": INDISCRETE2},
        )
        code = main(["run", path, "--format", "dot"])
        out = capsys.readouterr().out
        assert code == EXIT_COUNTEREXAMPLE
        assert "digraph q1_specialization" in out
        assert "digraph q2_specialization" in out

    def test_dot_rejected_elsewhere(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "scan.json", {"scenario": "singular_scan", "n": 2})
        assert main(["run", path, "--format", "dot"]) == EXIT_INPUT
        capsys.readouterr()

    def test_rejected_format_never_runs_the_scenario(self, tmp_path, capsys, monkeypatch):
        def never(scenario):
            raise AssertionError("scenario runner called")

        for name in list(qusp.cli._RUNNERS):
            monkeypatch.setitem(qusp.cli._RUNNERS, name, never)
        nine = ground(*[f"x{i}" for i in range(9)])
        big = FiniteQuasiUniformity.discrete(nine).to_json()
        labelled = FiniteQuasiUniformity.discrete(ground("a=b", "c")).to_json()
        for scenario, message in (
            ({"scenario": "singular_scan", "n": 2}, "only available for finite_compare"),
            ({"scenario": "finite_compare", "q1": big, "q2": big}, "capped at ground size 8"),
            ({"scenario": "finite_compare", "q1": labelled, "q2": labelled}, "label 'a=b'"),
        ):
            path = write_scenario(tmp_path, "dot.json", scenario)
            assert main(["run", path, "--format", "dot"]) == EXIT_INPUT
            captured = capsys.readouterr()
            assert message in captured.err and captured.out == ""
        with pytest.raises(InputProblem, match="unknown format 'svg'"):
            run_scenario({"scenario": "singular_scan", "n": 2}, "svg")

    def test_enumerate_command(self, capsys):
        assert main(["enumerate", "3"]) == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["count"] == 29
        expected = build_report({"scenario": "enumerate", "n": 3}, {"n": 3, "count": 29}, [], 0.0)
        assert canonical_report_bytes(report) == canonical_report_bytes(expected)

    def test_enumerate_trivial(self, capsys):
        assert main(["enumerate", "1"]) == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["count"] == 1

    def test_enumerate_guard(self, capsys):
        assert main(["enumerate", "7"]) == EXIT_INPUT
        capsys.readouterr()

    def test_scan_command(self, capsys):
        assert main(["scan", "2"]) == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["pairs"] == 6

    def test_kelley_command(self, capsys):
        assert main(["kelley", "--seed", "7", "--n", "6", "--depth", "6"]) == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["all_pass"]

    def test_witness_command(self, capsys):
        assert main(["witness", "--eps", "1/2", "--depth", "12"]) == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["all_pass"]

    def test_witness_probe_past_truncation_names_probe_and_depth(self, capsys):
        argv = ["witness", "--eps", "1/2", "--depth", "16", "--probe-count", "50", "--probe-seed", "1"]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "probe 5 " in err and "truncation depth 16" in err

    def test_witness_requires_probe_seed(self, capsys):
        code = main(["witness", "--eps", "1/2", "--depth", "12", "--probe-count", "3"])
        assert code == EXIT_INPUT
        assert "probe-seed" in capsys.readouterr().err


class TestExitCodes:
    @pytest.mark.parametrize(
        "exc,code",
        [
            (ValueError("defect"), EXIT_INTERNAL),
            (CoverError("defect"), EXIT_INTERNAL),
            (KeyError("defect"), EXIT_INTERNAL),
            (jsonschema.ValidationError("defect"), EXIT_INTERNAL),
            (InputProblem("bad field"), EXIT_INPUT),
        ],
        ids=["ValueError", "CoverError", "KeyError", "ValidationError", "InputProblem"],
    )
    def test_runner_exception(self, monkeypatch, capsys, exc, code):
        def broken(scenario):
            raise exc

        monkeypatch.setitem(qusp.cli._RUNNERS, "singular_scan", broken)
        assert main(["scan", "2"]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        if code == EXIT_INTERNAL:
            assert "internal error" in captured.err and "Traceback" in captured.err
        else:
            assert "input error: bad field" in captured.err and "Traceback" not in captured.err

    def test_unwritable_out_path_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        assert main(["scan", "2", "--out", str(out)]) == EXIT_INPUT
        assert "cannot write report" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["scales", "bounded_scales", "probe_scales"])
    def test_nonpositive_scale_is_input_error(self, tmp_path, capsys, key):
        scenario = {"scenario": "dense_witness", "eps": "1/2", "depth": 8, "grid": 16, key: ["1/4", "0"]}
        assert main(["run", write_scenario(tmp_path, "scale.json", scenario)]) == EXIT_INPUT
        assert f"{key}: every scale must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields", [{"eps": "1/00", "depth": 4}, {"eps": "1/2", "scales": ["1/4", "1/000"]}], ids=["eps", "scales"]
    )
    def test_zero_denominator_is_input_error(self, tmp_path, capsys, fields):
        path = write_scenario(tmp_path, "zero.json", {"scenario": "dense_witness", **fields})
        assert main(["run", path]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "zero denominator" in captured.err and captured.out == ""

    @pytest.mark.parametrize("key", ["eps", "scales", "bounded_scales", "probe_scales"])
    def test_trailing_newline_in_rational_is_input_error(self, tmp_path, capsys, key):
        # The schema's $-anchored pattern lets "1/2\n" through; parse_frac refuses it.
        scenario = {"scenario": "dense_witness", "eps": "1/2", "depth": 4, "grid": 16}
        scenario[key] = "1/2\n" if key == "eps" else ["1/4", "1/2\n"]
        assert main(["run", write_scenario(tmp_path, "newline.json", scenario)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert f"input error: {key}: malformed rational '1/2\\n'" in captured.err and captured.out == ""

    @pytest.mark.parametrize("rows", [["111", "011"], ["111", "011", "001", "001"]], ids=["two rows", "four rows"])
    def test_row_count_off_the_ground_size_is_input_error(self, tmp_path, capsys, rows):
        # Relation.from_json checks each row's length; the Relation constructor checks how many there are.
        q1 = {"min": rel_json(3, ["a", "b", "c"], rows)}
        q2 = {"min": rel_json(3, ["a", "b", "c"], ["111", "011", "001"])}
        path = write_scenario(tmp_path, "rows.json", {"scenario": "finite_compare", "q1": q1, "q2": q2})
        assert main(["run", path]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == "input error: bad quasi-uniformity: row count does not match ground size\n"
        assert captured.out == ""

    def test_cross_ground_compare_is_input_error(self, tmp_path, capsys):
        q2 = {"min": rel_json(2, ["a", "c"], ["10", "01"])}
        path = write_scenario(tmp_path, "cross.json", {"scenario": "finite_compare", "q1": DISCRETE2, "q2": q2})
        assert main(["run", path]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "q1 and q2 must share one ground set" in captured.err and captured.out == ""

    def test_finite_ground_cap_is_input_error(self, tmp_path, capsys, monkeypatch):
        n = MAX_HYPER_GROUND + 1
        labels = [f"x{i}" for i in range(n)]
        rows = ["0" * i + "1" + "0" * (n - 1 - i) for i in range(n)]
        q = {"min": rel_json(n, labels, rows)}
        path = write_scenario(tmp_path, "big.json", {"scenario": "finite_compare", "q1": q, "q2": q})

        def never(data):
            raise AssertionError("relation parsed before the schema refused it")

        monkeypatch.setattr(qusp.cli, "_load_quniform", never)
        assert main(["run", path]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "$.q1.min.n" in err and f"maximum of {MAX_HYPER_GROUND}" in err

    @pytest.mark.parametrize("key", ["bounded_scales", "scales"])
    def test_chop_cap_is_input_error(self, tmp_path, capsys, key):
        # The complement of set 8 is (0, 1/18]: 5 555 556 pieces at this scale,
        # counted and refused before any is cut.
        scenario = {"scenario": "dense_witness", "eps": "1/2", "depth": 8, "grid": 16, key: ["1/100000000"]}
        assert main(["run", write_scenario(tmp_path, "tiny.json", scenario)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error: scale 1/100000000 would chop the complement of cover set 8 into 5555556 pieces" in captured.err

    def test_refine_failure_is_reported(self, tmp_path, capsys, monkeypatch):
        def failing(tower, scales, probes):
            raise CoverError("membership certificate failed for cover 0")

        monkeypatch.setattr(qusp.cli, "refined_base", failing)
        scenario = {"scenario": "dense_witness", "eps": "1/2", "depth": 8, "grid": 16}
        assert main(["run", write_scenario(tmp_path, "refine.json", scenario)]) == EXIT_COUNTEREXAMPLE
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["refine_failure"] == "membership certificate failed for cover 0"
        assert report["results"]["refined_base"] == [] and report["results"]["all_pass"] is False
