import json

import jsonschema
import pytest

import qusp.cli
from qusp.cli import (
    EXIT_COUNTEREXAMPLE,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_PASS,
    canonical_report_bytes,
    export_topology,
    main,
    run_scenario,
)
from qusp.quniform import FiniteQuasiUniformity
from qusp.ratcover import CoverError
from qusp.relcore import Relation, ground

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

    def test_dense_alias(self):
        scenario = {"scenario": "dense", "eps": "1/2", "depth": 12, "refine_depth": 0, "grid": 32}
        code, _, _ = run_scenario(scenario)
        assert code == EXIT_PASS

    def test_schema_violation_has_field_path(self):
        with pytest.raises(Exception) as err:
            run_scenario({"scenario": "singular_scan"})
        assert "$" in str(err.value) and "n" in str(err.value)

    def test_report_embeds_digest_and_version(self):
        _, _, report = run_scenario({"scenario": "singular_scan", "n": 2})
        assert report["tool"]["name"] == "qusp"
        assert len(report["input_digest"]) == 64
        assert "timing_s" in report


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
        q = FiniteQuasiUniformity(
            G2, Relation.from_pairs(G2, [("a", "b")], reflexive=True)
        )
        dot = export_topology(q)
        assert "c0 -> c1;" in dot

    def test_transitive_reduction(self):
        q = FiniteQuasiUniformity(
            G3,
            Relation.from_pairs(
                G3, [("a", "b"), ("b", "c"), ("a", "c")], reflexive=True
            ),
        )
        dot = export_topology(q)
        assert dot.count("->") == 2  # a->b, b->c; the composite edge is reduced away

    def test_size_guard(self):
        g = ground(*[f"x{i}" for i in range(9)])
        with pytest.raises(Exception, match="capped"):
            export_topology(FiniteQuasiUniformity.discrete(g))


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
        path = write_scenario(tmp_path, "schema.json", {"scenario": "singular_scan", "n": 9})
        assert main(["run", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "schema violation" in err and "$.n" in err

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

    def test_enumerate_command(self, capsys):
        assert main(["enumerate", "3"]) == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["count"] == 29

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
            (jsonschema.ValidationError("bad field"), EXIT_INPUT),
        ],
        ids=["ValueError", "CoverError", "KeyError", "ValidationError"],
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

    def test_finite_ground_cap_is_input_error(self, tmp_path, capsys):
        labels = [f"x{i}" for i in range(17)]
        rows = ["0" * i + "1" + "0" * (16 - i) for i in range(17)]
        q = {"min": rel_json(17, labels, rows)}
        path = write_scenario(tmp_path, "big.json", {"scenario": "finite_compare", "q1": q, "q2": q})
        assert main(["run", path]) == EXIT_INPUT
        assert "capped at ground size 16" in capsys.readouterr().err
