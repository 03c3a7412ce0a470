"""The scenario-schema interpreter in `qusp.cli` against `jsonschema`, its reference.

`jsonschema` is a test dependency only: the differential test requires the
same accept/reject decision and the same error lines, in the order
`validate_scenario` prints them, on valid and mutated scenarios.  Integral
floats are the one intended difference (qusp refuses ``2.0`` for an integer
field, `jsonschema` accepts it), so the mutations leave them out and a test
of their own pins them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qusp.cli
from qusp.cli import EXIT_INPUT, EXIT_INTERNAL, InputProblem, main, validate_scenario

SCHEMA_TEXT = Path(qusp.cli.__file__).with_name("schemas").joinpath("scenario.schema.json").read_text()
REFERENCE = jsonschema.Draft202012Validator(json.loads(SCHEMA_TEXT))

CHAIN3 = {"min": {"n": 3, "labels": ["a", "b", "c"], "rows": ["111", "011", "001"]}}
VALID = [
    {"scenario": "finite_compare", "q1": CHAIN3, "q2": CHAIN3},
    {"scenario": "singular_scan", "n": 3},
    {"scenario": "kelley_demo", "seed": 0, "n": 8, "depth": 12, "count": 2},
    {"scenario": "dense_witness", "eps": "1/2"},
    {
        "scenario": "dense_witness",
        "eps": "-3/7",
        "depth": 64,
        "normal_depth": 1,
        "refine_depth": 1,
        "grid": 64,
        "scales": ["1/4"],
        "bounded_scales": [],
        "probe_scales": ["1/8", "2"],
        "probes": {"count": 5, "seed": 1},
    },
]
KEYS = ["scenario", "q1", "q2", "min", "n", "labels", "rows", "seed", "depth", "count", "eps", "normal_depth",
        "refine_depth", "scales", "bounded_scales", "probe_scales", "grid", "probes", "other"]
INTERESTING = ["finite_compare", "singular_scan", "kelley_demo", "dense_witness", "dense", "1/2", "1/x", "-3",
               "1/", "01", "012", "", 0, 1, 3, 4, 5, 12, 13, 16, 17, 256, 1000, 1001, 65536, -1, True, None, [], {}]

# Integral floats are left out: they are the one intended difference.
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-5, 70000)
    | st.floats(allow_nan=False, allow_infinity=False).filter(lambda f: not f.is_integer())
    | st.text(alphabet="01/-x\n", max_size=4)
    | st.sampled_from(INTERESTING)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=6,
)


def nodes(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from nodes(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from nodes(item, path + (index,))


def fresh(value):
    """A copy that shares no list or dict with value, nor any two of its parts with each other."""
    return json.loads(json.dumps(value))


@st.composite
def scenarios(draw):
    box = [fresh(draw(st.sampled_from(VALID)))]
    for _ in range(draw(st.integers(0, 3))):
        *parent_path, last = draw(st.sampled_from(list(nodes(box[0], (0,)))))
        parent = box
        for step in parent_path:
            parent = parent[step]
        action = draw(st.sampled_from(["replace", "delete", "insert"]))
        if action == "replace" or not isinstance(parent[last], dict):
            parent[last] = fresh(draw(json_values))
        elif action == "delete" and parent[last]:
            del parent[last][draw(st.sampled_from(sorted(parent[last])))]
        else:
            parent[last][draw(st.sampled_from(KEYS))] = fresh(draw(json_values))
    return box[0]


def reference_lines(scenario):
    return [f"{e.json_path}: {e.message}" for e in sorted(REFERENCE.iter_errors(scenario), key=lambda e: e.json_path)]


def interpreter_lines(scenario):
    try:
        validate_scenario(scenario)
    except InputProblem as exc:
        head, *lines = str(exc).split("\n")
        assert head == "scenario schema violation" and lines
        return lines
    return []


@settings(max_examples=600, deadline=None)
@given(scenarios())
def test_interpreter_agrees_with_jsonschema(scenario):
    assert interpreter_lines(scenario) == reference_lines(scenario)


@pytest.mark.parametrize("scenario", VALID + [{}, [], "kelley_demo"], ids=repr)
def test_fixed_cases_agree_with_jsonschema(scenario):
    assert interpreter_lines(scenario) == reference_lines(scenario)


@pytest.mark.parametrize(
    "scenario,lines",
    [
        ({"scenario": "kelley_demo", "seed": 1, "n": 4, "depth": 4, "cuont": 500},
         ["$: Additional properties are not allowed ('cuont' was unexpected)"]),
        ({"scenario": "singular_scan", "n": 2, "seed": 1, "depht": 3},
         ["$: Additional properties are not allowed ('depht', 'seed' were unexpected)"]),
        ({"scenario": "dense_witness", "eps": "1/2", "probes": {"count": 1, "seed": 0, "sede": 2}},
         ["$.probes: Additional properties are not allowed ('sede' was unexpected)"]),
    ],
    ids=["one extra key", "two extra keys", "extra key under probes"],
)
def test_unknown_keys_are_refused(tmp_path, capsys, scenario, lines):
    assert interpreter_lines(scenario) == reference_lines(scenario) == lines
    file = tmp_path / "unknown.json"
    file.write_text(json.dumps(scenario))
    assert main(["run", str(file)]) == EXIT_INPUT
    assert capsys.readouterr() == ("", "input error: scenario schema violation\n" + "\n".join(lines) + "\n")


def test_every_branch_requires_its_fields_when_scenario_is_absent():
    assert interpreter_lines({}) == [
        f"$: '{name}' is a required property" for name in ("scenario", "q1", "q2", "n", "seed", "n", "depth", "eps")
    ]


@pytest.mark.parametrize(
    "scenario,line",
    [
        ({"scenario": "kelley_demo", "seed": 0, "n": 2.0, "depth": 2}, "$.n: 2.0"),
        ({"scenario": "kelley_demo", "seed": 0.0, "n": 2, "depth": 2}, "$.seed: 0.0"),
        ({"scenario": "singular_scan", "n": 2.0}, "$.n: 2.0"),
        ({"scenario": "dense_witness", "eps": "1/2", "depth": 8.0}, "$.depth: 8.0"),
        ({"scenario": "dense_witness", "eps": "1/2", "grid": 16.0}, "$.grid: 16.0"),
        ({"scenario": "dense_witness", "eps": "1/2", "probes": {"count": 2.0, "seed": 1}}, "$.probes.count: 2.0"),
        ({"scenario": "finite_compare", "q1": CHAIN3,
          "q2": {"min": {"n": 3.0, "labels": ["a", "b", "c"], "rows": ["111", "011", "001"]}}}, "$.q2.min.n: 3.0"),
    ],
    ids=["kelley.n", "kelley.seed", "scan.n", "dense.depth", "dense.grid", "probes.count", "compare.n"],
)
def test_integral_float_is_not_an_integer(tmp_path, capsys, scenario, line):
    assert REFERENCE.is_valid(scenario)  # jsonschema takes 2.0 as an integer; qusp does not
    file = tmp_path / "float.json"
    file.write_text(json.dumps(scenario))
    assert main(["run", str(file)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: scenario schema violation\n{line} is not of type 'integer'\n"


@pytest.fixture
def fresh_schema():
    qusp.cli._schema.cache_clear()
    yield
    qusp.cli._schema.cache_clear()


@pytest.mark.parametrize(
    "edit,refused",
    [
        (lambda s: s["$defs"]["relation"].update(additionalProperties={"type": "string"}), "additionalProperties"),
        (lambda s: s["allOf"][3]["then"]["properties"]["scales"].update(maxItems=8), "maxItems"),
        (lambda s: s["allOf"][0]["if"].update(type="number"), "'number'"),
    ],
    ids=["additionalProperties", "maxItems", "type number"],
)
def test_unsupported_schema_keyword_is_refused_at_load(tmp_path, monkeypatch, capsys, fresh_schema, edit, refused):
    schema = json.loads(SCHEMA_TEXT)
    edit(schema)
    (tmp_path / "scenario.schema.json").write_text(json.dumps(schema))
    monkeypatch.setattr(qusp.cli.resources, "files", lambda package: tmp_path)
    with pytest.raises(ValueError, match="unsupported") as info:
        qusp.cli._schema()
    assert refused in str(info.value)
    # A schema the program cannot interpret is its own defect, not the scenario's.
    assert main(["scan", "2"]) == EXIT_INTERNAL
    assert "unsupported" in capsys.readouterr().err


def test_import_and_validation_leave_jsonschema_unloaded():
    src = str(Path(qusp.cli.__file__).parents[1])
    code = (
        "import sys, qusp.cli\n"
        "qusp.cli.validate_scenario({'scenario': 'singular_scan', 'n': 2})\n"
        "assert 'jsonschema' not in sys.modules, sorted(m for m in sys.modules if 'jsonschema' in m)\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})
