"""How outside values are read: the number readers and `configure` of
`liefock.errors`, every whole-number leaf of the built-in configs and the
`husimi` state files, the fields of each coherent-state kind, the
amplitude pairs of a state, the oracle's formula parameters, and unknown
parameter names, down to the CLI's exit code 2."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liefock
from liefock import FockBasis, boson, scenarios
from liefock.cli import EXIT_CONFIG, main
from liefock.errors import ConfigError, configure, exact_number, whole_number
from liefock.scenarios import (
    BUILTIN_SCENARIOS,
    build_initial_state,
    build_system,
    builtin_scenario,
    load_state_file,
    parse_config,
    read_state,
    run_scenario,
    system_weights,
)
from test_seed_oracles import assert_same_basis, assert_same_operator_bytes


@pytest.mark.parametrize(
    "value,want",
    [
        (3, Fraction(3)),
        (0.9, Fraction(9, 10)),  # a float is read through its repr
        (np.float64(0.1), Fraction(1, 10)),
        (np.int64(7), Fraction(7)),
        (Fraction(7, 2), Fraction(7, 2)),
        ("7/2", Fraction(7, 2)),
        ("-0.25", Fraction(-1, 4)),
        ("1e3", Fraction(1000)),
        (10**300, Fraction(10**300)),
    ],
)
def test_exact_number_reads_numbers_and_rational_strings(value, want):
    got = exact_number(value, "f")
    assert got == want and type(got) is Fraction


@pytest.mark.parametrize(
    "value", [True, False, None, float("nan"), float("inf"), "-inf", "nan", "x", "1/0", [1], {"a": 1}, 1j, 10**400, "1e400"]
)
def test_exact_number_refuses_everything_else(value):
    with pytest.raises(ConfigError, match=re.escape("a.b must be a finite number or a rational string")) as info:
        exact_number(value, "a.b")
    assert info.value.field == "a.b"


@pytest.mark.parametrize("value", [6, 6.0, "6", "6.0", "12/2", Fraction(6), np.int64(6), np.float64(6.0)])
def test_whole_number_reads_every_spelling_of_a_whole_value(value):
    got = whole_number(value, "f")
    assert got == 6 and type(got) is int


@pytest.mark.parametrize("value", [2.5, -0.5, "7/2", Fraction(1, 3), True, False, None, "x", float("nan"), [6], "1/0"])
def test_whole_number_refuses_fractions_bools_and_non_numbers(value):
    with pytest.raises(ConfigError, match=re.escape("times.num must be a whole number")) as info:
        whole_number(value, "times.num")
    assert info.value.field == "times.num"


def _factory(N=4, phi=0.0, label="x"):
    return N, phi, label


def _needs(a, b=1):
    return a, b


def test_configure_reads_whole_parameters_and_passes_the_rest_as_given():
    assert configure(_factory, {"N": "6.0", "phi": "1/2"}, "scenario") == (6, "1/2", "x")
    assert type(configure(_factory, {"N": 6.0}, "scenario")[0]) is int
    assert configure(_factory, {}, "scenario") == (4, 0.0, "x")


@pytest.mark.parametrize(
    "fn,params,message,field",
    [
        (_factory, {"x": 1}, "unknown scenario parameter 'x'; known: N, phi, label", "scenario parameter x"),
        (_factory, {"N": 2.5}, "scenario parameter N must be a whole number, got 2.5", "scenario parameter N"),
        (_factory, {"N": True}, "scenario parameter N must be a whole number, got True", "scenario parameter N"),
        (_needs, {"b": 2}, "missing scenario parameter 'a'", "scenario parameter a"),
    ],
)
def test_configure_refuses_unknown_missing_and_fractional_parameters(fn, params, message, field):
    with pytest.raises(ConfigError, match=re.escape(message)) as info:
        configure(fn, params, "scenario")
    assert info.value.field == field


# ---------------------------------------------------------------------------
# every whole-number leaf of the built-in evolution configs and state files
# ---------------------------------------------------------------------------

SMALL_CONFIGS = {
    "su2_transport": builtin_scenario("su2_transport", S=2, num=5).to_dict(),
    "su3_center_release": builtin_scenario("su3_center_release", N=6).to_dict(),
    "so5_quench": builtin_scenario("so5_quench", N=4).to_dict(),
    "so5_quench_roots": builtin_scenario("so5_quench", N=4, form="roots").to_dict(),
    "ws_breathing": builtin_scenario("ws_breathing", L=9, num=5).to_dict(),
    "ws_bloch": builtin_scenario("ws_bloch", L=9, num=5).to_dict(),
    "squeeze_vac": builtin_scenario("squeeze_vac", cutoff=8, num=5).to_dict(),
    "jc_sectors": builtin_scenario("jc_sectors", cutoff=4, num=5).to_dict(),
}

STATE_FILES = {
    "spin": {
        "basis": {"modes": [{"kind": "spin", "capacity": 8}]},
        "state": {"coherent": {"kind": "spin", "S": 4, "theta": 0.9, "phi": 0.2}},
    },
    "glauber": {
        "basis": {"modes": [{"kind": "boson", "capacity": 6}]},
        "state": {"coherent": {"kind": "glauber", "alpha": "0.5+0.5j", "cutoff": 6}},
    },
    "euclidean": {
        "basis": {"modes": [{"kind": "boson", "capacity": 8}]},
        "state": {"coherent": {"kind": "euclidean", "beta": 0.4, "L": 9, "start": 3}},
    },
    "su3": {
        "basis": {"modes": [{"kind": "boson", "capacity": 3}] * 3, "constraint": 3},
        "state": {"coherent": {"kind": "su3", "N": 3, "zeta": [1.0, "0.5j", 0.2]}},
    },
    "fock": {"basis": {"modes": [{"kind": "boson", "capacity": 4}] * 2}, "state": {"fock": [2, 1]}},
}


def whole_leaves(obj, path=()):
    """Paths of the int leaves that count or index: every int but the
    version, the spin S (a half-integer) and bools."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        if type(obj) is int and path[-1] not in ("version", "S"):
            yield path
        return
    for key, value in items:
        yield from whole_leaves(value, path + (key,))


def field_names(path):
    """The fields a ConfigError may name for the leaf at `path`: its dotted
    path (an entry of a list of numbers, such as an occupation, is named by
    its list), and for an algebra parameter also "algebra parameter N"."""
    keys = path[:-1] if isinstance(path[-1], int) else path
    name = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")
    if path[-3:-1] == ("algebra", "params"):
        return {name, f"algebra parameter {path[-1]}"}
    return {name}


def replaced(obj, path, value):
    obj = json.loads(json.dumps(obj))  # unlike deepcopy, unshares the so5 modes
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


def build_config(payload):
    """Everything a run does before it evolves: the basis, H and the state."""
    config = parse_config(payload)
    basis, H, _, _ = build_system(config.values["system"])
    return basis, H, build_initial_state(config.values["initial_state"], basis)


def build_state_file(spec):
    return load_state_file(spec)[0]


LEAVES = [(name, path) for name, cfg in SMALL_CONFIGS.items() for path in whole_leaves(cfg)]
LEAVES += [(name, path) for name, spec in STATE_FILES.items() for path in whole_leaves(spec)]


def source(name):
    if name in SMALL_CONFIGS:
        return SMALL_CONFIGS[name], build_config
    return STATE_FILES[name], build_state_file


def test_every_source_has_whole_leaves_of_each_kind():
    fields = {".".join(str(k) for k in path if not isinstance(k, int)) for _, path in LEAVES}
    assert {
        "times.num",
        "initial_state.fock",
        "outputs.heatmap.time_index",
        "system.basis.modes.capacity",
        "system.basis.constraint",
        "system.bilinears.create",
        "system.bilinears.annihilate",
        "system.algebra.params.N",
        "system.algebra.params.L",
        "system.algebra.params.cutoff",
        "basis.modes.capacity",
        "basis.constraint",
        "state.coherent.cutoff",
        "state.coherent.L",
        "state.coherent.start",
        "state.coherent.N",
        "state.fock",
    } <= fields
    assert set(SMALL_CONFIGS) >= set(BUILTIN_SCENARIOS) - {"closure_gallery"}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LEAVES), st.sampled_from([2.5, -0.5, "7/2", True, None, "x"]))
def test_a_non_whole_count_or_index_is_refused_naming_its_leaf(leaf, bad):
    name, path = leaf
    if path[-1] == "constraint" and bad is None:
        return  # a null constraint is valid: no constraint
    spec, build = source(name)
    with pytest.raises(ConfigError) as info:
        build(replaced(spec, path, bad))
    assert info.value.field in field_names(path)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(LEAVES), st.sampled_from([float, str, lambda v: f"{v}.0"]))
def test_every_spelling_of_a_whole_number_builds_the_same_system(leaf, spell):
    name, path = leaf
    spec, build = source(name)
    target = spec
    for key in path:
        target = target[key]
    want, got = build(spec), build(replaced(spec, path, spell(target)))
    if isinstance(want, tuple):  # a config: its basis, H and initial state
        assert_same_basis(got[0], want[0])
        assert_same_operator_bytes(got[1], want[1], "H")
        want, got = want[2], got[2]
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the fields of each coherent-state kind, through `liefock husimi`
# ---------------------------------------------------------------------------

SPIN_8 = {"modes": [{"kind": "spin", "capacity": 8}]}
BOSON_8 = {"modes": [{"kind": "boson", "capacity": 8}]}
COHERENT_CASES = {
    "spin": (SPIN_8, {"kind": "spin", "S": 4, "theta": 0.9, "phi": 0.2}),
    "glauber": (BOSON_8, {"kind": "glauber", "alpha": "0.5+0.5j", "cutoff": 8}),
    "squeezed": (BOSON_8, {"kind": "squeezed", "xi": 0.3, "cutoff": 8, "k": "1/4"}),
    "euclidean": (BOSON_8, {"kind": "euclidean", "beta": 0.4, "L": 9, "start": 4}),
    "su3_zeta": (
        {"modes": [{"kind": "boson", "capacity": 2}] * 3, "constraint": 2},
        {"kind": "su3", "N": 2, "zeta": [1.0, 0.5, 0.0]},
    ),
    "su3_angles": (
        {"modes": [{"kind": "boson", "capacity": 2}] * 3, "constraint": 2},
        {"kind": "su3", "N": 2, "theta1": 0.7, "theta2": 0.4, "phi1": 1.1, "phi2": 2.2},
    ),
    "displaced": (SPIN_8, {"kind": "displaced", "algebra": "su2_spin", "params": {"S": 4}, "root": "S+", "beta": 0.3}),
}
OPTIONAL_FIELDS = {"k", "start"}


def run_husimi(tmp_path, basis, coherent):
    spath, out = tmp_path / "state.json", tmp_path / "q.csv"
    spath.write_text(json.dumps({"basis": basis, "state": {"coherent": coherent}}))
    code = main(["husimi", "--state", str(spath), "--space", "cylinder", "--out", str(out), "--nodes", "5", "5"])
    return code, out.exists()


@pytest.mark.parametrize("case", sorted(COHERENT_CASES))
def test_each_coherent_kind_is_charted_from_its_fields(tmp_path, capsys, case):
    assert run_husimi(tmp_path, *COHERENT_CASES[case]) == (0, True)


@pytest.mark.parametrize("case", sorted(COHERENT_CASES))
def test_an_unknown_coherent_field_exits_2_naming_it(tmp_path, capsys, case):
    basis, coherent = COHERENT_CASES[case]
    assert run_husimi(tmp_path, basis, dict(coherent, bogus=7)) == (EXIT_CONFIG, False)
    err = capsys.readouterr().err
    assert "unknown field 'bogus' (field: state.coherent.bogus)" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "case,key",
    [(case, key) for case, (_, coherent) in sorted(COHERENT_CASES.items()) for key in coherent
     if key not in OPTIONAL_FIELDS | {"kind", "params"}],
)
def test_a_missing_coherent_field_exits_2_naming_it(tmp_path, capsys, case, key):
    basis, coherent = COHERENT_CASES[case]
    assert run_husimi(tmp_path, basis, {k: v for k, v in coherent.items() if k != key}) == (EXIT_CONFIG, False)
    err = capsys.readouterr().err
    # su3 without zeta asks for the angles, the other way to give it
    named = "theta1" if key == "zeta" else key
    assert f"missing required field {named!r} (field: state.coherent)" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# parameter objects: unknown names, and counts that are not whole
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,name",
    [
        (["algebra", "hw", "--params", '{"x": 1}'], "algebra parameter x"),
        (["algebra", "su2_spin", "--verify", "--params", '{"s": 2}'], "algebra parameter s"),
        (["closure", "su2_spin", "--params", '{"x": 1}'], "algebra parameter x"),
        (["scenario", "run", "--name", "jc_sectors", "--params", '{"x": 1}'], "scenario parameter x"),
        (["oracle", "bloch", "--params", '{"delta": 1.0, "J": 0.5, "S": 2, "t": [0.1], "x": 1}'], "oracle parameter x"),
        (["oracle", "so5", "--params", '{"J1": 1.0, "J2": 1.0, "phi": 1.0, "x": 1}'], "oracle parameter x"),
        (["oracle", "band", "--params", '{"J": 1.0, "k": 0.5, "x": 1}'], "oracle parameter x"),
    ],
)
def test_an_unknown_parameter_name_exits_2_naming_it(tmp_path, capsys, argv, name):
    assert main(["--out-dir", str(tmp_path), *argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"(field: {name})" in captured.err and "Traceback" not in captured.err
    assert not captured.out and not list(tmp_path.iterdir())


def test_a_missing_oracle_parameter_exits_2_naming_it(capsys):
    assert main(["oracle", "bloch", "--params", '{"delta": 1.0, "J": 0.5, "t": [0.1]}']) == EXIT_CONFIG
    assert "missing oracle parameter 'S' (field: oracle parameter S)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "seed,message", [("rabi", "mode capacity must be a positive integer"), ("lmg", "spin quantum number")]
)
def test_a_closure_cutoff_of_zero_exits_2(capsys, seed, message):
    """--cutoff 0 is read as 0, not as the default cutoff."""
    assert main(["closure", seed, "--cutoff", "0"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert not captured.out and message in captured.err and "Traceback" not in captured.err


BLOCH = {"delta": 1.0, "J": 0.5, "S": 2, "t": [0.1, 0.5]}


@pytest.mark.parametrize(
    "kind,params,name",
    [
        ("bloch", dict(BLOCH, delta=[1]), "delta"),
        ("bloch", dict(BLOCH, delta=float("nan")), "delta"),
        ("bloch", dict(BLOCH, S=None), "S"),
        ("bloch", dict(BLOCH, t=[0.1, "a"]), "t"),
        ("bloch", dict(BLOCH, t=[[0.1]]), "t"),
        ("band", {"J": "x", "k": 1}, "J"),
        ("band", {"J": True, "k": [0.5, 1]}, "J"),
        ("so5", {"J1": 1.0, "J2": 1.0, "phi": "x"}, "phi"),
        ("so5", {"J1": 1.0, "J2": 1.0, "phi": [1.0]}, "phi"),
        ("squeezing", {"omega": 1.0, "xi": "1+zj", "t": [0.1]}, "xi"),
        ("squeezing", {"omega": 1.0, "xi": "nanj", "t": [0.1]}, "xi"),
        ("squeezing", {"omega": 1.0, "xi": [1.0], "t": [0.1]}, "xi"),
        ("su2_hopping", {"J0": 1.0, "N": 4, "j": ["x"]}, "j"),
        ("wannier_stark", {"omega": {}, "js": [1, 2]}, "omega"),
    ],
)
def test_an_oracle_parameter_that_is_not_a_number_exits_2_naming_it(capsys, kind, params, name):
    assert main(["oracle", kind, "--params", json.dumps(params)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"(field: oracle parameter {name})" in captured.err and "Traceback" not in captured.err
    assert not captured.out


@pytest.mark.parametrize(
    "kind,params,same",
    [
        ("bloch", dict(BLOCH, delta="1/2"), dict(BLOCH, delta=0.5)),
        ("bloch", dict(BLOCH, delta="0.5"), dict(BLOCH, delta=0.5)),
        ("band", {"J": "2", "k": ["1/4", 1]}, {"J": 2, "k": [0.25, 1.0]}),
        ("squeezing", {"omega": 2.0, "xi": "0.5+0.25j", "t": [0.5]}, {"omega": 2.0, "xi": "0.5+0.25j", "t": [0.5]}),
        ("squeezing", {"omega": 2.0, "xi": "3/4", "t": 1}, {"omega": 2.0, "xi": 0.75, "t": [1.0]}),
    ],
)
def test_an_oracle_parameter_given_as_a_string_reads_as_its_number(capsys, kind, params, same):
    assert main(["oracle", kind, "--params", json.dumps(params)]) == 0
    got = capsys.readouterr().out
    assert main(["oracle", kind, "--params", json.dumps(same)]) == 0
    assert got == capsys.readouterr().out and json.loads(got)


SU2_SMALL = builtin_scenario("su2_transport", S=2, num=3).to_dict()
BOSON_PAIR_SYSTEM = {
    "basis": {"modes": [{"kind": "boson", "capacity": 3}] * 2, "constraint": 3},
    "bilinears": [{"create": 0, "annihilate": 1, "coeff": 1.0}],
}


# a four-level state, then each amplitude entry that is not a pair of finite numbers
AMPLITUDES = [[0.6, 0.0], [0.0, 0.5], [0.3, -0.2], [0.1, 0.4]]
BOSON_3 = {"modes": [{"kind": "boson", "capacity": 3}]}


@pytest.mark.parametrize(
    "entry",
    [
        [float("nan"), 0.0],
        [0.0, float("nan")],
        [float("inf"), 0.0],
        [0.0, float("-inf")],
        [True, 0],
        [0, False],
        ["x", 0],
        [0.5, "1+2j"],
        [None, 0],
        [0.5],
        [0.5, 0.0, 0.0],
        0.5,
        "0.5",
    ],
)
def test_an_amplitude_that_is_not_a_pair_of_finite_numbers_exits_2(tmp_path, capsys, entry):
    spath, out = tmp_path / "state.json", tmp_path / "q.csv"
    spath.write_text(json.dumps({"basis": BOSON_3, "state": {"amplitudes": AMPLITUDES[:3] + [entry]}}))
    code = main(["husimi", "--state", str(spath), "--space", "plane", "--out", str(out), "--nodes", "5", "5"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and not out.exists()
    assert "(field: state.amplitudes)" in err and "Traceback" not in err


def test_amplitude_parts_are_read_as_numbers():
    pairs = [[3, 0], [0.1, "1/2"], ["0.25", -7]]
    got = build_initial_state(read_state({"amplitudes": pairs}, "initial_state"), FockBasis([boson(2)]))
    want = np.array([3, 0.1 + 0.5j, 0.25 - 7j])
    assert np.array_equal(got, want / np.linalg.norm(want))
    with pytest.raises(ConfigError) as info:
        read_state({"amplitudes": {"0": [1, 0]}}, "initial_state")
    assert info.value.field == "initial_state.amplitudes"


def with_system(**system):
    return dict(SU2_SMALL, system=dict(BOSON_PAIR_SYSTEM, **system), initial_state={"fock": [3, 0]}, observables=[])


@pytest.mark.parametrize(
    "command,payload,field",
    [
        ("scenario", ("so5_quench", '{"N": 4.5}'), "scenario parameter N"),
        ("scenario", ("su2_transport", '{"S": 2, "num": 2.5}'), "scenario parameter num"),
        ("scenario", ("su2_transport", '{"S": 2, "num": true}'), "scenario parameter num"),
        ("scenario", ("ws_breathing", '{"L": "21/2"}'), "scenario parameter L"),
        ("lattice", dict(BOSON_PAIR_SYSTEM, basis={"modes": [{"kind": "boson", "capacity": 2.5}] * 2}),
         "system.basis.modes[0].capacity"),
        ("lattice", dict(BOSON_PAIR_SYSTEM, basis=dict(BOSON_PAIR_SYSTEM["basis"], constraint=2.9)), "system.basis.constraint"),
        ("lattice", dict(BOSON_PAIR_SYSTEM, bilinears=[{"create": 0.9, "annihilate": 1, "coeff": 1.0}]),
         "system.bilinears[0].create"),
        ("lattice", dict(BOSON_PAIR_SYSTEM, weights=[["x", 0]]), "system.weights[0][0]"),
        ("evolve", dict(SU2_SMALL, initial_state={"fock": [1.7]}), "initial_state.fock"),
        ("evolve", dict(SU2_SMALL, outputs={"heatmap": {"path": "h.pgm", "time_index": 1.5}}), "outputs.heatmap.time_index"),
        ("evolve", dict(SU2_SMALL, outputs={"husimi": {"space": "sphere", "path": "q.csv", "nodes": [4.5, 3]}}),
         "outputs.husimi.nodes"),
        ("evolve", dict(SU2_SMALL, times=dict(SU2_SMALL["times"], num=True)), "times.num"),
        # a weight row is read before anything is built, not after the evolution
        ("evolve", with_system(weights=[["1/2", True]]), "system.weights[0][1]"),
        ("evolve", with_system(weights=[["x", 0]]), "system.weights[0][0]"),
    ],
)
def test_a_count_index_or_weight_that_is_not_a_number_of_its_kind_exits_2(tmp_path, capsys, command, payload, field):
    if command == "scenario":
        argv = ["scenario", "run", "--name", payload[0], "--params", payload[1]]
    else:
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(payload))
        argv = ["lattice", "--ham", str(spec)] if command == "lattice" else ["evolve", "--scenario", str(spec)]
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), *argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"(field: {field})" in captured.err and "Traceback" not in captured.err
    assert not captured.out and not (out_dir.exists() and any(out_dir.iterdir()))


def test_a_whole_number_written_as_a_float_is_read_as_it(tmp_path):
    # 3.0 or "3" time points write the rows of 3; the config keeps its spelling
    payload = dict(SU2_SMALL, outputs={"csv": "t.csv"})
    outputs = []
    for num in (3, 3.0, "3"):
        config = parse_config(dict(payload, times=dict(payload["times"], num=num)))
        assert config.payload["times"]["num"] == num and type(config.payload["times"]["num"]) is type(num)
        outputs.append(run_scenario(config, out_dir=tmp_path / str(num))["outputs"])
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("entry", ["x", True, None, "1/0", float("nan"), [1]])
def test_weight_rows_are_read_before_anything_is_built(entry):
    with pytest.raises(ConfigError) as info:
        parse_config(with_system(weights=[["1/2", entry]]))
    assert info.value.field == "system.weights[0][1]"


@pytest.mark.parametrize(
    "basis,coherent",
    [
        ({"modes": [{"kind": "boson", "capacity": 2}] * 3, "constraint": 2}, {"kind": "su3", "N": 3000, "zeta": [1.0, 0.5, 0.0]}),
        (BOSON_8, {"kind": "glauber", "alpha": 0.5, "cutoff": 10**6}),
        (BOSON_8, {"kind": "euclidean", "beta": 0.5, "L": 10**6}),
    ],
)
def test_a_coherent_state_off_its_register_is_refused_before_it_is_built(basis, coherent):
    # the register is compared by its modes and constraint: neither the
    # 4.5 million su3 states nor a million-level vector is allocated
    tracemalloc.start()
    with pytest.raises(ConfigError, match="coherent state needs the modes") as info:
        load_state_file({"basis": basis, "state": {"coherent": coherent}})
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert info.value.field == "state.coherent" and peak < 1_000_000


def test_the_reals_of_a_config_read_rational_strings(tmp_path):
    # coeff, phase and times are read by exact_number, as the reals of a
    # coherent state are: "1/2" writes the bytes of 0.5, and the hash, which
    # covers the config as given, tells the two spellings apart
    def config(coeff, phase, start, stop):
        bond = {"create": 0, "annihilate": 1, "coeff": coeff, "phase": phase}
        return parse_config(dict(
            with_system(bilinears=[bond]), times={"start": start, "stop": stop, "num": 3}, outputs={"csv": "r.csv"}
        ))

    floats, strings = config(0.5, 0.25, 0.0, 1.5), config("1/2", "0.25", "0", "3/2")
    assert floats.values == strings.values and floats.hash() != strings.hash()
    run_scenario(floats, out_dir=tmp_path / "floats")
    run_scenario(strings, out_dir=tmp_path / "strings")
    assert (tmp_path / "floats" / "r.csv").read_bytes() == (tmp_path / "strings" / "r.csv").read_bytes()


# ---------------------------------------------------------------------------
# every leaf of the built-in configs, replaced by a value of another kind
# ---------------------------------------------------------------------------

FUZZ_CONFIGS = dict(SMALL_CONFIGS, closure_gallery=builtin_scenario("closure_gallery").to_dict())
# null, bools, strings, lists, objects, zero, negatives, NaN and fractions;
# the integers are 0 and -1, so the largest basis built has 625 states (the
# so5 N=4 quench without its constraint)
FUZZ_VALUES = [None, True, False, "x", "1/2", [], [1], {}, {"x": 1}, 0, -1, float("nan"), 0.5, -2.5]


def paths_of(obj, path=()):
    """The path of every value below `obj`, containers and leaves."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from paths_of(value, path + (key,))


FUZZ_PATHS = [(name, path) for name, cfg in FUZZ_CONFIGS.items() for path in paths_of(cfg)]


def dotted(path):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


# the rules between fields name a field other than the changed one: a time
# grid that runs forward names `times`, a Hermitian combination of generators
# `system.terms`, and a changed system whose basis no longer holds the
# initial state names the state's occupation or amplitudes
RELATED = {
    ("times",): {"times"},
    ("system", "terms"): {"system.terms"},
    ("system",): {"initial_state.fock", "initial_state.amplitudes"},
}


def names_of(path):
    """The fields that name the value at `path`: its dotted path; the list
    that holds it, for an entry of a list of numbers read as a whole (an
    occupation, an amplitude pair or one of its parts); "algebra parameter
    <name>" for an algebra parameter; and the fields of RELATED."""
    names = {dotted(path)} | {field for prefix, fields in RELATED.items() if path[: len(prefix)] == prefix for field in fields}
    if path[-3:-1] == ("algebra", "params"):
        names.add(f"algebra parameter {path[-1]}")
    while "fock" in path[:-1] or "amplitudes" in path[:-1]:
        path = path[:-1]
        names.add(dotted(path))
    return names


def named(field, path):
    """Whether `field` names the value at `path`, or a field inside the value
    put in its place."""
    own = dotted(path)
    inside = (f"{own}.", f"{own}[") + (("algebra parameter ",) if path[-2:] == ("algebra", "params") else ())
    return field in names_of(path) or field.startswith(inside)


def prepare(payload):
    """Everything a run does before it evolves: the config, the system, the
    initial state, the checks of the outputs against them, the site weights
    and the CSV header that the observables name."""
    config = parse_config(payload)
    if config.kind == "evolution":
        basis, _, model, _ = build_system(config.values["system"])
        build_initial_state(config.values["initial_state"], basis)
        observables = scenarios._observables(config, basis, model)
        system_weights(config.values["system"], basis, model)
        ",".join(["t", *(name for name, _ in observables)])


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(FUZZ_PATHS))
def test_a_malformed_leaf_of_a_builtin_config_is_refused_naming_it(leaf):
    # each value in turn: the built-in configs have about 400 paths
    name, path = leaf
    for bad in FUZZ_VALUES:
        try:
            prepare(replaced(FUZZ_CONFIGS[name], path, bad))
        except ConfigError as exc:
            assert named(exc.field, path), (bad, str(exc))


# ---------------------------------------------------------------------------
# leaves refused since the schema reads each by its kind
# ---------------------------------------------------------------------------

JC = SMALL_CONFIGS["jc_sectors"]


@pytest.mark.parametrize(
    "change,field",
    [
        ({"observables": [{"name": 5, "generator": "n_b"}]}, "observables[0].name"),
        ({"observables": [{"name": "b", "generator": 5}]}, "observables[0].generator"),
        ({"observables": [{"name": "b", "generator": "n_x"}]}, "observables[0].generator"),
        ({"name": 5}, "name"),
        ({"name": ["a"]}, "name"),
        ({"name": ""}, "name"),
        ({"outputs": {"csv": "j.csv", "site_populations": "no"}}, "outputs.site_populations"),
        ({"outputs": {"heatmap": {"path": "j.pgm", "time_index": 1, "fourth_root": 1}}}, "outputs.heatmap.fourth_root"),
        ({"extra": ["a"]}, "extra"),
        ({"initial_state": {"fock": [0, 7]}}, "initial_state.fock"),
        ({"initial_state": {"fock": [0]}}, "initial_state.fock"),
        ({"system": dict(JC["system"], algebra={"name": "jc_super", "params": {"cutoff": 0}})}, "algebra parameter cutoff"),
    ],
)
def test_an_evolve_config_refused_at_a_leaf_exits_2_and_writes_nothing(tmp_path, capsys, change, field):
    spec, out_dir = tmp_path / "cfg.json", tmp_path / "out"
    spec.write_text(json.dumps(dict(JC, **change)))
    assert main(["--out-dir", str(out_dir), "evolve", "--scenario", str(spec)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"(field: {field})" in captured.err and "Traceback" not in captured.err
    assert not captured.out and not (out_dir.exists() and any(out_dir.iterdir()))


def test_a_state_file_occupation_outside_its_basis_exits_2_naming_it(tmp_path, capsys):
    spath, out = tmp_path / "state.json", tmp_path / "q.csv"
    spath.write_text(json.dumps({"basis": BOSON_3, "state": {"fock": [7]}}))
    assert main(["husimi", "--state", str(spath), "--space", "plane", "--out", str(out), "--nodes", "5", "5"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "(field: state.fock)" in err and "Traceback" not in err and not out.exists()


def _state_file(coherent, modes=BOSON_3):
    return "husimi", {"basis": modes, "state": {"coherent": coherent}}


def _ham(basis):
    return "lattice", {"basis": basis, "bilinears": [{"create": 0, "annihilate": 1, "coeff": 1.0}]}


SPIN_2 = {"modes": [{"kind": "spin", "capacity": 2}]}
E2_CHAIN = {"modes": [{"kind": "boson", "capacity": 20}]}  # the e2 chain, which has no reference state


@pytest.mark.parametrize(
    "command,spec,field",
    [
        (*_ham({"modes": [{"kind": "boson", "capacity": 2}, {"kind": "fermion", "capacity": 2}]}),
         "system.basis.modes[1].capacity"),
        (*_ham({"modes": [{"kind": "boson", "capacity": 2}] * 2, "constraint": 9}), "system.basis.constraint"),
        (*_state_file({"kind": "glauber", "alpha": 1.0, "cutoff": 0}), "state.coherent.cutoff"),
        (*_state_file({"kind": "squeezed", "xi": 0.3, "cutoff": 0}), "state.coherent.cutoff"),
        (*_state_file({"kind": "euclidean", "beta": 0.3, "L": 1}), "state.coherent.L"),
        (*_state_file({"kind": "su3", "N": 0, "zeta": [1, 0]}), "state.coherent.N"),
        (*_state_file({"kind": "spin", "S": 0, "theta": 0.1, "phi": 0.2}, SPIN_2), "state.coherent.S"),
        (*_state_file({"kind": "displaced", "algebra": "su2_spin", "root": "Q+", "beta": 0.3}, SPIN_2),
         "state.coherent.root"),
        (*_state_file({"kind": "squeezed", "xi": 0.3, "cutoff": 3, "k": "1/2"}), "state.coherent.k"),
        (*_state_file({"kind": "displaced", "algebra": "su2_spin", "root": "S+", "beta": 0.3, "reference": [1, 0]},
                      SPIN_2), "state.coherent.reference"),
        (*_state_file({"kind": "displaced", "algebra": "e2", "root": "E+", "beta": 0.3}, E2_CHAIN), "state.coherent"),
    ],
)
def test_a_value_its_basis_or_register_refuses_exits_2_naming_it(tmp_path, capsys, command, spec, field):
    """Values whose range another field or a builder fixes: a capacity its
    mode kind refuses, a constraint above the capacity sum, a register size
    below one mode and a root the algebra lacks."""
    path, out = tmp_path / "spec.json", tmp_path / "q.csv"
    path.write_text(json.dumps(spec))
    argv = {
        "lattice": ["lattice", "--ham", str(path)],
        "husimi": ["husimi", "--state", str(path), "--space", "plane", "--nodes", "3", "3", "--out", str(out)],
    }[command]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"(field: {field})" in captured.err and "Traceback" not in captured.err
    assert not captured.out and not out.exists()


@pytest.mark.parametrize(
    "argv,field",
    [
        (["closure", "rabi", "--cutoff", "0"], "--cutoff"),
        (["closure", "lmg", "--cutoff", "0"], "--cutoff"),
        (["algebra", "hw", "--params", '{"cutoff": 0}'], "algebra parameter cutoff"),
        (["algebra", "e2", "--params", '{"L": 3}'], "algebra parameter L"),
        (["algebra", "sp2n_boson", "--params", '{"modes": 0, "cutoff": 2}'], "algebra parameters modes, cutoff"),
        (["scenario", "run", "--name", "su2_transport", "--params", '{"S": 0}'], "algebra parameter S"),
        (["scenario", "run", "--name", "su3_center_release", "--params", '{"N": 10}'], "scenario parameter N"),
        (["oracle", "bloch", "--params", '{"delta": 0, "J": 0, "S": 1, "t": 1}'], "oracle parameters delta, J, S, t"),
        (["oracle", "bloch", "--params", '{"delta": 1e-200, "J": 0, "S": 1, "t": 1}'], "oracle parameters delta, J, S, t"),
        (["oracle", "spin_pcs_width", "--params", '{"S": -1, "theta": 1}'], "oracle parameters S, theta"),
        (["oracle", "so5", "--params", '{"N": -1, "J1": 1, "J2": 1, "phi": 1}'], "oracle parameter N"),
        # formulas that overflow to inf or NaN, which JSON cannot hold
        (["oracle", "wannier_stark", "--params", '{"omega": 1e308, "js": [10]}'], "oracle parameters omega, js"),
        (["oracle", "band", "--params", '{"J": 1e308, "k": [0]}'], "oracle parameters J, k"),
        (["oracle", "squeezing", "--params", '{"omega": 0, "xi": 1, "t": [1000]}'], "oracle parameters omega, xi, t"),
    ],
)
def test_a_parameter_out_of_range_exits_2_naming_it(tmp_path, capsys, argv, field):
    assert main(["--out-dir", str(tmp_path), *argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"(field: {field})" in captured.err and "Traceback" not in captured.err
    assert not captured.out and not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "kind,params",
    [
        ("squeezing", '{"omega": 0, "xi": 1, "t": [1000]}'),
        ("wannier_stark", '{"omega": 1e308, "js": [10]}'),
        ("band", '{"J": 1e308, "k": [0]}'),
    ],
)
def test_an_overflowing_oracle_prints_only_its_error_line(kind, params):
    """numpy's floating-point warnings on the way to inf or NaN do not reach
    stderr, which holds the one `error:` line; a child process shows what a
    shell sees."""
    src = str(Path(liefock.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "liefock.cli", "oracle", kind, "--params", params]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == EXIT_CONFIG and not run.stdout
    assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith("error: "), run.stderr
