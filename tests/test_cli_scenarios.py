import hashlib
import json
import os

import numpy as np
import pytest

from liefock.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_RESOURCE, build_parser, main
from liefock.algebra import build_algebra
from liefock.coherent import displaced_state
from liefock.errors import ConfigError, ResourceGuardError
from liefock.output import heatmap_bytes
from test_golden_bytes import SO5_BILINEAR
from test_seed_oracles import read_heatmap
from liefock.scenarios import (
    BUILTIN_SCENARIOS,
    COHERENT_KINDS,
    builtin_scenario,
    load_state_file,
    parse_config,
    run_scenario,
)


def test_builtin_registry_complete():
    assert set(BUILTIN_SCENARIOS) == {
        "su2_transport",
        "su3_center_release",
        "so5_quench",
        "ws_breathing",
        "ws_bloch",
        "squeeze_vac",
        "jc_sectors",
        "closure_gallery",
    }


def test_schema_round_trip():
    config = builtin_scenario("su2_transport", S=6, num=11)
    clone = parse_config(config.to_dict())
    assert clone.to_dict() == config.to_dict()
    assert clone.hash() == config.hash()


def test_unknown_field_rejected_with_path():
    payload = builtin_scenario("su2_transport", S=3, num=5).to_dict()
    payload["surprise"] = 1
    with pytest.raises(ConfigError, match="surprise"):
        parse_config(payload)
    payload = builtin_scenario("su2_transport", S=3, num=5).to_dict()
    payload["times"]["weird"] = 2
    with pytest.raises(ConfigError, match="times.weird"):
        parse_config(payload)


def test_empty_time_grid_rejected_naming_times():
    payload = builtin_scenario("su2_transport", S=3, num=5).to_dict()
    payload["times"]["num"] = 0
    with pytest.raises(ConfigError, match="times.num"):
        parse_config(payload)


def test_unknown_generator_label_rejected():
    payload = builtin_scenario("su2_transport", S=3, num=5).to_dict()
    payload["system"]["terms"][0]["label"] = "Q+"
    config = parse_config(payload)
    with pytest.raises(ConfigError, match="Q\\+"):
        run_scenario(config, out_dir="/tmp/liefock_bad")


def test_non_hermitian_combination_rejected():
    payload = builtin_scenario("su2_transport", S=3, num=5).to_dict()
    payload["system"]["terms"] = [{"label": "S+", "coeff": 1.0}]
    config = parse_config(payload)
    with pytest.raises(ConfigError, match="Hermitian"):
        run_scenario(config, out_dir="/tmp/liefock_bad")


def test_determinism_byte_identical(tmp_path):
    config = builtin_scenario("su2_transport", S=8, num=21)
    a1 = run_scenario(config, out_dir=tmp_path / "r1")
    a2 = run_scenario(config, out_dir=tmp_path / "r2")
    assert a1["config_hash"] == a2["config_hash"]
    for o1, o2 in zip(a1["outputs"], a2["outputs"]):
        assert o1["path"] == o2["path"]
        assert o1["sha256"] == o2["sha256"]
        b1 = (tmp_path / "r1" / o1["path"]).read_bytes()
        b2 = (tmp_path / "r2" / o2["path"]).read_bytes()
        assert b1 == b2


def test_fig2_transfer_row(tmp_path):
    S = 10
    config = builtin_scenario("su2_transport", S=S, num=23)
    # grid chosen so pi/2 is on a node: stop = 1.1 pi, num = 23 -> step pi/20
    run_scenario(config, out_dir=tmp_path)
    lines = (tmp_path / "su2_transport.csv").read_text().splitlines()
    header = lines[0].split(",")
    k_half = 10  # t = pi/2
    row = dict(zip(header, (float(v) for v in lines[1 + k_half].split(","))))
    assert row["t"] == pytest.approx(np.pi / 2, abs=1e-12)
    assert row[f"P(-{S})"] > 1 - 1e-9  # opposite edge site
    assert row["norm"] == pytest.approx(1.0, abs=1e-10)


def test_fig3_mirror_symmetry_small(tmp_path):
    config = builtin_scenario("su3_center_release", N=9, phi=0.0, t_snap=0.3)
    run_scenario(config, out_dir=tmp_path)
    graph = json.loads((tmp_path / "su3_center_release_graph.json").read_text())
    assert len(graph["vertices"]) == 10 * 11 // 2
    # mirror symmetry of the final snapshot under swapping modes a and c
    from liefock.scenarios import build_initial_state, build_system
    from liefock.dynamics import evolve

    basis, H, model, _ = build_system(config.values["system"])
    psi0 = build_initial_state(config.values["initial_state"], basis)
    res = evolve(H, psi0, np.array([0.3]))
    P = res.populations[0]
    perm = np.array([basis.index_of((s[2], s[1], s[0])) for s in basis.states])
    tv = 0.5 * np.sum(np.abs(P - P[perm]))
    assert tv < 1e-9


def test_fig4_chirality_small(tmp_path):
    sym = builtin_scenario("so5_quench", N=8, phi=0.0, start="center", t_snap=0.6)
    chi = builtin_scenario("so5_quench", N=8, phi=np.pi / 2, start="center", t_snap=0.6)
    run_scenario(sym, out_dir=tmp_path / "sym")
    run_scenario(chi, out_dir=tmp_path / "chi")

    def grid_of(d):
        arr, peak, transform = read_heatmap(d / "so5_quench.pgm")
        assert transform == "fourth_root"
        return arr.astype(float)

    g_sym = grid_of(tmp_path / "sym")
    g_chi = grid_of(tmp_path / "chi")
    # m1 -> -m1 mirror: reverse columns
    assert np.max(np.abs(g_sym - g_sym[:, ::-1])) <= 1.0  # symmetric (rounding only)
    assert np.max(np.abs(g_chi - g_chi[:, ::-1])) > 300   # visibly chiral


def test_resource_guard_raises():
    with pytest.raises(ResourceGuardError):
        config = builtin_scenario("su3_center_release", N=120, method="dense_eig")
        run_scenario(config, out_dir="/tmp/liefock_guard")


def test_amplitude_initial_state_round_trip(tmp_path):
    config = builtin_scenario("ws_bloch", L=31, num=11)
    manifest = run_scenario(config, out_dir=tmp_path)
    assert any(o["path"] == "ws_bloch.csv" for o in manifest["outputs"])
    text = (tmp_path / "ws_bloch.csv").read_text()
    assert text.splitlines()[0].startswith("t,fidelity,norm,position")


# ---------------------------------------------------------------------------
# heatmap writer
# ---------------------------------------------------------------------------


def test_heatmap_single_pixel(tmp_path):
    from liefock.output import write_file

    path = tmp_path / "one.pgm"
    write_file(path, heatmap_bytes(np.array([[0.37]])))
    arr, peak, transform = read_heatmap(path)
    assert arr.shape == (1, 1) and arr[0, 0] == 65535
    assert peak == pytest.approx(0.37)
    assert transform == "none"


def test_heatmap_constant_and_fourth_root(tmp_path):
    data = np.full((3, 5), 2.0)
    blob = heatmap_bytes(data)
    assert blob.startswith(b"P5\n")
    arr = np.frombuffer(blob.rsplit(b"65535\n", 1)[1], dtype=">u2").reshape(3, 5)
    assert np.all(arr == 65535)  # uniform image
    blob_root = heatmap_bytes(np.array([[16.0, 1.0]]), fourth_root=True)
    arr = np.frombuffer(blob_root.rsplit(b"65535\n", 1)[1], dtype=">u2")
    assert arr[0] == 65535 and arr[1] == pytest.approx(65535 / 2, abs=1)


def test_heatmap_rejects_bad_input():
    with pytest.raises(ValueError):
        heatmap_bytes(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        heatmap_bytes(np.array([[1.0, -0.5]]))


# ---------------------------------------------------------------------------
# CLI entry points and exit codes
# ---------------------------------------------------------------------------


def test_cli_scenario_list(capsys):
    assert main(["scenario", "list"]) == EXIT_OK
    out = capsys.readouterr().out.split()
    assert "su2_transport" in out and "closure_gallery" in out


def test_cli_algebra_verify(capsys):
    code = main(["algebra", "su2_schwinger", "--params", '{"N": 3}', "--verify"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["cartan_ok"] and report["root_eigen_ok"]
    assert report["closure"]["dim"] == 3


def test_cli_algebra_bad_params_exit_code(capsys):
    assert main(["algebra", "su11_single", "--params", '{"k": "1/2"}']) == EXIT_CONFIG


@pytest.mark.parametrize(
    "name,params,key",
    [
        ("su3_schwinger", '{"N": 2.5}', "N"),
        ("su3_schwinger", '{"N": "7/2"}', "N"),
        ("su3_schwinger", '{"N": true}', "N"),
        ("hw", '{"cutoff": 6.9}', "cutoff"),
        ("sp2n_boson", '{"modes": "3/2"}', "modes"),
        ("e2", '{"L": "x"}', "L"),
    ],
)
def test_cli_algebra_refuses_whole_number_parameters_that_are_not_whole(capsys, name, params, key):
    assert main(["algebra", name, "--params", params]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert not captured.out and f"algebra parameter {key} must be a whole number" in captured.err


@pytest.mark.parametrize("name,params", [("su11_single", '{"cutoff": 1}'), ("sp2n_boson", '{"cutoff": 1}')])
def test_cli_algebra_refuses_a_raising_generator_without_entries(capsys, name, params):
    assert main(["algebra", name, "--params", params]) == EXIT_CONFIG
    assert "has no entries on this basis" in capsys.readouterr().err


def test_cli_algebra_reads_whole_numbers_written_as_float_or_string(capsys):
    outputs = []
    for value in ("30", "30.0", '"30"'):
        assert main(["algebra", "su3_schwinger", "--params", '{"N": %s}' % value]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2] and json.loads(outputs[0])["basis_dim"] == 496


@pytest.mark.parametrize("value,code", [(2.5, EXIT_CONFIG), ("7/2", EXIT_CONFIG), (4.0, EXIT_OK), ("4", EXIT_OK)])
def test_cli_lattice_reads_algebra_parameters_as_whole_numbers(tmp_path, capsys, value, code):
    spec = {"algebra": {"name": "su3_schwinger", "params": {"N": value}}, "terms": [{"label": "I+", "coeff": 1.0}, {"label": "I-", "coeff": 1.0}]}
    ham = tmp_path / "sys.json"
    ham.write_text(json.dumps(spec))
    assert main(["lattice", "--ham", str(ham)]) == code
    captured = capsys.readouterr()
    if code == EXIT_CONFIG:
        assert "algebra parameter N must be a whole number" in captured.err
    else:
        assert len(json.loads(captured.out)["vertices"]) == 15


def test_cli_closure_gallery_members(capsys):
    assert main(["closure", "lmg", "--cap", "32"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert not report["closed"] and report["dimension"] > 32


def test_cli_oracle(capsys):
    code = main(["oracle", "su2_hopping", "--params", '{"J0": 1.0, "N": 4, "j": 1}'])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["values"][0] == pytest.approx(np.sqrt(6))
    assert main(["oracle", "nope"]) == EXIT_CONFIG


def exit_and_output(capsys, argv):
    """main(argv)'s exit code, argparse's refusals included, and its stdout and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_parser_built_once_answers_as_fresh_parsers(capsys):
    """One parser serves a run of commands, argparse refusals among them,
    with the exit codes and output a parser built for each call gives."""
    argvs = [
        ["algebra", "su2_schwinger", "--params", '{"N": 3}'],
        ["oracle", "su2_hopping", "--params", '{"J0": 1.0, "N": 4, "j": 1}'],
        ["algebra", "no_such_algebra"],
        ["closure", "rabi", "--cap", "many"],
        ["algebra", "hw", "--params", '{"cutoff": 0}'],
        ["algebra", "su2_schwinger", "--params", '{"N": 3}', "--verify"],
        ["algebra", "su2_schwinger", "--params", '{"N": 3}'],
    ]
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(exit_and_output(capsys, argv))
    build_parser.cache_clear()
    once = [exit_and_output(capsys, argv) for argv in argvs]
    assert build_parser.cache_info().misses == 1
    assert [code for code, _, _ in once] == [EXIT_OK, EXIT_OK, 2, 2, EXIT_CONFIG, EXIT_OK, EXIT_OK]
    assert once == fresh


def test_cli_scenario_run_and_evolve(tmp_path, capsys):
    code = main(
        [
            "--out-dir", str(tmp_path),
            "scenario", "run", "--name", "su2_transport",
            "--params", '{"S": 4, "num": 9}',
        ]
    )
    assert code == EXIT_OK
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["outputs"][0]["path"] == "su2_transport.csv"

    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(builtin_scenario("su2_transport", S=4, num=9).to_dict()))
    code = main(
        ["--out-dir", str(tmp_path / "ev"), "evolve", "--scenario", str(config_path), "--out", "x.csv"]
    )
    assert code == EXIT_OK
    assert (tmp_path / "ev" / "x.csv").exists()


def test_cli_scenario_missing_args(capsys):
    assert main(["scenario", "run"]) == EXIT_CONFIG


def test_cli_resource_guard_exit(tmp_path, capsys):
    code = main(
        [
            "--out-dir", str(tmp_path),
            "scenario", "run", "--name", "su3_center_release",
            "--params", '{"N": 120, "method": "dense_eig"}',
        ]
    )
    assert code == EXIT_RESOURCE


def test_cli_lattice_and_husimi(tmp_path, capsys):
    spec = {
        "algebra": {"name": "su2_schwinger", "params": {"N": 4}},
        "terms": [{"label": "S+", "coeff": 1.0}, {"label": "S-", "coeff": 1.0}],
    }
    ham = tmp_path / "sys.json"
    ham.write_text(json.dumps(spec))
    code = main(
        ["lattice", "--ham", str(ham), "--export", str(tmp_path / "g.json"), "--fluxes"]
    )
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "g.json").read_text())
    assert len(payload["vertices"]) == 5
    assert payload["components"] == [5]

    state = {
        "basis": {"modes": [{"kind": "spin", "capacity": 8}]},
        "state": {"coherent": {"kind": "spin", "S": 4, "theta": 0.9, "phi": 0.2}},
        "space_params": {"S": 4},
    }
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps(state))
    code = main(
        [
            "husimi", "--state", str(spath), "--space", "sphere",
            "--out", str(tmp_path / "q.csv"), "--heatmap", str(tmp_path / "q.pgm"),
            "--nodes", "60", "60",
        ]
    )
    assert code == EXIT_OK
    assert (tmp_path / "q.csv").exists() and (tmp_path / "q.pgm").exists()


@pytest.mark.parametrize(
    "spec,field",
    [
        (
            {"algebra": "su2_spin", "terms": [{"label": "S+", "coeff": 1.0}]},
            "system.algebra",
        ),
        (
            {
                "algebra": {"name": "su2_spin", "params": {"S": 1}},
                "terms": [{"label": "S+", "coeff": "one"}, {"label": "S-", "coeff": 1.0}],
            },
            "system.terms[0].coeff",
        ),
        (
            {"algebra": {"name": "su2_spin", "params": {"S": 1}}, "terms": [{"label": ["S+"], "coeff": 1.0}]},
            "system.terms[0].label",
        ),
        (
            {
                "basis": {"modes": [{"kind": "boson", "capacity": 2}] * 2},
                "bilinears": [{"create": 0, "annihilate": 1, "coeff": 1.0, "phase": "pi"}],
            },
            "system.bilinears[0].phase",
        ),
        (
            {
                "basis": {"modes": [{"kind": "boson", "capacity": [2]}]},
                "bilinears": [{"create": 0, "annihilate": 0, "coeff": 1.0}],
            },
            "system.basis.modes[0].capacity",
        ),
        ({"basis": {"modes": [{"kind": "boson", "capacity": 2}]}, "bilinears": []}, "system.bilinears"),
        ({"algebra": {"name": "su2_spin", "params": {"S": 1}}, "terms": []}, "system.terms"),
        (
            {
                "basis": {"modes": [{"kind": "boson", "capacity": 2}] * 2, "constraint": {"total": 2}},
                "bilinears": [{"create": 0, "annihilate": 1, "coeff": 1.0}],
            },
            "system.basis.constraint",
        ),
        (
            {
                "basis": {"modes": [{"kind": "boson", "capacity": 2}] * 2},
                "bilinears": [{"create": 2, "annihilate": 1, "coeff": 1.0}],
            },
            "system.bilinears[0].create",
        ),
        (
            {
                "basis": {"modes": [{"kind": "boson", "capacity": 2}] * 2},
                "bilinears": [{"create": 0, "annihilate": 1, "coeff": 1.0}, {"create": 1, "annihilate": -1, "coeff": 1.0}],
            },
            "system.bilinears[1].annihilate",
        ),
        # an off-diagonal bilinear needs boson modes; the first non-boson index is named
        (
            {
                "basis": {"modes": [{"kind": "spin", "capacity": 2}, {"kind": "boson", "capacity": 2}]},
                "bilinears": [{"create": 1, "annihilate": 1, "coeff": 1.0}, {"create": 0, "annihilate": 1, "coeff": 1.0}],
            },
            "system.bilinears[1].create",
        ),
        (
            {
                "basis": {"modes": [{"kind": "boson", "capacity": 2}, {"kind": "fermion", "capacity": 1}]},
                "bilinears": [{"create": 0, "annihilate": 1, "coeff": 1.0}],
            },
            "system.bilinears[0].annihilate",
        ),
        ({"algebra": {"name": []}, "terms": [{"label": "S+", "coeff": 1.0}]}, "system.algebra.name"),
        (
            {"algebra": {"name": "su2_spin", "params": {"S": None}}, "terms": [{"label": "S+", "coeff": 1.0}]},
            "system.algebra.params.S",
        ),
    ],
)
def test_cli_lattice_rejects_malformed_spec(tmp_path, capsys, spec, field):
    ham = tmp_path / "sys.json"
    ham.write_text(json.dumps(spec))
    assert main(["lattice", "--ham", str(ham)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"(field: {field})" in err
    assert "Traceback" not in err
    if field in ("system.bilinears", "system.terms"):
        assert "at least one term is needed" in err


# a repeated pair, its reverse and diagonal terms on a fermion and a spin mode
MIXED_BILINEARS = {
    "basis": {"modes": [{"kind": "fermion", "capacity": 1}, {"kind": "boson", "capacity": 2},
                        {"kind": "boson", "capacity": 2}, {"kind": "spin", "capacity": 2}]},
    "bilinears": [
        {"create": 1, "annihilate": 2, "coeff": 1.0},
        {"create": 2, "annihilate": 1, "coeff": 0.5},
        {"create": 1, "annihilate": 2, "coeff": 0.25, "phase": 0.3},
        {"create": 0, "annihilate": 0, "coeff": 0.7},
        {"create": 3, "annihilate": 3, "coeff": -0.2},
    ],
}


@pytest.mark.parametrize("spin_term", [False, True])
def test_off_diagonal_bilinear_on_a_spin_mode_names_its_field_and_diagonal_ones_run(tmp_path, capsys, spin_term):
    bilinears = MIXED_BILINEARS["bilinears"] + [{"create": 1, "annihilate": 3, "coeff": 1.0}] * spin_term
    system = dict(MIXED_BILINEARS, bilinears=bilinears)
    config = {"version": 1, "name": "mixed", "system": system, "initial_state": {"fock": [1, 2, 0, 1]},
              "times": {"start": 0.0, "stop": 0.5, "num": 3}, "outputs": {"csv": "mixed.csv"}}
    (tmp_path / "ham.json").write_text(json.dumps(system))
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    runs = [["lattice", "--ham", str(tmp_path / "ham.json")],
            ["--out-dir", str(tmp_path / "out"), "scenario", "run", "--config", str(tmp_path / "cfg.json")]]
    for argv in runs:
        assert main(argv) == (EXIT_CONFIG if spin_term else EXIT_OK)
        err = capsys.readouterr().err
        assert ("(field: system.bilinears[5].annihilate)" in err) == spin_term and "transfer_op" not in err
    assert (tmp_path / "out" / "mixed.csv").exists() != spin_term


@pytest.mark.filterwarnings("error")  # an overflow is refused, not warned about
@pytest.mark.parametrize("coeff", [1e308, 1e300])
def test_bilinears_whose_entries_overflow_are_refused_naming_the_field(tmp_path, capsys, coeff):
    """A bilinear H is Hermitian by construction, so the one refusal left is
    an entry that overflows: 1e308 times sqrt(2) does, 1e300 does not."""
    system = {"basis": {"modes": [{"kind": "boson", "capacity": 2}] * 2},
              "bilinears": [{"create": 0, "annihilate": 1, "coeff": coeff}]}
    config = {"version": 1, "name": "big", "system": system, "initial_state": {"fock": [1, 0]},
              "times": {"start": 0.0, "stop": 0.5, "num": 3}, "outputs": {"csv": "big.csv"}}
    (tmp_path / "ham.json").write_text(json.dumps(system))
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    runs = [["lattice", "--ham", str(tmp_path / "ham.json")],
            ["--out-dir", str(tmp_path / "out"), "scenario", "run", "--config", str(tmp_path / "cfg.json")]]
    for argv in runs:
        assert main(argv) == (EXIT_CONFIG if coeff == 1e308 else EXIT_OK)
        err = capsys.readouterr().err
        if coeff == 1e308:
            assert err == "error: the entries of the assembled Hamiltonian overflowed (field: system.bilinears)\n"
        else:
            assert not err
    assert (tmp_path / "out" / "big.csv").exists() == (coeff == 1e300)


def test_cli_output_paths_in_a_missing_directory_exit_2(tmp_path, capsys):
    """Only a scenario run creates its output directories; a path given to
    lattice or husimi in a missing directory is refused, and nothing is made."""
    (tmp_path / "ham.json").write_text(json.dumps(SO5_BILINEAR))
    state = {"basis": {"modes": [{"kind": "boson", "capacity": 3}]}, "state": {"fock": [1]}}
    (tmp_path / "state.json").write_text(json.dumps(state))
    missing = tmp_path / "missing"
    runs = [["lattice", "--ham", str(tmp_path / "ham.json"), "--export", str(missing / "g.json")],
            ["lattice", "--ham", str(tmp_path / "ham.json"), "--csv", str(missing / "a.csv")],
            ["husimi", "--state", str(tmp_path / "state.json"), "--space", "plane", "--nodes", "3", "3",
             "--out", str(missing / "q.csv")],
            ["husimi", "--state", str(tmp_path / "state.json"), "--space", "plane", "--nodes", "3", "3",
             "--out", str(tmp_path / "q.csv"), "--heatmap", str(missing / "q.pgm")]]
    for argv in runs:
        assert main(argv) == EXIT_CONFIG
        assert "No such file or directory" in capsys.readouterr().err
    assert not missing.exists()


def test_cli_lattice_accepts_capacity_that_int_reads(tmp_path, capsys):
    spec = {
        "basis": {"modes": [{"kind": "boson", "capacity": "2"}, {"kind": "boson", "capacity": 2.0}], "constraint": "2"},
        "bilinears": [{"create": 0, "annihilate": 1, "coeff": 1.0}],
    }
    ham = tmp_path / "sys.json"
    ham.write_text(json.dumps(spec))
    assert main(["lattice", "--ham", str(ham)]) == EXIT_OK
    assert len(json.loads(capsys.readouterr().out)["vertices"]) == 3


SU3_COHERENT = {"coherent": {"kind": "su3", "N": 2, "zeta": [1, 0.5, 0]}}


def three_bosons(**extra):
    return {"modes": [{"kind": "boson", "capacity": 3}] * 3, **extra}


SPIN_4_COHERENT = {"kind": "spin", "S": 4, "theta": 0.9, "phi": 0.2}
# nine levels, like one boson mode of capacity 8, but on a spin mode
SPIN_4_DISPLACED = {"kind": "displaced", "algebra": "su2_spin", "params": {"S": 4}, "root": "S+", "beta": 0.3}
SPIN_4_SYSTEM = {"algebra": {"name": "su2_spin", "params": {"S": 4}}, "terms": [{"label": "Sz", "coeff": 1.0}]}
ONE_BOSON_SYSTEM = {
    "basis": {"modes": [{"kind": "boson", "capacity": 8}]},
    "bilinears": [{"create": 0, "annihilate": 0, "coeff": 1.0}],
}


BOSON_PAIR = {
    "version": 1,
    "name": "boson_pair",
    "system": {
        "basis": {"modes": [{"kind": "boson", "capacity": 2}] * 2},
        "bilinears": [{"create": 0, "annihilate": 1, "coeff": 1.0}],
    },
    "initial_state": {"fock": [2, 0]},
    "times": {"start": 0.0, "stop": 0.1, "num": 2},
}


@pytest.mark.parametrize(
    "key,value,field",
    [
        ("system", dict(BOSON_PAIR["system"], bilinears=[{"create": 0, "annihilate": 5, "coeff": 1.0}]),
         "system.bilinears[0].annihilate"),
        ("observables", [{"name": "n0", "number_mode": 0}, {"name": "n2", "number_mode": 2}],
         "observables[1].number_mode"),
        ("initial_state", {"fock": 4}, "initial_state.fock"),
        ("initial_state", {"fock": [2, "x"]}, "initial_state.fock"),
        ("initial_state", {"amplitudes": 4}, "initial_state.amplitudes"),
        ("initial_state", {"amplitudes": [[1.0, 0.0, 0.0]] * 6}, "initial_state.amplitudes"),
        ("initial_state", {"coherent": 4}, "initial_state.coherent"),
        ("outputs", {"husimi": {"space": "plane", "path": "q.csv", "nodes": 4}}, "outputs.husimi.nodes"),
        ("outputs", {"husimi": {"space": "plane", "path": "q.csv", "nodes": [5]}}, "outputs.husimi.nodes"),
        ("outputs", {"husimi": {"space": "plane", "path": "q.csv", "nodes": [5, [5]]}}, "outputs.husimi.nodes"),
        ("outputs", {"husimi": {"space": "plane", "path": "q.csv", "params": 4}}, "outputs.husimi.params"),
        ("outputs", {"husimi": {"space": "plane", "path": "q.csv", "params": {"half_width": None}}},
         "outputs.husimi.params.half_width"),
        ("outputs", {"csv": 4}, "outputs.csv"),
        ("outputs", {"graph_json": ""}, "outputs.graph_json"),
        ("outputs", {"adjacency_csv": None}, "outputs.adjacency_csv"),
        ("outputs", {"heatmap": {"path": ["h.pgm"], "time_index": 0}}, "outputs.heatmap.path"),
        ("outputs", {"husimi": {"space": "plane", "path": 4}}, "outputs.husimi.path"),
        ("outputs", {"husimi": {"space": "plane", "path": "q.csv", "nodes": [0, 5]}}, "outputs.husimi.nodes"),
        ("outputs", {"husimi": {"space": "plane", "path": "q.csv", "nodes": [5, 0]}}, "outputs.husimi.nodes"),
        ("system", dict(BOSON_PAIR["system"], bilinears=[{"create": 0, "annihilate": 1, "coeff": 10**400}]),
         "system.bilinears[0].coeff"),
        ("observables", None, "observables"),
        ("initial_state", {"coherent": {"kind": "glauber", "alpha": None, "cutoff": 2}}, "initial_state.coherent.alpha"),
        ("initial_state", {"coherent": {"kind": "glauber", "alpha": [1.0], "cutoff": 2}}, "initial_state.coherent.alpha"),
        ("initial_state", {"coherent": {"kind": "glauber", "alpha": "x", "cutoff": 2}}, "initial_state.coherent.alpha"),
        ("initial_state", {"coherent": {"kind": "glauber", "alpha": 0.5, "cutoff": 2.5}}, "initial_state.coherent.cutoff"),
        ("initial_state", {"coherent": {"kind": "su3", "N": 2, "zeta": 1.0}}, "initial_state.coherent.zeta"),
        ("initial_state", {"coherent": {"kind": "displaced", "algebra": 4, "root": "S+", "beta": 0.1}},
         "initial_state.coherent.algebra"),
        # an su3 coherent state needs three bosons with constraint N; key None overrides several keys
        ("initial_state", SU3_COHERENT, "initial_state.coherent"),
        (None, {"system": dict(BOSON_PAIR["system"], basis=three_bosons(constraint=3)), "initial_state": SU3_COHERENT},
         "initial_state.coherent"),
        (None, {"system": dict(BOSON_PAIR["system"], basis=three_bosons()), "initial_state": SU3_COHERENT},
         "initial_state.coherent"),
        # a one-mode coherent state needs its one mode, not only its dimension (9 here)
        ("initial_state", {"coherent": {"kind": "glauber", "alpha": 0.5, "cutoff": 8}}, "initial_state.coherent"),
        (None, {"system": SPIN_4_SYSTEM, "initial_state": {"coherent": {"kind": "squeezed", "xi": 0.3, "cutoff": 8}}},
         "initial_state.coherent"),
        (None, {"system": ONE_BOSON_SYSTEM, "initial_state": {"coherent": SPIN_4_COHERENT}}, "initial_state.coherent"),
        # a displaced state needs its algebra's own basis, not only its dimension
        (None, {"system": ONE_BOSON_SYSTEM, "initial_state": {"coherent": SPIN_4_DISPLACED}}, "initial_state.coherent"),
    ],
)
def test_cli_evolve_rejects_malformed_config(tmp_path, capsys, key, value, field):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(dict(BOSON_PAIR, **(value if key is None else {key: value}))))
    assert main(["--out-dir", str(tmp_path), "evolve", "--scenario", str(config)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"(field: {field})" in err
    assert "Traceback" not in err
    assert not (tmp_path / "boson_pair_manifest.json").exists()


def test_integer_coefficient_beyond_int64_reads_as_its_float(tmp_path, capsys):
    csv = {}
    for coeff in (10**30, 1e30):
        system = dict(BOSON_PAIR["system"], bilinears=[{"create": 0, "annihilate": 1, "coeff": coeff}])
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(dict(BOSON_PAIR, system=system, outputs={"csv": "out.csv"})))
        assert main(["--out-dir", str(tmp_path), "evolve", "--scenario", str(config)]) == EXIT_OK
        csv[coeff] = (tmp_path / "out.csv").read_bytes()
    assert csv[10**30] == csv[1e30]


@pytest.mark.parametrize("key,value", [("start", "zero"), ("stop", None), ("stop", True)])
def test_cli_evolve_rejects_non_numeric_times(tmp_path, capsys, key, value):
    payload = builtin_scenario("su2_transport", S=4, num=9).to_dict()
    payload["times"][key] = value
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(payload))
    assert main(["--out-dir", str(tmp_path), "evolve", "--scenario", str(config)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"(field: times.{key})" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key,value",
    [("heatmap", 7), ("heatmap", -1), ("heatmap", "x"), ("husimi", 7), ("husimi", -1), ("husimi", None)],
)
def test_cli_evolve_rejects_time_index_outside_grid(tmp_path, capsys, key, value):
    payload = builtin_scenario("su2_transport", S=4, num=3).to_dict()
    payload["outputs"] = {
        "heatmap": {"path": "h.pgm", "time_index": 0},
        "husimi": {"space": "sphere", "path": "q.csv", "time_index": 0, "nodes": [5, 5]},
    }
    payload["outputs"][key]["time_index"] = value
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(payload))
    assert main(["--out-dir", str(tmp_path), "evolve", "--scenario", str(config)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"(field: outputs.{key}.time_index)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "h.pgm").exists()


def test_time_index_that_int_reads_is_accepted(tmp_path):
    payload = builtin_scenario("su2_transport", S=4, num=3).to_dict()
    payload["outputs"] = {
        "heatmap": {"path": "h.pgm", "time_index": "2"},
        "husimi": {"space": "sphere", "path": "q.csv", "time_index": 2.0, "nodes": [5, 5]},
    }
    run_scenario(parse_config(payload), out_dir=tmp_path)
    assert (tmp_path / "h.pgm").exists() and (tmp_path / "q.csv").exists()


SO5_SITE_WEIGHTS = [["1/2", "-1/2", "0", "0"], ["0", "0", "1/2", "-1/2"]]
# SHA-256 of the site CSV and heatmap of the Krylov run below, with and without `weights`
SITE_OUTPUTS = {
    True: (
        "865f2e9505c661cae7c4685c769b1c707a5604b76658309a7c27c1cf1903ddd6",
        "5c4601c26919689df334e22d578ee6708d70bbff73dff110fffa7691e738819f",
    ),
    False: (
        "66535ce5c9a5c7012e9f83095f623e71f140cd0da36817e1fdbcc3d39e28e694",
        "6094a39fa44c56c597853deb122d93a34c1a126c17e9829e9652bb7be90351d4",
    ),
}


@pytest.mark.parametrize("site_outputs", [False, True], ids=["graph_only", "with_sites"])
@pytest.mark.parametrize("weighted", [True, False], ids=["weights", "no_weights"])
def test_cli_lattice_exports_the_scenario_weights(tmp_path, capsys, weighted, site_outputs):
    # one coordinate rule: a bilinear spec's `weights` rows, or none, label the
    # sites of `liefock lattice` exactly as they do a scenario's graph_json,
    # whatever else the scenario writes; only the site columns and the
    # heatmap fall back to the occupations
    system = dict(SO5_BILINEAR, weights=SO5_SITE_WEIGHTS) if weighted else dict(SO5_BILINEAR)
    ham = tmp_path / "sys.json"
    ham.write_text(json.dumps(system))
    assert main(["lattice", "--ham", str(ham), "--export", str(tmp_path / "cli.json")]) == EXIT_OK
    outputs = {"graph_json": "scenario.json"}
    if site_outputs:
        outputs.update(csv="sites.csv", site_populations=True, heatmap={"path": "sites.pgm", "time_index": 1})
    config = parse_config(
        {
            "version": 1,
            "name": "so5_weights",
            "system": system,
            "initial_state": {"fock": [8, 0, 0, 0]},
            "times": {"start": 0.0, "stop": 0.1, "num": 2},
            "evolve": {"method": "krylov"},
            "outputs": outputs,
        }
    )
    run_scenario(config, out_dir=tmp_path)
    cli = json.loads((tmp_path / "cli.json").read_text())
    scenario = json.loads((tmp_path / "scenario.json").read_text())
    assert cli["vertices"] == scenario["vertices"]
    assert cli["edges"] == scenario["edges"]
    if weighted:
        assert cli["vertices"][0]["weight"] == [0.0, -4.0]  # the state (0, 0, 0, 8)
    else:
        assert all(set(v) == {"id", "onsite"} for v in scenario["vertices"])
    if site_outputs:
        digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("sites.csv", "sites.pgm"))
        assert digests == SITE_OUTPUTS[weighted]


def test_rank_zero_weights_make_one_site_and_a_one_cell_heatmap(tmp_path, capsys):
    # `"weights": []` gives every state the empty weight (): one site holding
    # the whole population, charted as a single cell
    system = dict(SO5_BILINEAR, weights=[])
    ham = tmp_path / "sys.json"
    ham.write_text(json.dumps(system))
    assert main(["lattice", "--ham", str(ham)]) == EXIT_OK
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "version": 1,
        "name": "rank0",
        "system": system,
        "initial_state": {"fock": [8, 0, 0, 0]},
        "times": {"start": 0.0, "stop": 0.5, "num": 2},
        "outputs": {"csv": "rank0.csv", "site_populations": True,
                    "heatmap": {"path": "rank0.pgm", "time_index": 1}},
    }))
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "evolve", "--scenario", str(config)]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    lines = (out / "rank0.csv").read_text().splitlines()
    assert lines[0] == "t,fidelity,norm,P()"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.allclose(rows[:, 3], rows[:, 2] ** 2, rtol=0, atol=1e-12)
    arr, _, _ = read_heatmap(out / "rank0.pgm")
    assert arr.shape == (1, 1)


def test_cli_closure_has_no_graded_flag(capsys):
    # the bracket follows the generators' grades; there is nothing to select
    with pytest.raises(SystemExit):
        main(["closure", "jc_super", "--graded"])


MISSING = object()
SPIN_STATE_FILE = {
    "basis": {"modes": [{"kind": "spin", "capacity": 8}]},
    "state": {"coherent": {"kind": "spin", "S": 4, "theta": 0.9, "phi": 0.2}},
    "space_params": {"S": 4},
}


@pytest.mark.parametrize(
    "key,value,field",
    [
        ("basis", 4, "basis"),
        ("basis", {"modes": 4}, "basis.modes"),
        ("state", 4, "state"),
        ("state", {"fock": [1], "amplitudes": [[1.0, 0.0]]}, "state"),
        ("state", {"coherent": {"kind": "spin", "S": None, "theta": 0.9, "phi": 0.2}}, "state.coherent.S"),
        ("state", {"fock": ["x"]}, "state.fock"),
        ("space_params", 4, "space_params"),
        ("space_params", {"S": None}, "space_params.S"),
        ("state", MISSING, "state"),
        ("state", {"coherent": {"kind": "spin", "S": [4], "theta": 0.9, "phi": 0.2}}, "state.coherent.S"),
        ("state", {"coherent": {"kind": "spin", "S": 4, "theta": "x", "phi": 0.2}}, "state.coherent.theta"),
        ("state", {"coherent": {"kind": "spin", "S": 4, "theta": 0.9, "phi": True}}, "state.coherent.phi"),
        ("state", {"coherent": {"kind": "spin", "S": 4, "theta": {"x": 1}, "phi": 0.2}}, "state.coherent.theta"),
        ("state", {"coherent": {"kind": "spin", "S": "1/0", "theta": 0.9, "phi": 0.2}}, "state.coherent.S"),
        # an su3 coherent state needs three bosons with constraint N; key None overrides several keys
        ("state", SU3_COHERENT, "state.coherent"),
        (None, {"basis": three_bosons(constraint=3), "state": SU3_COHERENT}, "state.coherent"),
        (None, {"basis": three_bosons(), "state": SU3_COHERENT}, "state.coherent"),
        # a one-mode coherent state needs its one mode, not only its dimension (9 here)
        ("state", {"coherent": {"kind": "glauber", "alpha": 0.5, "cutoff": 8}}, "state.coherent"),
        ("state", {"coherent": {"kind": "squeezed", "xi": 0.3, "cutoff": 8}}, "state.coherent"),
        ("state", {"coherent": {"kind": "euclidean", "beta": 0.3, "L": 9}}, "state.coherent"),
        ("basis", ONE_BOSON_SYSTEM["basis"], "state.coherent"),
        # a displaced state needs its algebra's own basis: same modes, capacities and constraint
        (None, {"basis": ONE_BOSON_SYSTEM["basis"], "state": {"coherent": SPIN_4_DISPLACED}}, "state.coherent"),
        (None, {"basis": {"modes": [{"kind": "spin", "capacity": 8}], "constraint": 4},
                "state": {"coherent": SPIN_4_DISPLACED}}, "state.coherent"),
        # the sphere's 2S+1 levels must be the state's 9
        ("space_params", {"S": 3}, "space_params.S"),
        ("space_params", {"S": "-1/2"}, "space_params.S"),
        ("space_params", {"S": "9/2"}, "space_params.S"),
        ("space_params", {"S": "x"}, "space_params.S"),
    ],
)
def test_cli_husimi_rejects_malformed_state_file(tmp_path, capsys, key, value, field):
    spec = dict(SPIN_STATE_FILE, **(value if key is None else {key: value}))
    if value is MISSING:
        del spec[key]
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps(spec))
    out = tmp_path / "q.csv"
    code = main(["husimi", "--state", str(spath), "--space", "sphere", "--out", str(out), "--nodes", "5", "5"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"(field: {field})" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_displaced_state_on_its_algebras_basis(tmp_path, capsys):
    """On the register of its algebra a displaced state is the one its row of
    COHERENT_KINDS builds, the algebra's displaced_state, and the CLI charts
    it."""
    spec = dict(SPIN_STATE_FILE, state={"coherent": SPIN_4_DISPLACED})
    state, _ = load_state_file(spec)
    fields = {k: v for k, v in SPIN_4_DISPLACED.items() if k != "kind"}
    (modes, constraint), make = COHERENT_KINDS["displaced"][2](fields)
    model = build_algebra("su2_spin", S=4)
    assert (modes, constraint) == (model.basis.modes, model.basis.constraint)
    assert np.array_equal(state, make(model.basis))
    assert np.array_equal(state, displaced_state(model, fields))
    spath, out = tmp_path / "state.json", tmp_path / "q.csv"
    spath.write_text(json.dumps(spec))
    assert main(["husimi", "--state", str(spath), "--space", "sphere", "--out", str(out), "--nodes", "5", "5"]) == EXIT_OK
    assert out.exists()


def test_coherent_fields_read_rational_strings(tmp_path, capsys):
    # "0.9" and "9/10" are the float 0.9, "4" is the int 4: the same bytes
    csv = []
    for state in (SPIN_STATE_FILE["state"], {"coherent": {"kind": "spin", "S": "4", "theta": "9/10", "phi": "0.2"}}):
        spath, out = tmp_path / "state.json", tmp_path / f"q{len(csv)}.csv"
        spath.write_text(json.dumps(dict(SPIN_STATE_FILE, state=state)))
        assert main(["husimi", "--state", str(spath), "--space", "sphere", "--out", str(out), "--nodes", "5", "5"]) == EXIT_OK
        csv.append(out.read_bytes())
    assert csv[0] == csv[1]


@pytest.mark.parametrize("command", ["evolve", "husimi"])
def test_cli_names_a_top_level_that_is_not_an_object(tmp_path, capsys, command):
    path = tmp_path / "input.json"
    path.write_text("4")
    if command == "evolve":
        argv = ["--out-dir", str(tmp_path), "evolve", "--scenario", str(path)]
    else:
        argv = ["husimi", "--state", str(path), "--space", "sphere", "--out", str(tmp_path / "q.csv")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "error: expected an object (field: top level)\n"


CHART_PARAMS_THAT_DO_NOT_FIT = [
    ("disk", {"k": "0"}, "k"),
    ("disk", {"k": -1}, "k"),
    ("disk", {"k": "1/0"}, "k"),
    ("plane", {"half_width": 0}, "half_width"),
    ("plane", {"half_width": -2.5}, "half_width"),
    ("plane", {"half_width": "x"}, "half_width"),
    ("sphere", {"S": 3}, "S"),
]


@pytest.mark.parametrize("space,params,key", CHART_PARAMS_THAT_DO_NOT_FIT)
def test_cli_husimi_refuses_chart_params_that_do_not_fit(tmp_path, capsys, space, params, key):
    # a disk at k <= 0 charted NaN, a plane at half width 0 charted zeros and
    # a negative one reversed its axes, all with exit 0
    spec = {"basis": {"modes": [{"kind": "boson", "capacity": 8}]}, "state": {"fock": [2]}, "space_params": params}
    spath, out = tmp_path / "state.json", tmp_path / "q.csv"
    spath.write_text(json.dumps(spec))
    assert main(["husimi", "--state", str(spath), "--space", space, "--out", str(out), "--nodes", "5", "4"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"(field: space_params.{key})" in err
    assert not out.exists()


@pytest.mark.parametrize("space,params,key", CHART_PARAMS_THAT_DO_NOT_FIT)
def test_cli_evolve_refuses_husimi_params_that_do_not_fit(tmp_path, capsys, space, params, key):
    payload = builtin_scenario("su2_transport", S=4, num=3).to_dict()
    payload["outputs"] = {"csv": "t.csv", "husimi": {"space": space, "path": "q.csv", "nodes": [5, 4], "params": params}}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(payload))
    assert main(["--out-dir", str(tmp_path), "evolve", "--scenario", str(config)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"(field: outputs.husimi.params.{key})" in err
    assert not (tmp_path / "t.csv").exists() and not (tmp_path / "q.csv").exists()


def test_cli_husimi_rejects_empty_node_counts(tmp_path, capsys):
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps(SPIN_STATE_FILE))
    out = tmp_path / "q.csv"
    assert main(["husimi", "--state", str(spath), "--space", "sphere", "--out", str(out), "--nodes", "5", "0"]) == EXIT_CONFIG
    assert "node counts must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_cli_husimi_disk_default_k(tmp_path, capsys):
    # the default k = 1/4 lies below the k > 1/2 normalizable range
    amp = np.zeros(25)
    amp[0] = 1.0
    state = {
        "basis": {"modes": [{"kind": "boson", "capacity": 24}]},
        "state": {"amplitudes": [[float(a), 0.0] for a in amp]},
    }
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps(state))
    out = tmp_path / "disk.csv"
    code = main(
        ["husimi", "--state", str(spath), "--space", "disk", "--out", str(out), "--nodes", "30", "20"]
    )
    assert code == EXIT_OK
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (30 * 20, 4)
    values = rows[:, 3]
    assert np.all(np.isfinite(values)) and np.all(values >= 0)
    assert np.max(values) > 0


def test_cli_missing_file_exit(capsys):
    assert main(["evolve", "--scenario", "/nonexistent/file.json"]) == EXIT_CONFIG


def test_cli_numeric_contract_exit(tmp_path, monkeypatch, capsys):
    from liefock import cli
    from liefock.errors import NumericContractError

    def boom(*args, **kwargs):
        raise NumericContractError("unitarity breach: test stub")

    monkeypatch.setattr(cli, "run_scenario", boom)
    code = main(
        ["--out-dir", str(tmp_path), "scenario", "run", "--name", "su2_transport",
         "--params", '{"S": 2, "num": 3}']
    )
    assert code == EXIT_NUMERIC
    assert "unitarity" in capsys.readouterr().err


def test_scenario_so5_roots_revival(tmp_path):
    # criterion-7 physics through the scenario engine: the root-combination
    # form at phi = pi revives at pi*sqrt(2)
    t_rev = float(np.pi * np.sqrt(2))
    config = builtin_scenario(
        "so5_quench", N=6, phi=float(np.pi), start="corner", form="roots", t_snap=t_rev
    )
    run_scenario(config, out_dir=tmp_path)
    lines = (tmp_path / "so5_quench.csv").read_text().splitlines()
    header = lines[0].split(",")
    last = dict(zip(header, (float(v) for v in lines[-1].split(","))))
    assert last["t"] == pytest.approx(t_rev)
    assert last["fidelity"] > 1 - 1e-6


def test_scenario_husimi_output(tmp_path):
    payload = builtin_scenario("su2_transport", S=5, num=5).to_dict()
    payload["outputs"] = {
        "husimi": {"space": "sphere", "path": "q.csv", "time_index": 0, "nodes": [40, 40]}
    }
    config = parse_config(payload)
    run_scenario(config, out_dir=tmp_path)
    lines = (tmp_path / "q.csv").read_text().splitlines()
    assert lines[0] == "coord_a,coord_b,weight,value"
    total = 0.0
    for line in lines[1:]:
        _, _, w, v = (float(x) for x in line.split(","))
        total += w * v
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("nodes", [(7, 7), (6, 9), (9, 4)])
@pytest.mark.parametrize("space", ["cylinder", "disk"])
def test_cli_husimi_fock_state_depends_on_radius_only(tmp_path, capsys, space, nodes):
    # a Fock state is rotation invariant: its chart varies with coord_a (the
    # radius |beta| or |zeta|) and not with coord_b (the angle)
    spec = {
        "basis": {"modes": [{"kind": "boson", "capacity": 20}]},
        "state": {"fock": [10]},
        "space_params": {"k": "3/4"},
    }
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps(spec))
    out = tmp_path / "q.csv"
    args = ["husimi", "--state", str(spath), "--space", space, "--out", str(out)]
    assert main(args + ["--nodes", *map(str, nodes)]) == EXIT_OK
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (nodes[0] * nodes[1], 4)
    radius, angle, values = rows[:, 0], rows[:, 1], rows[:, 3]
    assert np.all(radius >= 0) and np.min(angle) < 0
    assert len(np.unique(radius)) == nodes[0] and len(np.unique(angle)) == nodes[1]
    for r in np.unique(radius):
        group = values[radius == r]
        assert np.ptp(group) <= 1e-12 * max(1.0, np.max(values))
    assert np.ptp(values) > 1e-3 * np.max(values)


def test_cli_scenario_rational_override(tmp_path, capsys):
    args = ["scenario", "run", "--name", "su2_transport", "--params", '{"S": "7/2", "num": 3}']
    hashes = []
    for run in ("a", "b"):
        assert main(["--out-dir", str(tmp_path / run)] + args) == EXIT_OK
        hashes.append(json.loads(capsys.readouterr().out)["config_hash"])
    assert hashes[0] == hashes[1]
    config = builtin_scenario("su2_transport", S="7/2", num=3)
    assert config.hash() == hashes[0]
    lines = (tmp_path / "a" / "su2_transport.csv").read_text().splitlines()
    assert len(lines) == 4


@pytest.mark.parametrize("space", ["cylinder", "disk"])
def test_scenario_husimi_output_all_charts(tmp_path, space):
    payload = builtin_scenario("su2_transport", S=5, num=3).to_dict()
    payload["outputs"] = {"husimi": {"space": space, "path": "q.csv", "nodes": [5, 8]}}
    run_scenario(parse_config(payload), out_dir=tmp_path)
    rows = np.loadtxt(tmp_path / "q.csv", delimiter=",", skiprows=1)
    assert rows.shape == (40, 4) and np.all(rows[:, 0] >= 0)


def test_rank3_heatmap_keeps_all_population(tmp_path):
    # three Cartan coordinates: sites that share the first two fall in one
    # pixel, and their populations add up there
    payload = {
        "version": 1,
        "name": "sp6",
        "system": {
            "algebra": {"name": "sp2n_boson", "params": {"modes": 3, "cutoff": 2}},
            "terms": [{"label": lab, "coeff": 1.0} for lab in ("h01", "h10", "h12", "h21")],
        },
        "initial_state": {"fock": [2, 0, 0]},
        "times": {"start": 0.0, "stop": 1.0, "num": 2},
        "outputs": {"csv": "sp6.csv", "site_populations": True, "heatmap": {"path": "sp6.pgm", "time_index": 1}},
    }
    run_scenario(parse_config(payload), out_dir=tmp_path)
    last = (tmp_path / "sp6.csv").read_text().splitlines()[-1]
    sites = [float(v) for v in last.split(",")[3:]]  # after t, fidelity, norm
    assert len(sites) == 27 and sum(sites) == pytest.approx(1.0, abs=1e-12)
    arr, peak, _ = read_heatmap(tmp_path / "sp6.pgm")
    # each pixel is rounded to 1/65535 of the peak
    assert np.sum(arr) * peak / 65535 == pytest.approx(1.0, abs=arr.size * peak / 65535)


def test_scenario_husimi_unknown_space_rejected():
    payload = builtin_scenario("su2_transport", S=5, num=3).to_dict()
    payload["outputs"] = {"husimi": {"space": "torus", "path": "q.csv"}}
    with pytest.raises(ConfigError, match="outputs.husimi.space"):
        parse_config(payload)
