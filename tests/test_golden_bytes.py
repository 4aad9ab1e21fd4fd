"""Byte-exact outputs pinned by SHA-256.

The lattice cases avoid BLAS-dependent numbers: lattice exports hold
generator matrix elements, onsite energies and weight coordinates only, and
of the N=12 quench CSV the header line (the site keys) is pinned on its own.
Four kinds of pin are exceptions and hold for the BLAS kernels they were
recorded with (OpenBLAS, x86-64; one thread for the N=45 report and the N=60
quench files): the Krylov scenario CSVs and the quench heatmaps, at N=12 and
at N=60 (dim 39,711) with phi 0 and 2, pin every float of a Lanczos run whose
step sizes the first-crossing rule picks, and the quench files also the site
sums of sites with up to 7 members; `closure_gallery.json`, the `algebra jc_super --verify` and
`su3_schwinger` N=45 `--verify` reports and the `closure rabi|lmg --cap 128`
reports pin closure residuals at round-off;
and the `husimi` CSVs and heatmap pin Husimi values that come out of a matrix
product (sphere, cylinder, disk) or of Horner's rule (plane).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import liefock
from liefock.cli import main
from liefock.scenarios import BUILTIN_SCENARIOS, builtin_scenario

SU3_FLUX = {
    "algebra": {"name": "su3_schwinger", "params": {"N": 12}},
    "terms": [{"label": lab, "coeff": 1.0} for lab in ("I+", "I-", "U+", "U-")]
    + [{"label": "V+", "coeff": 1.0, "phase": 0.7}, {"label": "V-", "coeff": 1.0, "phase": -0.7}],
}
SO5_BONDS = [(0, 1, 1.0, 0.0), (2, 3, 1.0, 0.0), (0, 2, 0.8, 0.5), (0, 3, 0.8, 0.0), (1, 2, 0.8, 0.0), (1, 3, 0.8, 0.0)]
SO5_BILINEAR = {
    "basis": {"modes": [{"kind": "boson", "capacity": 8}] * 4, "constraint": 8},
    "bilinears": [
        {"create": c, "annihilate": a, "coeff": k, "phase": p} for c, a, k, p in SO5_BONDS
    ],
}

GOLDEN = {
    "su3": (
        "f5be56f409afeddd883e53645148a4cd9a9f935c5b3b22f6bb42b12896c47296",
        "31d074b8c768b0fa63aeabd8e9e1e84ed7641c34ceac165509389537e86fcd8b",
    ),
    "so5": (
        "718b996a482bd8399c82c962aca7fe3f8e6ac60c923ca3aec4f2c08e62137b06",
        "1d642eebd699db0ef1ad6a544ba6a6f79005bfa8211d092adbab1ccc10ffbaa6",
    ),
}
# `lattice --fluxes --export`: the graph JSON with cycle count and flux classes
GOLDEN_FLUXES = {
    "su3": "3bea6dba4ab7a88ea66d5fd7afb71cc0990c2497112ca3ecd488e356f9baed72",
    "so5": "495893558af29acb8bb06e1ee392043c74a43b29a230b6490a5a1e75df5e75f4",
}
# the `graph_json` of two scenarios: labeled edges with rank-2 weights, one
# at its defaults and one at N=30 (496 vertices)
SCENARIO_GRAPHS = {
    ("jc_sectors", "{}"): (
        "jc_sectors_graph.json",
        "e2a394c66d49f8c3cf39a19460726e36b044d4031d70b4b38bfe39f363d3b2aa",
    ),
    ("su3_center_release", '{"N": 30}'): (
        "su3_center_release_graph.json",
        "24aa16ba69688b72c2851c3eff9b904c581bc832daee628a9ac7b5a56dae6bbd",
    ),
}
SO5_QUENCH_HEADER = "a3a923e3dcd1c83d9185c89ef9f17205f62ac6340c1e2eec21e9c817bcc3ab91"
# the whole so5 quench at N=12: fidelity, norm and 169 rank-2 site columns
# of 1 to 7 members, and the fourth-root heatmap of the snapshot at t = 1
SO5_QUENCH_N12 = {
    "so5_quench.csv": "3f4b16cf3683da478cd25e7f154f247e02f382b911d2df2c05083488c710161e",
    "so5_quench.pgm": "41553347d6bc7c7df4c1d2293821a1129c8a2caf33396d191cdefdbe212171ce",
}
# the six-bond so5 quench at N=60 (dim 39,711) through `krylov`: at phi = 0 and
# at phi = 2, whose Lanczos bytes follow the BLAS thread count, so a child
# process runs each with one thread
SO5_QUENCH_N60 = {
    0: {
        "so5_quench.csv": "8a87ce67bc18ec66dc775e38819b5b49374d1645ebb90747da5a9bb2be56c33d",
        "so5_quench.pgm": "8da2c7ec620e097eba29ea6977353ec1460783aaa924638dfe0d6a9735539efb",
    },
    2: {
        "so5_quench.csv": "cd7e904459ed4a9ebfbd952171356064f4bfed7f579042ea0ebfeb81b503d276",
        "so5_quench.pgm": "919716d297c4df64b660622d910a490704bd2f3da37036291fbf31c7a257b57e",
    },
}
# a spin-20 chain (dim 41) from the top state over t = 0, 1, 2, 3: three
# Lanczos bases of 41 rows, one per unit interval
SU2_KRYLOV = {
    "version": 1,
    "name": "su2_krylov",
    "system": {
        "algebra": {"name": "su2_spin", "params": {"S": 20}},
        "terms": [{"label": "S+", "coeff": 1.0}, {"label": "S-", "coeff": 1.0}],
    },
    "initial_state": {"fock": [40]},
    "times": {"start": 0.0, "stop": 3.0, "num": 4},
    "evolve": {"method": "krylov"},
    "observables": [{"name": "Sz", "generator": "Sz"}],
    "outputs": {"csv": "su2_krylov.csv", "site_populations": True},
}
SU2_KRYLOV_CSV = "514b1424a6506ad84787b460d3b214b15ac3333512a065849826d3bd6fff5c11"
CLOSURE_GALLERY_JSON = "895437809e03c43931ffe6cc1d07fcfabefc6306f362bc9a222fda4e2d791abe"
JC_SUPER_VERIFY = "b389ba4239a4606dffc3d4bccb68f7e3d4d109b9aa5085cf49dcc1c0ebc5dc73"
SU3_N45_VERIFY = "b3e40f4d10504556063ecd6c007efb1e1cb9bf1ef66cdfe9cdabec537ecf89a9"
# `closure <seed> --cap 128`: a masked (rabi) and an unmasked (lmg) interior
CLOSURE_CAP_128 = {
    "rabi": "e18346d4e958da434d6e9fc1e18566957958d6f919f09c819cff99bba1d4e39f",
    "lmg": "93640d500bb432bd16e7af81f50a7c7c9ed0b5b257ee6b9d3285c3a8e742d56f",
}

# `husimi` state files, one per phase space, charted on 12 x 9 nodes
HUSIMI_AMPLITUDES = [[0.6, 0.0], [0.0, 0.5], [0.3, -0.2], [0.1, 0.4]] + [[0.0, 0.0]] * 17
HUSIMI_STATES = {
    "sphere": {
        "basis": {"modes": [{"kind": "spin", "capacity": 8}]},
        "state": {"coherent": {"kind": "spin", "S": 4, "theta": 0.9, "phi": 0.2}},
        "space_params": {"S": 4},
    },
    "plane": {
        "basis": {"modes": [{"kind": "boson", "capacity": 20}]},
        "state": {"coherent": {"kind": "glauber", "alpha": 1.5, "cutoff": 20}},
        "space_params": {"half_width": 4},
    },
    "cylinder": {
        "basis": {"modes": [{"kind": "boson", "capacity": 20}]},
        "state": {"amplitudes": HUSIMI_AMPLITUDES},
    },
    "disk": {
        "basis": {"modes": [{"kind": "boson", "capacity": 20}]},
        "state": {"amplitudes": HUSIMI_AMPLITUDES},
        "space_params": {"k": "3/4"},
    },
}
HUSIMI_CSV = {
    "sphere": "20a41088244bf3e1872c9de633f7dca63b09b24d6006bb93e287bf6885f62860",
    "plane": "f603eb82a2ab6b8e958521b37b67bbeb6a3ae3e9f5145a27a91b68346056063e",
    "cylinder": "b7331404221fdac9e8a3e9d80b78f8ca9a4211b17ead68d029541fc342c1633a",
    "disk": "1f4c64033446005e568bc6ae2fbe9ea4ed978e4b23b52c48a586883e63939008",
}
HUSIMI_SPHERE_PGM = "bf9c293e58b260e5ca733a479e3ccabd373ce007416df0ca6fe589beaba62ec4"
# config.hash() of each built-in scenario at its defaults: the hash of the config as given
BUILTIN_CONFIG_HASHES = {
    "closure_gallery": "67f4feadcf2385f88c11f784ab001f9df298e5db3f1b701997d7c2673cf1eabf",
    "jc_sectors": "53b00145d6bab0b3750675f2d514cfe06a8fefb9f38e41c5d814e397616261be",
    "so5_quench": "ec4cc8b3ec10a0c82372f8672904338aff12eafb85c4637d75f364b5c44d85e2",
    "squeeze_vac": "24c13add81eb340f283c5da226bc10af50c8bff6dd1ce072ca28038ca592905a",
    "su2_transport": "6e4fac3470b9de92849314922bdfe5c2d6631728669d089f8c7684ffa8921e82",
    "su3_center_release": "76e09e33cd2ca5d5cbb44cdab2bd2b693d5521a983e740b16f60d6c9119980a4",
    "ws_bloch": "f28950af8a25be794afe743e7b8b1e95863204d69adf480c6921f4aeb6cea755",
    "ws_breathing": "93c8d03320175bbc12b4e9466c0ccb8b575f3971ba71d2912109f77688ab1650",
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_lattice_export_and_csv_bytes(tmp_path, capsys):
    for name, system in (("su3", SU3_FLUX), ("so5", SO5_BILINEAR)):
        ham = tmp_path / f"{name}_ham.json"
        ham.write_text(json.dumps(system))
        graph, csv = tmp_path / f"{name}_graph.json", tmp_path / f"{name}_adj.csv"
        assert main(["lattice", "--ham", str(ham), "--export", str(graph), "--csv", str(csv)]) == 0
        assert (sha256(graph.read_bytes()), sha256(csv.read_bytes())) == GOLDEN[name], name


def test_lattice_flux_export_bytes(tmp_path, capsys):
    for name, system in (("su3", SU3_FLUX), ("so5", SO5_BILINEAR)):
        ham = tmp_path / f"{name}_ham.json"
        ham.write_text(json.dumps(system))
        graph = tmp_path / f"{name}_graph.json"
        assert main(["lattice", "--ham", str(ham), "--fluxes", "--export", str(graph)]) == 0
        assert sha256(graph.read_bytes()) == GOLDEN_FLUXES[name], name


def test_scenario_graph_json_bytes(tmp_path, capsys):
    for (name, params), (graph, digest) in SCENARIO_GRAPHS.items():
        out = tmp_path / name
        assert main(["--out-dir", str(out), "scenario", "run", "--name", name, "--params", params]) == 0
        assert sha256((out / graph).read_bytes()) == digest, name


def test_so5_quench_site_key_header(tmp_path, capsys):
    argv = ["--out-dir", str(tmp_path), "scenario", "run", "--name", "so5_quench", "--params", '{"N": 12}']
    assert main(argv) == 0
    with open(tmp_path / "so5_quench.csv", "rb") as fh:
        header = fh.readline()
    assert header.startswith(b"t,fidelity,norm,P(-6,0),P(-11/2,-1/2),")
    assert sha256(header) == SO5_QUENCH_HEADER


def test_so5_quench_csv_and_heatmap_bytes(tmp_path, capsys):
    argv = ["--out-dir", str(tmp_path), "scenario", "run", "--name", "so5_quench", "--params", '{"N": 12}']
    assert main(argv) == 0
    assert {name: sha256((tmp_path / name).read_bytes()) for name in SO5_QUENCH_N12} == SO5_QUENCH_N12


def test_krylov_scenario_csv_bytes(tmp_path, capsys):
    config = tmp_path / "su2_krylov.json"
    config.write_text(json.dumps(SU2_KRYLOV))
    assert main(["--out-dir", str(tmp_path), "scenario", "run", "--config", str(config)]) == 0
    assert sha256((tmp_path / "su2_krylov.csv").read_bytes()) == SU2_KRYLOV_CSV


def test_closure_gallery_json_bytes(tmp_path, capsys):
    assert main(["--out-dir", str(tmp_path), "scenario", "run", "--name", "closure_gallery"]) == 0
    assert sha256((tmp_path / "closure_gallery.json").read_bytes()) == CLOSURE_GALLERY_JSON


def test_jc_super_verify_stdout_bytes(capsys):
    # the superalgebra's odd pair is bracketed by its anticommutator
    assert main(["algebra", "jc_super", "--verify"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == JC_SUPER_VERIFY


def one_thread_cli(*argv):
    """The console entry in a child process with one OpenBLAS thread."""
    src = str(Path(liefock.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "liefock.cli", *argv], env=env, capture_output=True, timeout=300)
    assert run.returncode == 0, run.stderr.decode()
    return run.stdout


def test_so5_quench_n60_csv_and_heatmap_bytes(tmp_path):
    for phi, digests in SO5_QUENCH_N60.items():
        out = tmp_path / f"phi{phi}"
        params = json.dumps({"N": 60, "form": "six_bond", "phi": phi})
        one_thread_cli("--out-dir", str(out), "scenario", "run", "--name", "so5_quench", "--params", params)
        assert {name: sha256((out / name).read_bytes()) for name in digests} == digests, phi


def test_su3_n45_verify_stdout_bytes():
    # the closure span here is 8 x 7,290, large enough for OpenBLAS to split
    # its GEMVs across threads, and the residual's last bits follow the
    # split: the pin holds for one thread, so a child process runs with one
    stdout = one_thread_cli("algebra", "su3_schwinger", "--params", '{"N": 45}', "--verify")
    assert sha256(stdout) == SU3_N45_VERIFY


def test_closure_cap_128_stdout_bytes(capsys):
    for seed, digest in CLOSURE_CAP_128.items():
        assert main(["closure", seed, "--cap", "128"]) == 0
        assert sha256(capsys.readouterr().out.encode()) == digest, seed


def test_husimi_csv_and_heatmap_bytes(tmp_path, capsys):
    for space, spec in HUSIMI_STATES.items():
        state, csv, pgm = tmp_path / f"{space}.json", tmp_path / f"{space}.csv", tmp_path / f"{space}.pgm"
        state.write_text(json.dumps(spec))
        heatmap = ["--heatmap", str(pgm)] if space == "sphere" else []
        argv = ["husimi", "--state", str(state), "--space", space, "--out", str(csv), "--nodes", "12", "9"]
        assert main(argv + heatmap) == 0
        assert sha256(csv.read_bytes()) == HUSIMI_CSV[space], space
    assert sha256((tmp_path / "sphere.pgm").read_bytes()) == HUSIMI_SPHERE_PGM


def test_builtin_config_hashes():
    assert {name: builtin_scenario(name).hash() for name in BUILTIN_SCENARIOS} == BUILTIN_CONFIG_HASHES
