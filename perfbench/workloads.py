"""The benchmark's four workloads.

Each workload turns a seed into inputs during set-up, runs one pass through
liefock's public entry points (the timed part), and checks the pass's outputs
against closed forms afterwards. A pass is a closed loop: one call after the
other in this process, with no client threads. The seed draws only continuous
parameters (phases, snapshot times, coherent-state centres); problem sizes
are fixed, so the work in a pass does not depend on it.

liefock is always reached through module attributes looked up at call time
(`liefock.cli.main`, `liefock.coherent.husimi_disk`), so the wrappers of a
traced run see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import closed_forms as cf
import liefock.cli
import liefock.coherent
import liefock.scenarios


@dataclass
class Call:
    rc: object  # the exit code, or the exception the call raised
    stdout: str
    stderr: str


@dataclass
class Outcome:
    dir: str
    calls: dict = field(default_factory=dict)
    grids: dict = field(default_factory=dict)  # results of direct library calls


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""
    known_defect: bool = False


def evaluate(name, fn, *args):
    """Run one check; a check that raises has failed."""
    try:
        ok, detail = fn(*args)
    except Exception as exc:  # a malformed or missing output fails its check
        return Check(name, False, f"{type(exc).__name__}: {exc}")
    return Check(name, bool(ok), detail)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_grid_csv(path):
    """Rows of the Husimi CSV: coord_a, coord_b, weight, value."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_table_csv(path):
    """Column names and rows of a scenario CSV. Site columns are named like
    P(1/2,-1/2), with commas inside the parentheses."""
    with open(path) as fh:
        header = re.findall(r"P\([^)]*\)|[^,]+", fh.readline().strip())
    return header, read_grid_csv(path)


def max_err(got, want):
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want))))


class Workload:
    name = ""

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir

    def write_input(self, name, payload):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return path

    def run(self, outdir) -> Outcome:
        raise NotImplementedError

    def checks(self, out: Outcome) -> list:
        raise NotImplementedError

    def digests(self, out: Outcome) -> dict:
        """SHA-256 of every output file. Scenario manifests are skipped: they
        record the run's wall-clock time by design."""
        return {
            name: sha256_file(os.path.join(out.dir, name))
            for name in sorted(os.listdir(out.dir))
            if not name.endswith("_manifest.json")
        }

    @staticmethod
    def cli(out, label, *argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = liefock.cli.main([str(a) for a in argv])
        except Exception as exc:  # an operation that raises counts as failed
            rc = f"raised {type(exc).__name__}: {exc}"
        out.calls[label] = Call(rc, stdout.getvalue(), stderr.getvalue())

    @staticmethod
    def exit_ok(out, label):
        call = out.calls.get(label)
        if call is None:
            return Check(f"exit:{label}", False, "not run")
        return Check(f"exit:{label}", call.rc == 0, f"rc={call.rc} {call.stderr.strip()[:200]}")


class ScenarioDefaults(Workload):
    """Every built-in scenario at its registry defaults, through
    `liefock scenario run --name ...`. The seed is ignored: the defaults are
    the workload."""

    name = "scenario_defaults"
    GALLERY = {"ladder_triple": 3, "su2": 3, "su3": 8, "sp4": 10, "jc_super": 4}
    CAP_BREACHES = {"rabi", "lmg"}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.names = sorted(liefock.scenarios.BUILTIN_SCENARIOS)

    def run(self, outdir):
        out = Outcome(outdir)
        for name in self.names:
            self.cli(out, name, "--out-dir", outdir, "scenario", "run", "--name", name)
        return out

    def checks(self, out):
        return [self.exit_ok(out, name) for name in self.names] + [
            evaluate("manifest_hashes", self.manifest_hashes, out),
            evaluate("su2_revival", self.su2_revival, out),
            evaluate("closure_gallery", self.closure_gallery, out),
        ]

    def manifest_hashes(self, out):
        bad = []
        for name in self.names:
            for rec in json.loads(out.calls[name].stdout)["outputs"]:
                if sha256_file(os.path.join(out.dir, rec["path"])) != rec["sha256"]:
                    bad.append(rec["path"])
        return not bad, f"files whose SHA-256 differs from the run archive: {bad}"

    def su2_revival(self, out):
        """The spin chain revives at t = pi/J0 (J0 = 1 by default)."""
        header, data = read_table_csv(os.path.join(out.dir, "su2_transport.csv"))
        t, fid = data[:, 0], data[:, header.index("fidelity")]
        near = np.abs(t - np.pi) <= 0.1 * np.pi
        best = float(np.max(fid[near]))
        return best >= 0.99, f"revival fidelity {best:.6f} (need >= 0.99)"

    def closure_gallery(self, out):
        with open(os.path.join(out.dir, "closure_gallery.json")) as fh:
            rows = {r["name"]: r for r in json.load(fh)["results"]}
        dims = {n: rows[n]["dimension"] for n in self.GALLERY if rows[n]["closed"]}
        residual = max(rows[n]["residual"] for n in self.GALLERY if rows[n]["closed"])
        breaches = {n for n in rows if not rows[n]["closed"]}
        ok = dims == self.GALLERY and breaches == self.CAP_BREACHES and residual < 1e-10
        return ok, f"closed dims {dims}, cap breaches {sorted(breaches)}, max residual {residual:.2e}"


class LargeSector(Workload):
    """so5_quench in its six-bond form at N=60 with krylov (dim 39,711), plus
    `liefock lattice --fluxes --export` on the su3_schwinger N=90
    staggered-flux Hamiltonian (4186 sites, 12,285 edges, 8100 cycles).

    The seed draws the su3 flux only. The quench keeps its registry phase 0
    and snapshot time 1: the adaptive Lanczos step count jumps between 11
    and 23 over phases in [0.2, 3] and times in [0.9, 1.1], so drawing them
    would make the work depend on the seed."""

    name = "large_sector"
    N_SO5 = 60
    N_SU3 = 90
    PHI = 0.0
    T_SNAP = 1.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.flux = float(self.rng.uniform(0.3, 2.8))
        self.so5_params = json.dumps(
            {"N": self.N_SO5, "form": "six_bond", "method": "krylov", "phi": self.PHI, "t_snap": self.T_SNAP}
        )
        terms = [{"label": lab, "coeff": 1.0} for lab in ("I+", "I-", "U+", "U-")]
        terms += [
            {"label": "V+", "coeff": 1.0, "phase": self.flux},
            {"label": "V-", "coeff": 1.0, "phase": -self.flux},
        ]
        self.ham = self.write_input(
            "su3_flux_ham.json", {"algebra": {"name": "su3_schwinger", "params": {"N": self.N_SU3}}, "terms": terms}
        )

    def run(self, outdir):
        out = Outcome(outdir)
        self.cli(out, "so5_quench", "--out-dir", outdir, "scenario", "run", "--name", "so5_quench",
                 "--params", self.so5_params)
        self.cli(out, "su3_lattice", "lattice", "--ham", self.ham, "--fluxes",
                 "--export", os.path.join(outdir, "su3_flux_graph.json"))
        return out

    def checks(self, out):
        return [
            self.exit_ok(out, "so5_quench"),
            self.exit_ok(out, "su3_lattice"),
            evaluate("so5_populations", self.so5_populations, out),
            evaluate("su3_fluxes", self.su3_fluxes, out),
        ]

    def so5_populations(self, out):
        """Every weight-site population at the snapshot time against the
        free-boson multinomial, at 1e-12."""
        header, rows = read_table_csv(os.path.join(out.dir, "so5_quench.csv"))
        row = rows[-1]
        t = float(row[0])
        got = {}
        for name, value in zip(header, row):
            if name.startswith("P("):
                got[tuple(Fraction(c) for c in name[2:-1].split(","))] = value
        want = cf.so5_site_populations(self.N_SO5, 1.0, 1.0, self.PHI, t)
        if got.keys() != want.keys():
            return False, f"{len(got)} sites written, {len(want)} expected"
        err = max(abs(got[k] - want[k]) for k in want)
        return err <= 1e-12, f"max site-population error {err:.2e} at t={t!r} (need <= 1e-12)"

    def su3_fluxes(self, out):
        """N^2 cycles, one component, and elementary fluxes +-phi."""
        with open(os.path.join(out.dir, "su3_flux_graph.json")) as fh:
            graph = json.load(fh)
        N = self.N_SU3
        flux = graph["fluxes"]
        classes = sorted(flux["class_values"])
        sizes = (len(graph["vertices"]), len(graph["edges"]), flux["cycle_count"], graph["components"])
        want = ((N + 1) * (N + 2) // 2, 3 * N * (N + 1) // 2, N * N, [(N + 1) * (N + 2) // 2])
        ok = (
            sizes == want
            and flux["independent_classes"] == 1
            and len(classes) == 2
            and max_err(classes, [-self.flux, self.flux]) < 1e-9
        )
        return ok, f"(sites, edges, cycles, components) {sizes}, classes {classes} for phi={self.flux!r}"


class AlgebraVerify(Workload):
    """`liefock algebra su3_schwinger --params '{"N": 45}' --verify` (dim 1081)
    plus the graded jc_super verify. The seed is ignored: there is no
    continuous parameter to draw."""

    name = "algebra_verify"
    CASES = {
        "su3_schwinger": (("algebra", "su3_schwinger", "--params", '{"N": 45}', "--verify"), 8),
        "jc_super": (("algebra", "jc_super", "--verify"), 4),
    }

    def run(self, outdir):
        out = Outcome(outdir)
        for label, (argv, _) in self.CASES.items():
            self.cli(out, label, *argv)
        return out

    def checks(self, out):
        checks = [self.exit_ok(out, label) for label in self.CASES]
        for label, (_, dim) in self.CASES.items():
            checks.append(evaluate(f"verify:{label}", self.verify_report, out.calls[label], dim))
        return checks

    @staticmethod
    def verify_report(call, dim):
        report = json.loads(call.stdout)
        closure = report["closure"]
        casimir = max(c["residual"] for c in report["casimirs"])
        ok = (
            closure["closed"]
            and closure["dim"] == dim
            and closure["residual"] < 1e-10
            and casimir < 1e-10
            and report["cartan_ok"]
            and report["root_eigen_ok"]
        )
        return ok, (
            f"closure dim {closure['dim']} (want {dim}), residual {closure['residual']}, "
            f"casimir {casimir}, cartan_ok {report['cartan_ok']}, root_eigen_ok {report['root_eigen_ok']}"
        )

    def digests(self, out):
        return {label: hashlib.sha256(call.stdout.encode()).hexdigest() for label, call in out.calls.items()}


class PhaseSpace(Workload):
    """The four Husimi charts through `liefock husimi`, one density-matrix
    disk chart through `liefock.coherent.husimi_disk` (the CLI takes pure
    states only), and the disk chart at its default k = 1/4, a known defect:
    w = (2k-1)/pi < 0 trips the -1e-12 clip floor and the CLI exits 2. That
    call is checked every pass and reported as a known-defect failure."""

    name = "phase_space"
    S = 50
    CUTOFF = 60
    L = 81
    K = Fraction(3, 4)
    NODES = {"sphere": (200, 200), "plane": (201, 201), "cylinder": (101, 101), "disk": (160, 160)}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        self.theta0 = float(rng.uniform(0.3, 2.8))
        self.phi0 = float(rng.uniform(0, 2 * np.pi))

        def centre(max_radius):
            return complex(rng.uniform(0, max_radius) * np.exp(2j * np.pi * rng.uniform()))

        self.alpha0, self.beta0 = centre(1.5), centre(1.5)
        self.zeta0, self.zeta1 = centre(0.5), centre(0.5)
        self.mix = float(rng.uniform(0.2, 0.8))

        def amplitudes(vec):
            return [[float(a.real), float(a.imag)] for a in vec]

        def boson_basis(capacity):
            return {"modes": [{"kind": "boson", "capacity": capacity}]}

        chain = self.CUTOFF + 1
        disk_state = {"basis": boson_basis(self.CUTOFF),
                      "state": {"amplitudes": amplitudes(cf.su11_chain_amplitudes(self.K, self.zeta0, chain))}}
        self.inputs = {
            "sphere": self.write_input("sphere_state.json", {
                "basis": {"modes": [{"kind": "spin", "capacity": 2 * self.S}]},
                "state": {"coherent": {"kind": "spin", "S": self.S, "theta": self.theta0, "phi": self.phi0}},
            }),
            "plane": self.write_input("plane_state.json", {
                "basis": boson_basis(self.CUTOFF),
                "state": {"amplitudes": amplitudes(cf.glauber_amplitudes(self.alpha0, self.CUTOFF))},
            }),
            "cylinder": self.write_input("cylinder_state.json", {
                "basis": boson_basis(self.L - 1),
                "state": {"amplitudes": amplitudes(cf.shift_chain_amplitudes(self.beta0, self.L))},
            }),
            "disk": self.write_input("disk_state.json", dict(disk_state, space_params={"k": str(self.K)})),
            "disk_default_k": self.write_input("disk_default_k_state.json", disk_state),
        }
        pure = [cf.su11_chain_amplitudes(self.K, z, chain) for z in (self.zeta0, self.zeta1)]
        pure = [v / np.linalg.norm(v) for v in pure]
        self.rho = self.mix * np.outer(pure[0], pure[0].conj()) + (1 - self.mix) * np.outer(pure[1], pure[1].conj())

    def run(self, outdir):
        out = Outcome(outdir)
        for chart, state in self.inputs.items():
            space = chart.split("_")[0]
            heatmap = ("--heatmap", os.path.join(outdir, f"{chart}.pgm")) if space in ("sphere", "plane") else ()
            self.cli(out, chart, "husimi", "--state", state, "--space", space, "--out",
                     os.path.join(outdir, f"{chart}.csv"), "--nodes", *self.NODES[space], *heatmap)
        try:
            out.grids["rho_disk"] = liefock.coherent.husimi_disk(self.rho, self.K, *self.NODES["disk"])
        except Exception as exc:  # counted by the rho_disk checks
            out.grids["rho_disk"] = exc
        return out

    def checks(self, out):
        checks = [self.exit_ok(out, chart) for chart in ("sphere", "plane", "cylinder", "disk")]
        checks.append(self.default_k_disk(out))
        csv = {chart: os.path.join(out.dir, f"{chart}.csv") for chart in self.NODES}
        checks += [
            evaluate("sphere_closed_form", self.sphere, csv["sphere"]),
            evaluate("plane_closed_form", self.plane, csv["plane"]),
            evaluate("cylinder_closed_form", self.cylinder, csv["cylinder"]),
            evaluate("disk_closed_form", self.disk_values, csv["disk"]),
            evaluate("disk_integral", self.disk_integral, csv["disk"]),
            evaluate("rho_disk_closed_form", self.rho_disk_values, out.grids.get("rho_disk")),
            evaluate("rho_disk_integral", self.rho_disk_integral, out.grids.get("rho_disk")),
        ]
        return checks

    def default_k_disk(self, out):
        call = out.calls.get("disk_default_k")
        name = "known_defect:disk_default_k"
        if call is not None and call.rc == 2 and "clip floor" in call.stderr:
            return Check(name, False, "exit 2: Husimi values fell below the -1e-12 clip floor", known_defect=True)
        if call is not None and call.rc == 0:
            return evaluate(name, self.default_k_values, os.path.join(out.dir, "disk_default_k.csv"))
        return Check(name, False, f"unexpected outcome rc={call and call.rc}")

    @staticmethod
    def default_k_values(path):
        values = read_grid_csv(path)[:, 3]
        ok = bool(np.all(np.isfinite(values)) and np.all(values >= 0))
        return ok, "finite non-negative values" if ok else "negative or non-finite values"

    def sphere(self, path):
        rows = read_grid_csv(path)
        want = cf.sphere_husimi(self.S, self.theta0, self.phi0, rows[:, 0], rows[:, 1])
        err = max_err(rows[:, 3], want)
        return len(rows) == 200 * 200 and err <= 1e-10, f"{len(rows)} nodes, max error {err:.2e} (need <= 1e-10)"

    def plane(self, path):
        rows = read_grid_csv(path)
        err = max_err(rows[:, 3], cf.plane_husimi(self.alpha0, rows[:, 0], rows[:, 1]))
        return len(rows) == 201 * 201 and err <= 1e-12, f"{len(rows)} nodes, max error {err:.2e} (need <= 1e-12)"

    @staticmethod
    def product_chart(axis_a, axis_b, values, closed_form, tol):
        """Compare a chart's sorted values with the closed form on the product
        of its two node sets. The angular set is the one with negative
        entries. Sorting makes the check independent of which axis the chart
        labels first, an order liefock's cylinder and disk charts disagree on."""
        nodes_a, nodes_b = np.unique(axis_a), np.unique(axis_b)
        angle, radius = (nodes_a, nodes_b) if nodes_a.min() < 0 else (nodes_b, nodes_a)
        want = closed_form(radius[:, None], angle[None, :]).ravel()
        if want.size != np.size(values):
            return False, f"{np.size(values)} values on a {radius.size}x{angle.size} product grid"
        err = max_err(np.sort(np.ravel(values)), np.sort(want))
        return err <= tol, f"{want.size} nodes, max error {err:.2e} (need <= {tol:g})"

    def cylinder(self, path):
        rows = read_grid_csv(path)
        return self.product_chart(rows[:, 0], rows[:, 1], rows[:, 3],
                                  lambda r, u: cf.cylinder_husimi(self.beta0, r, u), 1e-12)

    def disk_chart(self, mixture):
        """Closed form of the disk chart of sum_w w |zeta><zeta| over (w, zeta) pairs."""
        return lambda r, u: sum(w * cf.disk_husimi(float(self.K), z, r * np.exp(1j * u)) for w, z in mixture)

    def disk_values(self, path):
        rows = read_grid_csv(path)
        return self.product_chart(rows[:, 0], rows[:, 1], rows[:, 3], self.disk_chart([(1.0, self.zeta0)]), 1e-12)

    @staticmethod
    def disk_integral(path):
        rows = read_grid_csv(path)
        total = float(np.sum(rows[:, 2] * rows[:, 3]))
        return abs(total - 1) <= 1e-10, f"integral {total!r} (need 1 +- 1e-10)"

    def rho_disk_values(self, grid):
        if isinstance(grid, Exception):
            raise grid
        mixture = [(self.mix, self.zeta0), (1 - self.mix, self.zeta1)]
        return self.product_chart(*grid.axes, grid.values, self.disk_chart(mixture), 1e-12)

    @staticmethod
    def rho_disk_integral(grid):
        if isinstance(grid, Exception):
            raise grid
        total = grid.integral()
        return abs(total - 1) <= 1e-10, f"integral {total!r} (need 1 +- 1e-10)"

    def digests(self, out):
        digests = super().digests(out)
        grid = out.grids.get("rho_disk")
        if not isinstance(grid, Exception):
            digests["rho_disk"] = hashlib.sha256(np.ascontiguousarray(grid.values).tobytes()).hexdigest()
        return digests


WORKLOADS = {w.name: w for w in (ScenarioDefaults, LargeSector, AlgebraVerify, PhaseSpace)}
