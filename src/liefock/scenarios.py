"""Scenario-driven runs: a strict versioned JSON configuration, a registry of
built-in scenarios, and the runner that assembles the system, evolves it,
and persists outputs with a reproducibility manifest.

Unknown configuration fields are rejected with their path so golden files
cannot drift silently.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import numpy as np

from .algebra import build_algebra, lie_closure, lmg_seed, rabi_seed
from .coherent import SPACES, CoherentParams, closed_form_state, husimi_chart
from .dynamics import DENSE_LIMIT, evolve, expectation_series, fidelity_series
from .errors import ConfigError, ResourceGuardError
from .fock import FockBasis, ModeSpec
from .lattice import (
    WeightLattice,
    cartan_weights,
    check_exact,
    graph_to_adjacency_csv,
    graph_to_json_dict,
    system_graph,
)
from .operators import SparseOperator, linear_combination, number_op, transfer_op
from .output import float_rows, grid_csv_bytes, heatmap_bytes, json_text, sha256_bytes, write_json

CONFIG_VERSION = 1


def _require_keys(obj, allowed, required, path):
    if not isinstance(obj, dict):
        raise ConfigError("expected an object", field=path)
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown field {key!r}", field=f"{path}.{key}" if path else key)
    for key in required:
        if key not in obj:
            raise ConfigError(f"missing required field {key!r}", field=path or key)


def _rational_str(obj):
    """Exact rationals, such as S = 7/2 given on the command line, as "7/2"."""
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


@dataclass
class ScenarioConfig:
    name: str
    system: dict
    initial_state: dict
    times: dict
    method: str = "dense_eig"
    store: str = "snapshots"
    observables: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    kind: str = "evolution"
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "version": CONFIG_VERSION,
            "name": self.name,
            "kind": self.kind,
            "system": self.system,
            "initial_state": self.initial_state,
            "times": self.times,
            "evolve": {"method": self.method, "store": self.store},
            "observables": self.observables,
            "outputs": self.outputs,
        }
        if self.extra:
            out["extra"] = self.extra
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"), default=_rational_str)

    def hash(self) -> str:
        return sha256_bytes(self.canonical_json().encode())


def parse_config(payload) -> ScenarioConfig:
    """Validate a configuration dict against the strict schema."""
    _require_keys(
        payload,
        allowed={"version", "name", "kind", "system", "initial_state", "times", "evolve", "observables", "outputs", "extra"},
        required={"version", "name"},
        path="",
    )
    if payload["version"] != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {payload['version']}", field="version")
    kind = payload.get("kind", "evolution")
    if kind == "closure_gallery":
        return ScenarioConfig(
            name=payload["name"],
            system={},
            initial_state={},
            times={},
            outputs=payload.get("outputs", {}),
            kind=kind,
            extra=payload.get("extra", {}),
        )
    if kind != "evolution":
        raise ConfigError(f"unknown scenario kind {kind!r}", field="kind")
    for key in ("system", "initial_state", "times"):
        if key not in payload:
            raise ConfigError(f"missing required field {key!r}", field=key)

    system = payload["system"]
    if "algebra" in system:
        _require_keys(system, {"algebra", "terms"}, {"algebra", "terms"}, "system")
        _require_keys(system["algebra"], {"name", "params"}, {"name"}, "system.algebra")
        for k, term in enumerate(system["terms"]):
            _require_keys(term, {"label", "coeff", "phase"}, {"label", "coeff"}, f"system.terms[{k}]")
            _check_real(term["coeff"], f"system.terms[{k}].coeff")
    elif "basis" in system:
        _require_keys(system, {"basis", "bilinears", "weights"}, {"basis", "bilinears"}, "system")
        _require_keys(system["basis"], {"modes", "constraint"}, {"modes"}, "system.basis")
        for k, row in enumerate(system.get("weights", [])):
            if len(row) != len(system["basis"]["modes"]):
                raise ConfigError(
                    "each weight row needs one rational entry per mode",
                    field=f"system.weights[{k}]",
                )
        for k, spec in enumerate(system["basis"]["modes"]):
            _require_keys(spec, {"kind", "capacity"}, {"kind", "capacity"}, f"system.basis.modes[{k}]")
        for k, term in enumerate(system["bilinears"]):
            _require_keys(
                term, {"create", "annihilate", "coeff", "phase"}, {"create", "annihilate", "coeff"},
                f"system.bilinears[{k}]",
            )
            _check_real(term["coeff"], f"system.bilinears[{k}].coeff")
    else:
        raise ConfigError("system must contain either 'algebra'+'terms' or 'basis'+'bilinears'", field="system")

    state = payload["initial_state"]
    _require_keys(state, {"fock", "coherent", "amplitudes"}, set(), "initial_state")
    if len(state) != 1:
        raise ConfigError("initial_state must contain exactly one of fock/coherent/amplitudes", field="initial_state")

    times = payload["times"]
    _require_keys(times, {"start", "stop", "num"}, {"start", "stop", "num"}, "times")
    if not isinstance(times["num"], int) or times["num"] < 1:
        raise ConfigError("times.num must be a positive integer", field="times.num")
    if not times["stop"] > times["start"]:
        if times["num"] > 1:
            raise ConfigError("times.stop must exceed times.start", field="times")

    ev = payload.get("evolve", {})
    _require_keys(ev, {"method", "store"}, set(), "evolve")
    method = ev.get("method", "dense_eig")
    store = ev.get("store", "snapshots")
    if method not in ("dense_eig", "krylov"):
        raise ConfigError(f"unknown method {method!r}", field="evolve.method")
    if store not in ("snapshots", "populations"):
        raise ConfigError(f"unknown store {store!r}", field="evolve.store")

    observables = payload.get("observables", [])
    for k, obs in enumerate(observables):
        _require_keys(obs, {"name", "generator", "number_mode"}, {"name"}, f"observables[{k}]")
        if ("generator" in obs) == ("number_mode" in obs):
            raise ConfigError(
                "observable needs exactly one of 'generator' or 'number_mode'",
                field=f"observables[{k}]",
            )

    outputs = payload.get("outputs", {})
    _require_keys(
        outputs,
        {"csv", "graph_json", "adjacency_csv", "site_populations", "heatmap", "husimi"},
        set(),
        "outputs",
    )
    if "heatmap" in outputs:
        _require_keys(
            outputs["heatmap"], {"path", "time_index", "fourth_root"}, {"path", "time_index"}, "outputs.heatmap"
        )
    if "husimi" in outputs:
        _require_keys(
            outputs["husimi"], {"space", "path", "time_index", "nodes", "params"}, {"space", "path"}, "outputs.husimi"
        )
        if outputs["husimi"]["space"] not in SPACES:
            raise ConfigError(f"unknown phase space {outputs['husimi']['space']!r}", field="outputs.husimi.space")

    return ScenarioConfig(
        name=payload["name"],
        system=system,
        initial_state=state,
        times=times,
        method=method,
        store=store,
        observables=observables,
        outputs=outputs,
        kind="evolution",
        extra=payload.get("extra", {}),
    )


def _check_real(value, path):
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not np.isfinite(value):
        raise ConfigError("coefficient must be a finite real number", field=path)


# ---------------------------------------------------------------------------
# system assembly
# ---------------------------------------------------------------------------


def build_basis(spec):
    """The basis of a `{"modes": [{"kind", "capacity"}, ...], "constraint"}` spec."""
    return FockBasis([ModeSpec(m["kind"], int(m["capacity"])) for m in spec["modes"]], spec.get("constraint"))


def build_system(system):
    """Returns (basis, H, model, terms): model and the (label, coefficient)
    terms are None unless the system names an algebra."""
    if "algebra" in system:
        model = build_algebra(system["algebra"]["name"], **system["algebra"].get("params", {}))
        known = set(model.labels)
        terms = []
        for term in system["terms"]:
            if term["label"] not in known:
                raise ConfigError(
                    f"generator {term['label']!r} does not exist in algebra {model.name!r}",
                    field="system.terms",
                )
            coeff = term["coeff"] * np.exp(1j * term.get("phase", 0.0))
            terms.append((term["label"], coeff))
        ops = [model.generator(lab) for lab, _ in terms]
        H = linear_combination(ops, [c for _, c in terms])
        if not H.hermitian:
            raise ConfigError(
                "the requested generator combination is not Hermitian", field="system.terms"
            )
        return model.basis, H, model, terms
    basis = build_basis(system["basis"])
    acc = None
    for term in system["bilinears"]:
        i, j = int(term["create"]), int(term["annihilate"])
        coeff = term["coeff"] * np.exp(1j * term.get("phase", 0.0))
        op = transfer_op(basis, i, j) if i != j else number_op(basis, i)
        piece = op.mat * coeff
        if i != j:
            piece = piece + piece.conj().T
        elif term.get("phase", 0.0) != 0.0:
            raise ConfigError("diagonal bilinears cannot carry a phase", field="system.bilinears")
        acc = piece if acc is None else acc + piece
    H = SparseOperator(acc, hermitian=True)
    if not H.is_hermitian():
        raise ConfigError("assembled Hamiltonian is not Hermitian", field="system.bilinears")
    return basis, H, None, None


def build_initial_state(state_spec, basis):
    if "fock" in state_spec:
        occ = tuple(int(v) for v in state_spec["fock"])
        return basis.vector(occ)
    if "amplitudes" in state_spec:
        amp = np.array([complex(re, im) for re, im in state_spec["amplitudes"]])
        if amp.shape[0] != basis.dim:
            raise ConfigError(
                f"amplitude vector length {amp.shape[0]} does not match dim {basis.dim}",
                field="initial_state.amplitudes",
            )
        nrm = np.linalg.norm(amp)
        if nrm == 0:
            raise ConfigError("amplitude vector is zero", field="initial_state.amplitudes")
        return amp / nrm
    if "coherent" in state_spec:
        spec = dict(state_spec["coherent"])
        kind = spec.pop("kind", None)
        if kind is None:
            raise ConfigError("coherent state needs a 'kind'", field="initial_state.coherent")
        vec = closed_form_state(CoherentParams(kind, spec), basis)
        if vec.shape[0] != basis.dim:
            raise ConfigError(
                "coherent state dimension does not match the system basis",
                field="initial_state.coherent",
            )
        return vec
    raise ConfigError("empty initial_state", field="initial_state")


@dataclass
class RunArchive:
    config_hash: str
    version: int
    outputs: list           # [{"path", "sha256", "bytes"}]
    wall_clock_seconds: float

    def to_dict(self):
        return {
            "config_hash": self.config_hash,
            "version": self.version,
            "outputs": self.outputs,
            "wall_clock_seconds": self.wall_clock_seconds,
        }


def run_scenario(config: ScenarioConfig, out_dir=".", tol=None) -> RunArchive:
    """Assemble, evolve, and persist. All files are written at the end."""
    import os

    started = time.monotonic()
    os.makedirs(out_dir, exist_ok=True)
    pending = []  # (filename, bytes) written by a single writer at the end

    if config.kind == "closure_gallery":
        payload = closure_gallery_report()
        name = config.outputs.get("csv") or f"{config.name}.json"
        pending.append((name, json_text(payload).encode()))
        return _finalize(config, out_dir, pending, started)

    basis, H, model, terms = build_system(config.system)
    if H.dim > DENSE_LIMIT and config.method == "dense_eig":
        raise ResourceGuardError(
            f"dense evolution of dimension {H.dim} exceeds the limit {DENSE_LIMIT}; "
            "select the krylov method explicitly"
        )
    psi0 = build_initial_state(config.initial_state, basis)
    times = np.linspace(config.times["start"], config.times["stop"], config.times["num"])
    if config.times["num"] == 1:
        times = np.array([config.times["start"]], dtype=float)
    result = evolve(H, psi0, times, method=config.method, store=config.store)

    graph = None
    wl = None
    needs_sites = config.outputs.get("site_populations") or "heatmap" in config.outputs
    if "graph_json" in config.outputs or "adjacency_csv" in config.outputs:
        graph = system_graph(basis, H, model, terms, tol=tol)
    if graph is not None or needs_sites:
        if model is not None and model.cartan:
            wl = cartan_weights(model.cartan_ops())
        elif "weights" in config.system:
            wl = _weights_from_linear_forms(basis, config.system["weights"])
        elif needs_sites:
            wl = _weights_from_occupations(basis)

    # observable columns
    columns = []
    if config.store == "snapshots":
        columns.append(("fidelity", fidelity_series(result, psi0)))
    columns.append(("norm", result.norms))
    for obs in config.observables:
        if config.store != "snapshots":
            raise ConfigError("observables require snapshot storage", field="observables")
        if "generator" in obs:
            if model is None:
                raise ConfigError(
                    "generator observables need an algebra-based system", field="observables"
                )
            op = model.generator(obs["generator"])
        else:
            op = number_op(basis, int(obs["number_mode"]))
        series = expectation_series(result, op)
        columns.append((obs["name"], np.real(series)))

    site_columns = []
    if config.outputs.get("site_populations"):
        site_pops, site_keys = _site_populations(result.populations, wl)
        site_columns = [(f"P{key}", site_pops[:, s]) for s, key in enumerate(site_keys)]

    if "csv" in config.outputs:
        header = ["t"] + [name for name, _ in columns + site_columns]
        table = np.column_stack([times] + [col for _, col in columns + site_columns])
        text = "\n".join([",".join(header), *float_rows(table)]) + "\n"
        pending.append((config.outputs["csv"], text.encode()))

    if "graph_json" in config.outputs:
        payload = graph_to_json_dict(graph, wl)
        pending.append((config.outputs["graph_json"], json_text(payload).encode()))
    if "adjacency_csv" in config.outputs:
        pending.append((config.outputs["adjacency_csv"], graph_to_adjacency_csv(graph).encode()))

    if "heatmap" in config.outputs:
        hm = config.outputs["heatmap"]
        k = int(hm["time_index"])
        if not 0 <= k < times.size:
            raise ConfigError("heatmap time_index outside the time grid", field="outputs.heatmap.time_index")
        table = _weight_grid(result.populations[k], wl)
        pending.append(
            (hm["path"], heatmap_bytes(table, bool(hm.get("fourth_root", False))))
        )

    if "husimi" in config.outputs:
        hu = config.outputs["husimi"]
        if config.store != "snapshots":
            raise ConfigError("husimi output requires snapshots", field="outputs.husimi")
        state = result.snapshots[int(hu.get("time_index", len(times) - 1))]
        grid = husimi_chart(state, hu["space"], hu.get("nodes", [101, 101]), hu.get("params", {}))
        pending.append((hu["path"], grid_csv_bytes(grid)))

    return _finalize(config, out_dir, pending, started)


def _weights_from_occupations(basis):
    return WeightLattice.from_numerators(basis.occ, 1)


def _weights_from_linear_forms(basis, rows):
    """Coordinates as exact rational linear forms of the occupations; each
    row lists one Fraction-parseable coefficient per mode. The forms are
    scaled to integers over their common denominator."""
    forms = [[Fraction(str(c)) for c in row] for row in rows]
    den = lcm(*(f.denominator for row in forms for f in row))
    coeffs = [[int(f * den) for f in row] for row in forms]
    caps = [m.capacity for m in basis.modes]
    check_exact(max((sum(abs(c) * n for c, n in zip(row, caps)) for row in coeffs), default=0), den)
    coeffs = np.array(coeffs, dtype=np.int64).reshape(len(forms), len(caps))
    return WeightLattice.from_numerators(basis.occ @ coeffs.T, den)


def _site_populations(populations, wl):
    """Populations summed over the members of each site, one column per site,
    with the site keys written like (1/2,-1/2)."""
    keys = ["(" + ",".join(str(c) for c in coord) + ")" for coord in wl.site_keys()]
    out = np.zeros((populations.shape[0], len(keys)))
    # one sum per site over its ascending members keeps numpy's summation
    # order, so the written floats do not depend on how sites are grouped
    for s, members in enumerate(wl.site_members()):
        out[:, s] = populations[:, members].sum(axis=1)
    return out, keys


def _weight_grid(populations_at_t, wl):
    """Populations summed per weight site, arranged on the rectangular grid
    spanned by the first two weight coordinates (rows: second coordinate
    descending, columns: first ascending). 1D weights produce a single row."""
    sums = np.array([np.sum(populations_at_t[members]) for members in wl.site_members()])
    if wl.site_numerators.shape[1] == 1:
        return sums[None, :]
    xs, col = np.unique(wl.site_numerators[:, 0], return_inverse=True)
    ys, row = np.unique(wl.site_numerators[:, 1], return_inverse=True)
    table = np.zeros((len(ys), len(xs)))
    table[len(ys) - 1 - row, col] = sums
    return table


def _finalize(config, out_dir, pending, started):
    import os

    outputs = []
    for name, blob in pending:
        path = os.path.join(out_dir, name)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(blob)
        outputs.append({"path": name, "sha256": sha256_bytes(blob), "bytes": len(blob)})
    archive = RunArchive(
        config_hash=config.hash(),
        version=CONFIG_VERSION,
        outputs=outputs,
        wall_clock_seconds=time.monotonic() - started,
    )
    write_json(os.path.join(out_dir, f"{config.name}_manifest.json"), archive.to_dict())
    return archive


# ---------------------------------------------------------------------------
# closure gallery
# ---------------------------------------------------------------------------


def closure_gallery_report(cap=64):
    """The standard closure survey: ladder triple, spin, three-mode, quadratic
    bosonic/fermionic and boson-fermion algebras close; the driven-two-level
    and squared-spin seeds exceed the cap."""
    rows = []

    def run(name, seed, labels, interior, graded, cap_=cap):
        rep = lie_closure(seed, cap=cap_, graded=graded, interior=interior, labels=labels)
        rows.append(
            {
                "name": name,
                "closed": rep.closed,
                "dimension": rep.dimension,
                "cap": rep.cap,
                "residual": rep.max_residual if rep.closed else None,
            }
        )

    hw = build_algebra("hw", cutoff=24)
    a, adag, n, one = hw.generators
    run("ladder_triple", [a, adag, one], ["a", "adag", "I"], hw.interior(), False)
    su2 = build_algebra("su2_spin", S=4)
    run("su2", su2.generators, list(su2.labels), None, False)
    su3 = build_algebra("su3_schwinger", N=3)
    run("su3", su3.generators, list(su3.labels), None, False)
    sp4 = build_algebra("sp2n_boson", modes=2, cutoff=6)
    run("sp4", sp4.generators, list(sp4.labels), sp4.interior(), False)
    jc = build_algebra("jc_super", cutoff=10)
    run("jc_super", jc.generators, list(jc.labels), jc.interior(), True)
    ops, labels, mask = rabi_seed(cutoff=12)
    run("rabi", ops, labels, mask, False)
    ops, labels, mask = lmg_seed(S=8)
    run("lmg", ops, labels, mask, False)
    return {"cap": cap, "results": rows}


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------


def su2_transport(S=50, J0=1.0, num=241):
    """Edge-state transport on the spin chain: revival at pi/J0, full transfer
    at half that time."""
    two_s = int(Fraction(S) * 2)
    stop = 1.1 * np.pi / J0
    return parse_config(
        {
            "version": 1,
            "name": "su2_transport",
            "system": {
                "algebra": {"name": "su2_spin", "params": {"S": S}},
                "terms": [
                    {"label": "S+", "coeff": float(J0)},
                    {"label": "S-", "coeff": float(J0)},
                ],
            },
            "initial_state": {"fock": [two_s]},
            "times": {"start": 0.0, "stop": float(stop), "num": int(num)},
            "observables": [{"name": "Sz", "generator": "Sz"}],
            "outputs": {"csv": "su2_transport.csv", "site_populations": True},
        }
    )


def su3_center_release(N=90, phi=0.0, J=1.0, t_snap=0.3, method=None):
    """Center-site release on the triangular lattice, with and without the
    staggered flux; exports the graph and a snapshot heatmap."""
    if N % 3:
        raise ConfigError("su3_center_release needs N divisible by 3 for the center start")
    if method is None:
        from math import comb

        method = "dense_eig" if comb(N + 2, 2) <= DENSE_LIMIT else "krylov"
    return parse_config(
        {
            "version": 1,
            "name": "su3_center_release",
            "system": {
                "algebra": {"name": "su3_schwinger", "params": {"N": int(N)}},
                "terms": [
                    {"label": "I+", "coeff": float(J)},
                    {"label": "I-", "coeff": float(J)},
                    {"label": "U+", "coeff": float(J)},
                    {"label": "U-", "coeff": float(J)},
                    {"label": "V+", "coeff": float(J), "phase": float(phi)},
                    {"label": "V-", "coeff": float(J), "phase": float(-phi)},
                ],
            },
            "initial_state": {"fock": [N // 3, N // 3, N // 3]},
            "times": {"start": 0.0, "stop": float(t_snap), "num": 2},
            "evolve": {"method": method},
            "outputs": {
                "csv": "su3_center_release.csv",
                "graph_json": "su3_center_release_graph.json",
                "heatmap": {"path": "su3_center_release.pgm", "time_index": 1, "fourth_root": False},
            },
        }
    )


def so5_quench(N=20, phi=0.0, J1=1.0, J2=1.0, start="corner", t_snap=1.0, form="six_bond", method=None):
    """Four-mode square-lattice snapshots rendered as a fourth-root heatmap.

    form='six_bond' uses the six-bond Hamiltonian; form='roots' uses the
    combination of the catalog root generators (alternating-ring
    single-particle structure, the one with the commensurate revivals).
    """
    if N % 4 and start == "center":
        raise ConfigError("so5_quench center start needs N divisible by 4")
    starts = {
        "corner": [int(N), 0, 0, 0],
        "center": [N // 4, N // 4, N // 4, N // 4],
    }
    if start not in starts:
        raise ConfigError(f"unknown start {start!r}", field="extra.start")
    if method is None:
        from math import comb

        method = "dense_eig" if comb(N + 3, 3) <= DENSE_LIMIT else "krylov"
    if form == "six_bond":
        system = {
            "basis": {
                "modes": [{"kind": "boson", "capacity": int(N)}] * 4,
                "constraint": int(N),
            },
            "bilinears": [
                {"create": 0, "annihilate": 1, "coeff": float(J1)},
                {"create": 2, "annihilate": 3, "coeff": float(J1)},
                {"create": 0, "annihilate": 2, "coeff": float(J2), "phase": float(phi)},
                {"create": 0, "annihilate": 3, "coeff": float(J2)},
                {"create": 1, "annihilate": 2, "coeff": float(J2)},
                {"create": 1, "annihilate": 3, "coeff": float(J2)},
            ],
            "weights": [
                ["1/2", "-1/2", "0", "0"],
                ["0", "0", "1/2", "-1/2"],
            ],
        }
    elif form == "roots":
        system = {
            "algebra": {"name": "so5_quoted", "params": {"N": int(N)}},
            "terms": [
                {"label": "Sa+", "coeff": float(J1)},
                {"label": "Sa-", "coeff": float(J1)},
                {"label": "Sb+", "coeff": float(J1)},
                {"label": "Sb-", "coeff": float(J1)},
                {"label": "Sab+", "coeff": float(J2), "phase": float(phi)},
                {"label": "Sab-", "coeff": float(J2), "phase": float(-phi)},
                {"label": "Sba+", "coeff": float(J2)},
                {"label": "Sba-", "coeff": float(J2)},
            ],
        }
    else:
        raise ConfigError(f"unknown form {form!r}", field="extra.form")
    return parse_config(
        {
            "version": 1,
            "name": "so5_quench",
            "system": system,
            "initial_state": {"fock": starts[start]},
            "times": {"start": 0.0, "stop": float(t_snap), "num": 2},
            "evolve": {"method": method},
            "outputs": {
                "csv": "so5_quench.csv",
                "site_populations": True,
                "heatmap": {"path": "so5_quench.pgm", "time_index": 1, "fourth_root": True},
            },
            "extra": {"start": start, "form": form, "phi": float(phi)},
        }
    )


def ws_breathing(L=81, omega=1.0, J=0.3, num=301):
    """Tilted-chain breathing of a site-localized state; revives at 2 pi/omega."""
    return parse_config(
        {
            "version": 1,
            "name": "ws_breathing",
            "system": {
                "algebra": {"name": "e2", "params": {"L": int(L)}},
                "terms": [
                    {"label": "E0", "coeff": float(omega)},
                    {"label": "E+", "coeff": float(-J)},
                    {"label": "E-", "coeff": float(-J)},
                ],
            },
            "initial_state": {"fock": [(int(L) - 1) // 2]},
            "times": {"start": 0.0, "stop": float(2.2 * 2 * np.pi / omega), "num": int(num)},
            "observables": [{"name": "position", "generator": "E0"}],
            "outputs": {"csv": "ws_breathing.csv"},
        }
    )


def ws_bloch(L=81, omega=1.0, J=0.3, k0=np.pi / 2, width=10.0, num=301):
    """Quasi-momentum wave packet on the tilted chain: center-of-mass
    oscillation with period 2 pi/omega."""
    L = int(L)
    j = np.arange(L) - (L - 1) // 2
    amp = np.exp(1j * k0 * j) * np.exp(-(j / (2 * width)) ** 2)
    amp = amp / np.linalg.norm(amp)
    return parse_config(
        {
            "version": 1,
            "name": "ws_bloch",
            "system": {
                "algebra": {"name": "e2", "params": {"L": L}},
                "terms": [
                    {"label": "E0", "coeff": float(omega)},
                    {"label": "E+", "coeff": float(-J)},
                    {"label": "E-", "coeff": float(-J)},
                ],
            },
            "initial_state": {
                "amplitudes": [[float(a.real), float(a.imag)] for a in amp]
            },
            "times": {"start": 0.0, "stop": float(2.2 * 2 * np.pi / omega), "num": int(num)},
            "observables": [{"name": "position", "generator": "E0"}],
            "outputs": {"csv": "ws_bloch.csv"},
        }
    )


def squeeze_vac(cutoff=400, omega=2.0, xi=1.0, num=181):
    """Vacuum under the squeezing Hamiltonian; <n> oscillates as
    (|xi|/Omega)^2 sin^2(Omega t) in the stable regime."""
    gap = np.sqrt(max(omega**2 - xi**2, 0.1))
    return parse_config(
        {
            "version": 1,
            "name": "squeeze_vac",
            "system": {
                "algebra": {"name": "su11_single", "params": {"cutoff": int(cutoff)}},
                "terms": [
                    {"label": "K0", "coeff": float(2 * omega)},
                    {"label": "K+", "coeff": float(xi)},
                    {"label": "K-", "coeff": float(xi)},
                ],
            },
            "initial_state": {"fock": [0]},
            "times": {"start": 0.0, "stop": float(3 * np.pi / gap), "num": int(num)},
            "observables": [{"name": "K0", "generator": "K0"}],
            "outputs": {"csv": "squeeze_vac.csv"},
        }
    )


def jc_sectors(cutoff=6, omega=1.0, splitting=1.0, g=0.2, num=121):
    """Boson-fermion ladder: the lattice splits into two-site excitation
    sectors plus the uncoupled vacuum; exports the labeled graph."""
    return parse_config(
        {
            "version": 1,
            "name": "jc_sectors",
            "system": {
                "algebra": {"name": "jc_super", "params": {"cutoff": int(cutoff)}},
                "terms": [
                    {"label": "n_b", "coeff": float(omega)},
                    {"label": "n_f", "coeff": float(splitting)},
                    {"label": "bf+", "coeff": float(g)},
                    {"label": "bf-", "coeff": float(g)},
                ],
            },
            "initial_state": {"fock": [0, 1]},
            "times": {"start": 0.0, "stop": float(4 * np.pi / max(g, 1e-6)), "num": int(num)},
            "outputs": {"csv": "jc_sectors.csv", "graph_json": "jc_sectors_graph.json"},
        }
    )


def closure_gallery():
    return parse_config(
        {
            "version": 1,
            "name": "closure_gallery",
            "kind": "closure_gallery",
            "outputs": {"csv": "closure_gallery.json"},
        }
    )


BUILTIN_SCENARIOS = {
    "su2_transport": su2_transport,
    "su3_center_release": su3_center_release,
    "so5_quench": so5_quench,
    "ws_breathing": ws_breathing,
    "ws_bloch": ws_bloch,
    "squeeze_vac": squeeze_vac,
    "jc_sectors": jc_sectors,
    "closure_gallery": closure_gallery,
}


def builtin_scenario(name, **overrides) -> ScenarioConfig:
    try:
        factory = BUILTIN_SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(BUILTIN_SCENARIOS))}"
        ) from None
    return factory(**overrides)
