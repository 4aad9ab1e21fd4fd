"""Scenario-driven runs: a strict versioned JSON configuration, a registry of
built-in scenarios, and the runner that assembles the system, evolves it,
and persists outputs with a reproducibility manifest.

Unknown configuration fields are rejected with their path so golden files
cannot drift silently. Counts and indices are read by `errors.whole_number`,
and weights, parameters and coherent-state fields by `errors.exact_number`,
where they are checked and again where they are used: the config is never
rewritten, so its hash is the file's. A `coherent` state is read by its
kind's row of COHERENT_KINDS.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import lcm

import numpy as np

from .algebra import build_algebra, lie_closure, lmg_seed, rabi_seed
from . import coherent
from .coherent import SPACES, chart_param, husimi_chart
from .dynamics import evolve, expectation_series, fidelity_series
from .errors import ConfigError, configure, exact_number, whole_number
from .fock import FockBasis, ModeSpec, boson, spin
from .lattice import (
    check_exact,
    graph_to_adjacency_csv,
    graph_to_json_dict,
    system_graph,
    weight_coordinates,
)
from .operators import SparseOperator, linear_combination, number_op, transfer_op
from .output import float_rows, grid_csv_bytes, heatmap_bytes, json_text, sha256_bytes, write_json

CONFIG_VERSION = 1


def _require_keys(obj, allowed, required, path):
    if not isinstance(obj, dict):
        raise ConfigError("expected an object", field=path or "top level")
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
    outputs = payload.get("outputs", {})
    _require_keys(
        outputs,
        {"csv", "graph_json", "adjacency_csv", "site_populations", "heatmap", "husimi"},
        set(),
        "outputs",
    )
    for key in ("csv", "graph_json", "adjacency_csv"):
        if key in outputs:
            _check_file_name(outputs[key], f"outputs.{key}")
    if "heatmap" in outputs:
        _require_keys(
            outputs["heatmap"], {"path", "time_index", "fourth_root"}, {"path", "time_index"}, "outputs.heatmap"
        )
        _check_file_name(outputs["heatmap"]["path"], "outputs.heatmap.path")
    if "husimi" in outputs:
        _require_keys(
            outputs["husimi"], {"space", "path", "time_index", "nodes", "params"}, {"space", "path"}, "outputs.husimi"
        )
        _check_file_name(outputs["husimi"]["path"], "outputs.husimi.path")
        if outputs["husimi"]["space"] not in SPACES:
            raise ConfigError(f"unknown phase space {outputs['husimi']['space']!r}", field="outputs.husimi.space")
        if "nodes" in outputs["husimi"]:
            nodes = _require_list(outputs["husimi"]["nodes"], "outputs.husimi.nodes")
            if len(nodes) != 2 or min(whole_number(n, "outputs.husimi.nodes") for n in nodes) < 1:
                raise ConfigError("expected two positive node counts", field="outputs.husimi.nodes")
        _check_params(outputs["husimi"].get("params", {}), "outputs.husimi.params")
    if kind == "closure_gallery":
        return ScenarioConfig(
            name=payload["name"],
            system={},
            initial_state={},
            times={},
            outputs=outputs,
            kind=kind,
            extra=payload.get("extra", {}),
        )
    if kind != "evolution":
        raise ConfigError(f"unknown scenario kind {kind!r}", field="kind")
    _require_keys(payload, payload, ("system", "initial_state", "times"), "")

    system = payload["system"]
    _check_system(system)

    state = payload["initial_state"]
    _check_initial_state(state, "initial_state")

    times = payload["times"]
    _require_keys(times, {"start", "stop", "num"}, {"start", "stop", "num"}, "times")
    for key in ("start", "stop"):
        _check_real(times[key], f"times.{key}")
    num = whole_number(times["num"], "times.num")
    if num < 1:
        raise ConfigError("times.num must be a positive integer", field="times.num")
    if not times["stop"] > times["start"] and num > 1:
        raise ConfigError("times.stop must exceed times.start", field="times")

    ev = payload.get("evolve", {})
    _require_keys(ev, {"method", "store"}, set(), "evolve")
    method = ev.get("method", "dense_eig")
    store = ev.get("store", "snapshots")
    if method not in ("dense_eig", "krylov"):
        raise ConfigError(f"unknown method {method!r}", field="evolve.method")
    if store not in ("snapshots", "populations"):
        raise ConfigError(f"unknown store {store!r}", field="evolve.store")

    observables = _require_list(payload.get("observables", []), "observables")
    for k, obs in enumerate(observables):
        _require_keys(obs, {"name", "generator", "number_mode"}, {"name"}, f"observables[{k}]")
        if ("generator" in obs) == ("number_mode" in obs):
            raise ConfigError(
                "observable needs exactly one of 'generator' or 'number_mode'",
                field=f"observables[{k}]",
            )

    for key in ("heatmap", "husimi"):
        if "time_index" in outputs.get(key, {}):
            _check_index(outputs[key]["time_index"], num, f"outputs.{key}.time_index")

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


def _check_system(system):
    """Validate a system spec, algebra+terms or basis+bilinears: a malformed
    one raises ConfigError naming the field."""
    if isinstance(system, dict) and "algebra" in system:
        _require_keys(system, {"algebra", "terms"}, {"algebra", "terms"}, "system")
        _require_keys(system["algebra"], {"name", "params"}, {"name"}, "system.algebra")
        _name(system["algebra"]["name"], "system.algebra.name")
        _check_params(system["algebra"].get("params", {}), "system.algebra.params")
        terms, path, fields = system["terms"], "system.terms", {"label", "coeff", "phase"}
    elif isinstance(system, dict) and "basis" in system:
        _require_keys(system, {"basis", "bilinears", "weights"}, {"basis", "bilinears"}, "system")
        modes, _ = _check_basis(system["basis"], "system.basis")
        for k, row in enumerate(_require_list(system.get("weights", []), "system.weights")):
            if len(_require_list(row, f"system.weights[{k}]")) != len(modes):
                raise ConfigError("each weight row needs one rational entry per mode", field=f"system.weights[{k}]")
            for i, c in enumerate(row):
                exact_number(c, f"system.weights[{k}][{i}]")
        terms, path, fields = system["bilinears"], "system.bilinears", {"create", "annihilate", "coeff", "phase"}
    else:
        raise ConfigError("system must contain either 'algebra'+'terms' or 'basis'+'bilinears'", field="system")
    if not _require_list(terms, path):
        raise ConfigError("at least one term is needed", field=path)
    for k, term in enumerate(terms):
        _require_keys(term, fields, fields - {"phase"}, f"{path}[{k}]")
        for key in ("coeff", "phase"):
            _check_real(term.get(key, 0.0), f"{path}[{k}].{key}")
        _name(term.get("label", ""), f"{path}[{k}].label")
        if "basis" in system:
            for key in ("create", "annihilate"):
                _check_index(term[key], len(modes), f"{path}[{k}].{key}")


def _check_basis(basis, path):
    """The modes and constraint of a `{"modes": [{"kind", "capacity"}, ...],
    "constraint"}` spec, the arguments of its FockBasis."""
    _require_keys(basis, {"modes", "constraint"}, {"modes"}, path)
    modes = []
    for k, spec in enumerate(_require_list(basis["modes"], f"{path}.modes")):
        _require_keys(spec, {"kind", "capacity"}, {"kind", "capacity"}, f"{path}.modes[{k}]")
        modes.append(ModeSpec(spec["kind"], whole_number(spec["capacity"], f"{path}.modes[{k}].capacity")))
    constraint = basis.get("constraint")
    return modes, None if constraint is None else whole_number(constraint, f"{path}.constraint")


def _check_initial_state(state, path):
    _require_keys(state, {"fock", "coherent", "amplitudes"}, set(), path)
    if len(state) != 1:
        raise ConfigError(f"{path} must contain exactly one of fock/coherent/amplitudes", field=path)


def _check_params(params, path):
    """An object of parameters, each read by exact_number."""
    if not isinstance(params, dict):
        raise ConfigError("expected an object", field=path)
    for key, value in params.items():
        exact_number(value, f"{path}.{key}")
    return params


def _name(value, path):
    if not isinstance(value, str):
        raise ConfigError("expected a string", field=path)
    return value


def _check_file_name(value, path):
    if not isinstance(value, str) or not value:
        raise ConfigError("expected a file name", field=path)


def _require_list(obj, path):
    if not isinstance(obj, list):
        raise ConfigError("expected a list", field=path)
    return obj


def _check_real(value, path):
    # true for finite floats (NaN compares false) and for ints a float can hold: 10**400 fails
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not abs(value) <= sys.float_info.max:
        raise ConfigError("expected a finite real number", field=path)


def _check_index(value, size, path):
    """An index k read by whole_number, with 0 <= k < size: a mode of the
    basis or a point of the time grid."""
    k = whole_number(value, path)
    if not 0 <= k < size:
        raise ConfigError(f"index {k} is outside 0..{size - 1}", field=path)
    return k


def _real(value, path):
    """A real field, a number or a rational string, as a float."""
    return float(exact_number(value, path))


def _amplitude(pair, path):
    """One [re, im] pair of an amplitude list, each part read by `_real`."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise ConfigError(f"expected a list of [re, im] pairs, got {pair!r}", field=path)
    return complex(_real(pair[0], path), _real(pair[1], path))


def _complex(value, path):
    """A complex amplitude: a real (`_real`) or a string such as "1+0.5j"."""
    try:
        z = complex(value) if isinstance(value, str) else None
    except ValueError:
        z = None
    return z if z is not None and np.isfinite(z) else _real(value, path)


def _complex_list(value, path):
    return [_complex(v, path) for v in _require_list(value, path)]


_SU3_ANGLES = ("theta1", "theta2", "phi1", "phi2")


def _su3(f):
    zeta = f["zeta"] if "zeta" in f else coherent.su3_angles_to_zeta(*(f[key] for key in _SU3_ANGLES))
    return ([boson(f["N"])] * 3, f["N"]), lambda basis: coherent.su3_coherent_state(f["N"], zeta, basis)


def _displaced(f):
    model = build_algebra(f["algebra"], **f.get("params", {}))
    return (model.basis.modes, model.basis.constraint), lambda basis: coherent.displaced_state(model, f)


# Each coherent-state kind: its fields with their readers (a field in no form
# is optional); the field lists that complete a spec (the last is asked for
# when none does); and its constructor, from the read fields to the modes and
# constraint of its register and a function from a basis with the register's
# states to the state on that basis.
COHERENT_KINDS = {
    "spin": (
        {"S": exact_number, "theta": _real, "phi": _real},
        (("S", "theta", "phi"),),
        lambda f: (([spin(f["S"])], None), lambda _: coherent.spin_coherent_state(**f)),
    ),
    "glauber": (
        {"alpha": _complex, "cutoff": whole_number},
        (("alpha", "cutoff"),),
        lambda f: (([boson(f["cutoff"])], None), lambda _: coherent.glauber_state(**f)),
    ),
    "squeezed": (
        {"xi": _complex, "cutoff": whole_number, "k": exact_number},
        (("xi", "cutoff"),),
        lambda f: (([boson(f["cutoff"])], None), lambda _: coherent.squeezed_vacuum_state(**f)),
    ),
    "euclidean": (
        {"beta": _complex, "L": whole_number, "start": whole_number},
        (("beta", "L"),),
        lambda f: (([boson(f["L"] - 1)], None), lambda _: coherent.euclidean_coherent_state(**f)),
    ),
    "su3": (
        {"N": whole_number, "zeta": _complex_list, **dict.fromkeys(_SU3_ANGLES, _real)},
        (("N", "zeta"), ("N", *_SU3_ANGLES)),
        _su3,
    ),
    "displaced": (
        {"algebra": _name, "params": _check_params, "root": _name, "beta": _complex, "reference": _complex_list},
        (("algebra", "root", "beta"),),
        _displaced,
    ),
}


def _states(modes, constraint):
    """The constraint, and each mode's kind and the capacity the constraint
    leaves it: two bases with equal ones have the same occupation rows."""
    return constraint, [(m.kind, m.capacity if constraint is None else min(m.capacity, constraint)) for m in modes]


def _coherent_state(spec, basis, path):
    """The state of a `coherent` spec on `basis`. An unknown or missing field
    raises ConfigError naming it, and so does a basis whose states are not
    those of the state's register, whatever its dimension; the state is
    built only on its register."""
    name = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(name, str) or name not in COHERENT_KINDS:
        raise ConfigError(f"expected an object whose 'kind' is one of {', '.join(COHERENT_KINDS)}", field=path)
    fields, forms, build = COHERENT_KINDS[name]
    _require_keys(spec, {"kind", *fields}, next((form for form in forms if spec.keys() >= set(form)), forms[-1]), path)
    (modes, constraint), state = build({k: fields[k](v, f"{path}.{k}") for k, v in spec.items() if k != "kind"})
    if _states(modes, constraint) != _states(basis.modes, basis.constraint):
        raise ConfigError(f"the {name} coherent state needs the modes {modes} with constraint {constraint}", field=path)
    return state(basis)


# ---------------------------------------------------------------------------
# system assembly
# ---------------------------------------------------------------------------


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
        if not H.is_hermitian():
            raise ConfigError(
                "the requested generator combination is not Hermitian", field="system.terms"
            )
        return model.basis, H, model, terms
    basis = FockBasis(*_check_basis(system["basis"], "system.basis"))
    acc = None
    for k, term in enumerate(system["bilinears"]):
        i, j = (whole_number(term[key], f"system.bilinears[{k}].{key}") for key in ("create", "annihilate"))
        coeff = term["coeff"] * np.exp(1j * term.get("phase", 0.0))
        op = transfer_op(basis, i, j) if i != j else number_op(basis, i)
        piece = op.mat * coeff
        if i != j:
            piece = piece + piece.conj().T
        elif term.get("phase", 0.0) != 0.0:
            raise ConfigError("diagonal bilinears cannot carry a phase", field="system.bilinears")
        acc = piece if acc is None else acc + piece
    H = SparseOperator(acc)
    if not H.is_hermitian():
        raise ConfigError("assembled Hamiltonian is not Hermitian", field="system.bilinears")
    return basis, H, None, None


def system_weights(system, basis, model):
    """The exact coordinates that label a system's lattice sites, or None:
    the Cartan weights of a named algebra (`AlgebraModel.weight_lattice`),
    else the spec's `weights` rows, exact rational linear forms of the
    occupations (one coefficient per mode, read by `exact_number`), scaled
    to integers over their common denominator. Both go through
    `lattice.weight_coordinates`."""
    if model is not None and model.cartan:
        return model.weight_lattice()
    if "weights" not in system:
        return None
    rows = enumerate(system["weights"])
    forms = [[exact_number(c, f"system.weights[{k}][{i}]") for i, c in enumerate(row)] for k, row in rows]
    den = lcm(*(f.denominator for row in forms for f in row))
    coeffs = [[int(f * den) for f in row] for row in forms]
    caps = [m.capacity for m in basis.modes]
    check_exact(max((sum(abs(c) * n for c, n in zip(row, caps)) for row in coeffs), default=0), den)
    coeffs = np.array(coeffs, dtype=np.int64).reshape(len(forms), len(caps))
    return weight_coordinates(basis.occ @ coeffs.T, den)


def build_initial_state(state_spec, basis, path="initial_state"):
    """The state of a fock/amplitudes/coherent spec; errors name fields under `path`."""
    if "fock" in state_spec:
        occ = _require_list(state_spec["fock"], f"{path}.fock")
        return basis.vector(tuple(whole_number(v, f"{path}.fock") for v in occ))
    if "amplitudes" in state_spec:
        field = f"{path}.amplitudes"
        amp = np.array([_amplitude(pair, field) for pair in _require_list(state_spec["amplitudes"], field)], dtype=complex)
        if amp.shape[0] != basis.dim:
            raise ConfigError(
                f"amplitude vector length {amp.shape[0]} does not match dim {basis.dim}",
                field=field,
            )
        nrm = np.linalg.norm(amp)
        if nrm == 0:
            raise ConfigError("amplitude vector is zero", field=field)
        return amp / nrm
    if "coherent" in state_spec:
        return _coherent_state(state_spec["coherent"], basis, f"{path}.coherent")
    raise ConfigError(f"empty {path}", field=path)


def load_state_file(spec):
    """The state vector and chart parameters of a `liefock husimi` state
    file, {"basis", "state", "space_params"}; a malformed one raises
    ConfigError naming the field."""
    _require_keys(spec, {"basis", "state", "space_params"}, {"basis", "state"}, "")
    modes, constraint = _check_basis(spec["basis"], "basis")
    _check_initial_state(spec["state"], "state")
    params = _check_params(spec.get("space_params", {}), "space_params")
    return build_initial_state(spec["state"], FockBasis(modes, constraint), "state"), params


@dataclass
class RunArchive:
    config_hash: str
    version: int
    outputs: list           # [{"path", "sha256", "bytes"}]
    wall_clock_seconds: float

    def to_dict(self):
        return asdict(self)


def run_scenario(config: ScenarioConfig, out_dir=".", tol=None) -> RunArchive:
    """Assemble, evolve, and persist. All files are written at the end."""
    started = time.monotonic()
    os.makedirs(out_dir, exist_ok=True)
    pending = []  # (filename, bytes) written by a single writer at the end

    if config.kind == "closure_gallery":
        payload = closure_gallery_report()
        name = config.outputs.get("csv") or f"{config.name}.json"
        pending.append((name, json_text(payload).encode()))
        return _finalize(config, out_dir, pending, started)

    basis, H, model, terms = build_system(config.system)
    psi0 = build_initial_state(config.initial_state, basis)
    observables = []
    for k, obs in enumerate(config.observables):
        if config.store != "snapshots":
            raise ConfigError("observables require snapshot storage", field="observables")
        if "generator" in obs:
            if model is None:
                raise ConfigError(
                    "generator observables need an algebra-based system", field="observables"
                )
            op = model.generator(obs["generator"])
        else:
            op = number_op(basis, _check_index(obs["number_mode"], len(basis.modes), f"observables[{k}].number_mode"))
        observables.append((obs["name"], op))
    hu = config.outputs.get("husimi")
    if hu is not None:
        if config.store != "snapshots":
            raise ConfigError("husimi output requires snapshots", field="outputs.husimi")
        chart_param(hu["space"], hu.get("params", {}), basis.dim, "outputs.husimi.params")
    num = whole_number(config.times["num"], "times.num")
    times = np.linspace(config.times["start"], config.times["stop"], num)
    if num == 1:
        times = np.array([config.times["start"]], dtype=float)
    result = evolve(H, psi0, times, method=config.method, store=config.store)

    graph = None
    wl = None
    needs_sites = config.outputs.get("site_populations") or "heatmap" in config.outputs
    if "graph_json" in config.outputs or "adjacency_csv" in config.outputs:
        graph = system_graph(H, model, terms, tol=tol)
    if graph is not None or needs_sites:
        wl = system_weights(config.system, basis, model)
    if wl is None and needs_sites:
        # site populations and heatmaps fall back to the occupations
        wl = weight_coordinates(basis.occ, 1)

    # observable columns
    columns = []
    if config.store == "snapshots":
        columns.append(("fidelity", fidelity_series(result, psi0)))
    columns.append(("norm", result.norms))
    for name, op in observables:
        columns.append((name, np.real(expectation_series(result, op))))

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
        table = _weight_grid(result.populations[whole_number(hm["time_index"], "outputs.heatmap.time_index")], wl)
        pending.append(
            (hm["path"], heatmap_bytes(table, bool(hm.get("fourth_root", False))))
        )

    if hu is not None:
        state = result.snapshots[whole_number(hu.get("time_index", num - 1), "outputs.husimi.time_index")]
        nodes = [whole_number(n, "outputs.husimi.nodes") for n in hu.get("nodes", [101, 101])]
        grid = husimi_chart(state, hu["space"], nodes, hu.get("params", {}))
        pending.append((hu["path"], grid_csv_bytes(grid)))

    return _finalize(config, out_dir, pending, started)


def _site_populations(populations, wl):
    """Populations summed over the members of each site, one column per site,
    with the site keys written like (1/2,-1/2): each coordinate as str() of
    its Fraction, reduced from the integers without building one."""
    g = np.gcd(wl.site_numerators, wl.denominator)
    rows = zip((wl.site_numerators // g).tolist(), (wl.denominator // g).tolist())
    keys = ["(" + ",".join(str(n) if d == 1 else f"{n}/{d}" for n, d in zip(*row)) + ")" for row in rows]
    out = np.zeros((populations.shape[0], len(keys)))
    # one sum per site over its ascending members keeps numpy's summation
    # order, so the written floats do not depend on how sites are grouped
    for s, members in enumerate(wl.site_members()):
        out[:, s] = populations[:, members].sum(axis=1)
    return out, keys


def _weight_grid(populations_at_t, wl):
    """Populations summed per weight site, arranged on the rectangular grid
    spanned by the first two weight coordinates (rows: second coordinate
    descending, columns: first ascending); sites that share their first two
    coordinates are summed into one cell. 1D weights produce a single row."""
    sums = np.array([np.sum(populations_at_t[members]) for members in wl.site_members()])
    if wl.site_numerators.shape[1] == 1:
        return sums[None, :]
    xs, col = np.unique(wl.site_numerators[:, 0], return_inverse=True)
    ys, row = np.unique(wl.site_numerators[:, 1], return_inverse=True)
    table = np.zeros((len(ys), len(xs)))
    np.add.at(table, (len(ys) - 1 - row, col), sums)
    return table


def _finalize(config, out_dir, pending, started):
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


def closure_gallery_report():
    """The standard closure survey: ladder triple, spin, three-mode, quadratic
    bosonic/fermionic and boson-fermion algebras close; the driven-two-level
    and squared-spin seeds exceed the cap of 64."""
    cap = 64
    rows = []

    def run(name, seed, labels, interior):
        rep = lie_closure(seed, cap=cap, interior=interior, labels=labels)
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
    run("ladder_triple", [a, adag, one], ["a", "adag", "I"], hw.interior())
    su2 = build_algebra("su2_spin", S=4)
    run("su2", su2.generators, list(su2.labels), None)
    su3 = build_algebra("su3_schwinger", N=3)
    run("su3", su3.generators, list(su3.labels), None)
    sp4 = build_algebra("sp2n_boson", modes=2, cutoff=6)
    run("sp4", sp4.generators, list(sp4.labels), sp4.interior())
    jc = build_algebra("jc_super", cutoff=10)
    run("jc_super", jc.generators, list(jc.labels), jc.interior())
    ops, labels, mask = rabi_seed(cutoff=12)
    run("rabi", ops, labels, mask)
    ops, labels, mask = lmg_seed(S=8)
    run("lmg", ops, labels, mask)
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
            "times": {"start": 0.0, "stop": float(stop), "num": num},
            "observables": [{"name": "Sz", "generator": "Sz"}],
            "outputs": {"csv": "su2_transport.csv", "site_populations": True},
        }
    )


def su3_center_release(N=90, phi=0.0, J=1.0, t_snap=0.3, method="krylov"):
    """Center-site release on the triangular lattice, with and without the
    staggered flux; exports the graph and a snapshot heatmap."""
    if N % 3:
        raise ConfigError("su3_center_release needs N divisible by 3 for the center start")
    return parse_config(
        {
            "version": 1,
            "name": "su3_center_release",
            "system": {
                "algebra": {"name": "su3_schwinger", "params": {"N": N}},
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


def so5_quench(N=20, phi=0.0, J1=1.0, J2=1.0, start="corner", t_snap=1.0, form="six_bond", method="krylov"):
    """Four-mode square-lattice snapshots rendered as a fourth-root heatmap.

    form='six_bond' uses the six-bond Hamiltonian; form='roots' uses the
    combination of the catalog root generators (alternating-ring
    single-particle structure, the one with the commensurate revivals).
    """
    if N % 4 and start == "center":
        raise ConfigError("so5_quench center start needs N divisible by 4")
    starts = {
        "corner": [N, 0, 0, 0],
        "center": [N // 4, N // 4, N // 4, N // 4],
    }
    if start not in starts:
        raise ConfigError(f"unknown start {start!r}", field="extra.start")
    if form == "six_bond":
        system = {
            "basis": {
                "modes": [{"kind": "boson", "capacity": N}] * 4,
                "constraint": N,
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
            "algebra": {"name": "so5_quoted", "params": {"N": N}},
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
                "algebra": {"name": "e2", "params": {"L": L}},
                "terms": [
                    {"label": "E0", "coeff": float(omega)},
                    {"label": "E+", "coeff": float(-J)},
                    {"label": "E-", "coeff": float(-J)},
                ],
            },
            "initial_state": {"fock": [(L - 1) // 2]},
            "times": {"start": 0.0, "stop": float(2.2 * 2 * np.pi / omega), "num": num},
            "observables": [{"name": "position", "generator": "E0"}],
            "outputs": {"csv": "ws_breathing.csv"},
        }
    )


def ws_bloch(L=81, omega=1.0, J=0.3, k0=np.pi / 2, width=10.0, num=301):
    """Quasi-momentum wave packet on the tilted chain: center-of-mass
    oscillation with period 2 pi/omega."""
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
            "times": {"start": 0.0, "stop": float(2.2 * 2 * np.pi / omega), "num": num},
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
                "algebra": {"name": "su11_single", "params": {"cutoff": cutoff}},
                "terms": [
                    {"label": "K0", "coeff": float(2 * omega)},
                    {"label": "K+", "coeff": float(xi)},
                    {"label": "K-", "coeff": float(xi)},
                ],
            },
            "initial_state": {"fock": [0]},
            "times": {"start": 0.0, "stop": float(3 * np.pi / gap), "num": num},
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
                "algebra": {"name": "jc_super", "params": {"cutoff": cutoff}},
                "terms": [
                    {"label": "n_b", "coeff": float(omega)},
                    {"label": "n_f", "coeff": float(splitting)},
                    {"label": "bf+", "coeff": float(g)},
                    {"label": "bf-", "coeff": float(g)},
                ],
            },
            "initial_state": {"fock": [0, 1]},
            "times": {"start": 0.0, "stop": float(4 * np.pi / max(g, 1e-6)), "num": num},
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
    """The config of a built-in scenario; `overrides` are passed to its
    factory by `errors.configure`."""
    try:
        factory = BUILTIN_SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(BUILTIN_SCENARIOS))}"
        ) from None
    return configure(factory, overrides, "scenario")
