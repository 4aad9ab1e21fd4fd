"""Scenario-driven runs: a strict versioned JSON configuration, a registry of
built-in scenarios, and the runner that assembles the system, evolves it,
and persists outputs with a reproducibility manifest.

The schema is stated once, as data (CONFIG, BASIS, STATE, STATE_FILE, the
forms of a system and the rows of COHERENT_KINDS): each field has its reader
(`errors.whole_number` for counts and indices, `exact_number`, `real_number`
or `complex_number` for numbers, or one for a string, a file name, a bool, a
list or an object with its allowed and required keys). One walker reads a
payload, refuses an unknown field, so golden files cannot drift silently,
names the path of a value that does not fit and returns the read values; the
rules between fields follow as plain code. A config is never rewritten, so
its hash is that of what was given: "1/2" and 0.5 read alike but hash
differently.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .algebra import CATALOG, build_algebra, lie_closure, lmg_seed, rabi_seed
from . import coherent
from .coherent import SPACES, chart_param, husimi_chart
from .dynamics import evolve, expectation_series, fidelity_series
from .errors import ConfigError, complex_number, configure, exact_number, lookup, named, real_number, whole_number
from .fock import BOSON, FERMION, SPIN, FockBasis, ModeSpec, boson, spin
from .lattice import graph_json_text, graph_to_adjacency_csv, linear_weights, system_graph, weight_coordinates
from .operators import bilinear_op, linear_combination, number_op
from .output import float_rows, grid_csv_bytes, heatmap_bytes, json_text, sha256_bytes, write_json

CONFIG_VERSION = 1


def _rational_str(obj):
    """Exact rationals, such as S = 7/2 given on the command line, as "7/2"."""
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


@dataclass
class ScenarioConfig:
    """A config as given, which its hash covers, and `values`, the values
    `parse_config` read from it, which a run uses."""

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
    values: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


# ---------------------------------------------------------------------------
# the config schema
# ---------------------------------------------------------------------------


class Obj(NamedTuple):
    """The schema of an object: `fields` maps each allowed key to its schema
    ("*" any other key) and `required` lists the keys it must have."""

    fields: dict
    required: tuple = ()


def _read(value, schema, path):
    """`value` read against `schema`: an Obj, a one-entry list (a list whose
    entries that entry reads, each named by its index) or the reader
    `(value, path) -> read value` of a leaf. Returns the read values; one
    that does not fit raises ConfigError naming its path."""
    if isinstance(schema, list):
        return [_read(v, schema[0], f"{path}[{k}]") for k, v in enumerate(_LIST(value, path))]
    if not isinstance(schema, Obj):
        return schema(value, path)
    if not isinstance(value, dict):
        raise ConfigError("expected an object", field=path or "top level")
    paths = {key: f"{path}.{key}" if path else key for key in value}
    for key in value:
        if key not in schema.fields and "*" not in schema.fields:
            raise ConfigError(f"unknown field {key!r}", field=paths[key])
    for key in schema.required:
        if key not in value:
            raise ConfigError(f"missing required field {key!r}", field=path or key)
    return {key: _read(v, schema.fields.get(key, schema.fields.get("*")), paths[key]) for key, v in value.items()}


def _leaf(what, fits, read=lambda value, path: value):
    """The reader of a leaf: `read` reads it and `fits` must accept the
    read value, else ConfigError "expected `what`"."""

    def reader(value, path):
        value = read(value, path)
        if not fits(value):
            raise ConfigError(f"expected {what}", field=path)
        return value

    return reader


def _one_of(names):
    return _leaf(f"one of {', '.join(names)}", lambda value: isinstance(value, str) and value in names)


def _each(reader):
    """The reader of a list whose entries `reader` reads, each named by the list."""
    return lambda value, path: [reader(v, path) for v in _LIST(value, path)]


def _re_im(pair, path):
    """One [re, im] pair of an amplitude list, each part a real_number."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise ConfigError(f"expected a list of [re, im] pairs, got {pair!r}", field=path)
    return complex(real_number(pair[0], path), real_number(pair[1], path))


def _in_range(k, size, path):
    """A read index k with 0 <= k < size: a mode of the basis or a point of the time grid."""
    if not 0 <= k < size:
        raise ConfigError(f"index {k} is outside 0..{size - 1}", field=path)
    return k


_AS_GIVEN = _leaf("anything", lambda value: True)
_LIST = _leaf("a list", lambda value: isinstance(value, list))
_STRING = _leaf("a string", lambda value: isinstance(value, str))
_FILE_NAME = _leaf("a file name", lambda value: isinstance(value, str) and value != "")
_BOOL = _leaf("true or false", lambda value: isinstance(value, bool))
_COUNT = _leaf("a positive whole number", lambda n: n >= 1, whole_number)
_NODES = _leaf("two positive node counts", lambda ns: len(ns) == 2 and min(ns) >= 1, _each(whole_number))
_CONSTRAINT = _leaf("null or a whole number >= 0", lambda n: n is None or n >= 0,
                    lambda value, path: None if value is None else whole_number(value, path))
_PARAMS = Obj({"*": exact_number})
_TERM = {"coeff": real_number, "phase": real_number}
_MODE = Obj({"kind": _one_of((BOSON, FERMION, SPIN)), "capacity": _COUNT}, ("kind", "capacity"))
# each mode read as its ModeSpec, whose refusal of a capacity for its kind names the capacity
_MODES = _leaf("at least one mode", len, lambda value, path: [
    named(f"{path}[{k}].capacity", ModeSpec, **m) for k, m in enumerate(_read(value, [_MODE], path))])
BASIS = Obj({"modes": _MODES, "constraint": _CONSTRAINT}, ("modes",))
_BILINEAR = Obj({"create": whole_number, "annihilate": whole_number, **_TERM}, ("create", "annihilate", "coeff"))
_ALGEBRA = Obj({"name": _one_of(tuple(CATALOG)), "params": _PARAMS}, ("name",))
_GENERATOR_TERM = Obj({"label": _STRING, **_TERM}, ("label", "coeff"))
SYSTEM_FORMS = {
    "algebra": Obj({"algebra": _ALGEBRA, "terms": [_GENERATOR_TERM]}, ("algebra", "terms")),
    "basis": Obj({"basis": BASIS, "bilinears": [_BILINEAR], "weights": [[exact_number]]}, ("basis", "bilinears")),
}


def read_system(spec, path):
    """A system spec read by the schema of its form, algebra+terms or
    basis+bilinears (with optional weights), then the rules between its
    fields: at least one term, bilinear indices below the number of modes,
    boson modes under an off-diagonal bilinear, no phase on a diagonal
    bilinear, and one weight entry per mode."""
    forms = [key for key in SYSTEM_FORMS if isinstance(spec, dict) and key in spec]
    if len(forms) != 1:
        raise ConfigError("system must contain either 'algebra'+'terms' or 'basis'+'bilinears'", field=path)
    system = _read(spec, SYSTEM_FORMS[forms[0]], path)
    terms = "terms" if "algebra" in system else "bilinears"
    if not system[terms]:
        raise ConfigError("at least one term is needed", field=f"{path}.{terms}")
    if "basis" in system:
        kinds = [mode.kind for mode in system["basis"]["modes"]]
        modes = len(kinds)
        for k, term in enumerate(system["bilinears"]):
            at = f"{path}.bilinears[{k}]"
            i, j = (_in_range(term[key], modes, f"{at}.{key}") for key in ("create", "annihilate"))
            for key, m in (("create", i), ("annihilate", j)):
                if i != j and kinds[m] != BOSON:
                    raise ConfigError(f"off-diagonal bilinears need boson modes; mode {m} is a {kinds[m]}", field=f"{at}.{key}")
            if i == j and term.get("phase", 0.0) != 0.0:
                raise ConfigError("diagonal bilinears cannot carry a phase", field=f"{at}.phase")
        for k, row in enumerate(system.get("weights", [])):
            if len(row) != modes:
                raise ConfigError("each weight row needs one rational entry per mode", field=f"{path}.weights[{k}]")
    return system


_SU3_ANGLES = ("theta1", "theta2", "phi1", "phi2")


def _one_mode(mode, key, state, shift=0, refused=None):
    """The constructor of a kind with the one mode `mode(f[key] + shift)` and the state `state(**f)`,
    a ValueError of which names the field `refused`."""
    return lambda f, at="coherent": (([named(f"{at}.{key}", mode, f[key] + shift)], None),
                                     lambda _: named(refused and f"{at}.{refused}", state, **f))


def _su3(f, at="coherent"):
    zeta = f["zeta"] if "zeta" in f else coherent.su3_angles_to_zeta(*(f[key] for key in _SU3_ANGLES))
    return ([named(f"{at}.N", boson, f["N"])] * 3, f["N"]), lambda basis: coherent.su3_coherent_state(f["N"], zeta, basis)


def _displaced(f, at="coherent"):
    model = build_algebra(f["algebra"], **f.get("params", {}))
    named(f"{at}.root", model.root_pair, f["root"])
    reference = f"{at}.reference" if "reference" in f else at  # its length or norm, or the spec lacks one
    return (model.basis.modes, model.basis.constraint), lambda _: named(reference, coherent.displaced_state, model, f)


# Each coherent-state kind: the schema of its fields (a field in no form is
# optional); the field lists that complete a spec (the last is asked for
# when none does); and its constructor, from the read fields and the spec's
# path `at` (which names a value they refuse) to the modes and constraint of
# its register and a function from a basis with its states to the state.
COHERENT_KINDS = {
    "spin": (
        {"S": exact_number, "theta": real_number, "phi": real_number},
        (("S", "theta", "phi"),),
        _one_mode(spin, "S", coherent.spin_coherent_state),
    ),
    "glauber": (
        {"alpha": complex_number, "cutoff": whole_number},
        (("alpha", "cutoff"),),
        _one_mode(boson, "cutoff", coherent.glauber_state),
    ),
    "squeezed": (
        {"xi": complex_number, "cutoff": whole_number, "k": exact_number},
        (("xi", "cutoff"),),
        _one_mode(boson, "cutoff", coherent.squeezed_vacuum_state, refused="k"),
    ),
    "euclidean": (
        {"beta": complex_number, "L": whole_number, "start": whole_number},
        (("beta", "L"),),
        _one_mode(boson, "L", coherent.euclidean_coherent_state, -1),
    ),
    "su3": (
        {"N": whole_number, "zeta": _each(complex_number), **dict.fromkeys(_SU3_ANGLES, real_number)},
        (("N", "zeta"), ("N", *_SU3_ANGLES)),
        _su3,
    ),
    "displaced": (
        {"algebra": _one_of(tuple(CATALOG)), "params": _PARAMS, "root": _STRING, "beta": complex_number,
         "reference": _each(complex_number)},
        (("algebra", "root", "beta"),),
        _displaced,
    ),
}


def _coherent(spec, path):
    """A coherent-state spec read by its kind's row of COHERENT_KINDS."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in COHERENT_KINDS:
        raise ConfigError(f"expected an object whose 'kind' is one of {', '.join(COHERENT_KINDS)}", field=path)
    fields, forms, _ = COHERENT_KINDS[kind]
    form = next((form for form in forms if spec.keys() >= set(form)), forms[-1])
    return _read(spec, Obj({"kind": _STRING, **fields}, form), path)


STATE = Obj({"fock": _each(whole_number), "coherent": _coherent, "amplitudes": _each(_re_im)})


def read_state(spec, path):
    """A state spec read against STATE, with exactly one of fock
    (occupations), coherent or amplitudes ([re, im] pairs)."""
    state = _read(spec, STATE, path)
    if len(state) != 1:
        raise ConfigError(f"{path} must contain exactly one of fock/coherent/amplitudes", field=path)
    return state


CONFIG = Obj(
    {
        "version": whole_number,
        "name": _FILE_NAME,  # of the manifest, <name>_manifest.json
        "kind": _one_of(("evolution", "closure_gallery")),
        "system": read_system,
        "initial_state": read_state,
        "times": Obj({"start": real_number, "stop": real_number, "num": _COUNT}, ("start", "stop", "num")),
        "evolve": Obj({"method": _one_of(("dense_eig", "krylov")), "store": _one_of(("snapshots", "populations"))}),
        "observables": [Obj({"name": _STRING, "generator": _STRING, "number_mode": whole_number}, ("name",))],
        "outputs": Obj({
            **dict.fromkeys(("csv", "graph_json", "adjacency_csv"), _FILE_NAME),
            "site_populations": _BOOL,
            "heatmap": Obj({"path": _FILE_NAME, "time_index": whole_number, "fourth_root": _BOOL}, ("path", "time_index")),
            "husimi": Obj({"space": _one_of(SPACES), "path": _FILE_NAME, "time_index": whole_number, "nodes": _NODES,
                           "params": _PARAMS}, ("space", "path")),
        }),
        "extra": _leaf("an object", lambda value: isinstance(value, dict)),
    },
    ("version", "name"),
)
# a closure gallery reads none of the sections of an evolution, and keeps none
_EVOLUTION = ("system", "initial_state", "times", "evolve", "observables")
GALLERY = Obj({**CONFIG.fields, **dict.fromkeys(_EVOLUTION, _AS_GIVEN)}, CONFIG.required)
STATE_FILE = Obj({"basis": BASIS, "state": read_state, "space_params": _PARAMS}, ("basis", "state"))


def parse_config(payload) -> ScenarioConfig:
    """Read a configuration dict against CONFIG (GALLERY for a closure
    gallery), then the rules between its sections: the version, the
    sections an evolution needs, a time grid that runs forward, time indices
    on the grid and one source per observable."""
    gallery = isinstance(payload, dict) and payload.get("kind") == "closure_gallery"
    values = _read(payload, GALLERY if gallery else CONFIG, "")
    if values["version"] != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {payload['version']}", field="version")
    if not gallery:
        for key in ("system", "initial_state", "times"):
            if key not in values:
                raise ConfigError(f"missing required field {key!r}", field=key)
        times = values["times"]
        if not times["stop"] > times["start"] and times["num"] > 1:
            raise ConfigError("times.stop must exceed times.start", field="times")
        outputs = values.get("outputs", {})
        for key in ("heatmap", "husimi"):
            if "time_index" in outputs.get(key, {}):
                _in_range(outputs[key]["time_index"], times["num"], f"outputs.{key}.time_index")
        for k, obs in enumerate(values.get("observables", [])):
            if ("generator" in obs) == ("number_mode" in obs):
                raise ConfigError("observable needs exactly one of 'generator' or 'number_mode'", field=f"observables[{k}]")
    given, ev = ({}, {}) if gallery else (payload, values.get("evolve", {}))
    config = ScenarioConfig(
        name=payload["name"],
        system=given.get("system", {}),
        initial_state=given.get("initial_state", {}),
        times=given.get("times", {}),
        method=ev.get("method", "dense_eig"),
        store=ev.get("store", "snapshots"),
        observables=given.get("observables", []),
        outputs=payload.get("outputs", {}),
        kind=values.get("kind", "evolution"),
        extra=payload.get("extra", {}),
    )
    config.values = values
    return config


def _states(modes, constraint):
    """The constraint, and each mode's kind and the capacity the constraint
    leaves it: two bases with equal ones have the same occupation rows."""
    return constraint, [(m.kind, m.capacity if constraint is None else min(m.capacity, constraint)) for m in modes]


# ---------------------------------------------------------------------------
# system assembly
# ---------------------------------------------------------------------------


def _basis(spec, path):
    """The FockBasis of a read BASIS spec at `path`; a constraint it refuses names its field."""
    return named(f"{path}.constraint", FockBasis, spec["modes"], spec.get("constraint"))


def _label(model, label, path):
    if label not in model.labels:
        raise ConfigError(f"generator {label!r} does not exist in algebra {model.name!r}", field=path)
    return label


def build_system(system):
    """Returns (basis, H, model, terms) of a read system (`read_system`):
    model and the (label, coefficient) terms are None unless the system
    names an algebra."""
    if "algebra" in system:
        model = build_algebra(system["algebra"]["name"], **system["algebra"].get("params", {}))
        terms = [
            (_label(model, term["label"], f"system.terms[{k}].label"), term["coeff"] * np.exp(1j * term.get("phase", 0.0)))
            for k, term in enumerate(system["terms"])
        ]
        H = linear_combination([model.generator(lab) for lab, _ in terms], [c for _, c in terms])
        if not H.is_hermitian():
            raise ConfigError("the requested generator combination is not Hermitian", field="system.terms")
        return model.basis, H, model, terms
    basis = _basis(system["basis"], "system.basis")
    entries = []
    for term in system["bilinears"]:
        i, j, c = term["create"], term["annihilate"], term["coeff"] * np.exp(1j * term.get("phase", 0.0))
        entries += [(i, j, c), (j, i, np.conj(c))] if i != j else [(i, j, c)]
    H = bilinear_op(basis, entries)
    if not H.is_hermitian():
        raise ConfigError("assembled Hamiltonian is not Hermitian", field="system.bilinears")
    return basis, H, None, None


def system_weights(system, basis, model):
    """The exact coordinates that label a system's lattice sites, or None:
    the Cartan weights of a named algebra (`AlgebraModel.weight_lattice`),
    else the read system's `weights` rows, exact rational linear forms of
    the occupations (`lattice.linear_weights`). Both go through
    `lattice.weight_coordinates`."""
    if model is not None and model.cartan:
        return model.weight_lattice()
    if "weights" not in system:
        return None
    return weight_coordinates(*linear_weights(basis, system["weights"]))


def build_initial_state(state, basis, path="initial_state"):
    """The state of a read fock/amplitudes/coherent spec (`read_state`) on
    `basis`; errors name fields under `path`. A coherent state whose
    register's states are not the basis's raises ConfigError, whatever its
    dimension; it is built only on its register."""
    if "fock" in state:
        occ = tuple(state["fock"])
        if not basis.contains(occ):
            raise ConfigError(f"occupation {occ} is not a state of the basis", field=f"{path}.fock")
        return basis.vector(occ)
    if "amplitudes" in state:
        amp = np.array(state["amplitudes"], dtype=complex)
        field = f"{path}.amplitudes"
        if amp.shape[0] != basis.dim:
            raise ConfigError(f"amplitude vector length {amp.shape[0]} does not match dim {basis.dim}", field=field)
        nrm = np.linalg.norm(amp)
        if nrm == 0:
            raise ConfigError("amplitude vector is zero", field=field)
        return amp / nrm
    spec = state["coherent"]
    fields = {k: v for k, v in spec.items() if k != "kind"}
    (modes, constraint), make = COHERENT_KINDS[spec["kind"]][2](fields, f"{path}.coherent")
    if _states(modes, constraint) != _states(basis.modes, basis.constraint):
        needs = f"the {spec['kind']} coherent state needs the modes {modes} with constraint {constraint}"
        raise ConfigError(needs, field=f"{path}.coherent")
    return make(basis)


def load_state_file(spec):
    """The state vector and chart parameters of a `liefock husimi` state
    file, read against STATE_FILE; a malformed one raises ConfigError
    naming the field."""
    values = _read(spec, STATE_FILE, "")
    return build_initial_state(values["state"], _basis(values["basis"], "basis"), "state"), values.get("space_params", {})


@dataclass
class RunArchive:
    config_hash: str
    version: int
    outputs: list           # [{"path", "sha256", "bytes"}]
    wall_clock_seconds: float

    def to_dict(self):
        return asdict(self)


def _observables(config, basis, model):
    """The (name, operator) pairs of a run's observables, once its outputs
    are checked against the system: observables and a Husimi chart need
    snapshots, a generator an algebra that has it, a number mode a mode of
    the basis, and the chart's parameters must fit the state's length."""
    observables = []
    for k, obs in enumerate(config.values.get("observables", [])):
        if config.store != "snapshots":
            raise ConfigError("observables require snapshot storage", field="observables")
        if "generator" in obs:
            path = f"observables[{k}].generator"
            if model is None:
                raise ConfigError("generator observables need an algebra-based system", field=path)
            op = model.generator(_label(model, obs["generator"], path))
        else:
            op = number_op(basis, _in_range(obs["number_mode"], len(basis.modes), f"observables[{k}].number_mode"))
        observables.append((obs["name"], op))
    hu = config.values.get("outputs", {}).get("husimi")
    if hu is not None:
        if config.store != "snapshots":
            raise ConfigError("husimi output requires snapshots", field="outputs.husimi")
        chart_param(hu["space"], hu.get("params", {}), basis.dim, "outputs.husimi.params")
    return observables


def run_scenario(config: ScenarioConfig, out_dir=".", tol=None) -> RunArchive:
    """Assemble, evolve, and persist the read values of a config
    (`parse_config`). All files are written at the end."""
    started = time.monotonic()
    os.makedirs(out_dir, exist_ok=True)
    pending = []  # (filename, bytes) written by a single writer at the end
    outputs = config.values.get("outputs", {})

    if config.kind == "closure_gallery":
        payload = closure_gallery_report()
        name = outputs.get("csv") or f"{config.name}.json"
        pending.append((name, json_text(payload).encode()))
        return _finalize(config, out_dir, pending, started)

    system = config.values["system"]
    basis, H, model, terms = build_system(system)
    psi0 = build_initial_state(config.values["initial_state"], basis)
    observables = _observables(config, basis, model)
    span = config.values["times"]
    num = span["num"]
    times = np.linspace(span["start"], span["stop"], num)
    if num == 1:
        times = np.array([span["start"]], dtype=float)
    result = evolve(H, psi0, times, method=config.method, store=config.store)

    graph = wl = sites = None
    needs_sites = outputs.get("site_populations") or "heatmap" in outputs
    if "graph_json" in outputs or "adjacency_csv" in outputs:
        graph = system_graph(H, model, terms, tol=tol)
    if "graph_json" in outputs or needs_sites:
        wl = system_weights(system, basis, model)  # the graph's vertices carry these or none
    if needs_sites:  # site populations and heatmaps fall back to the occupations
        sites = wl if wl is not None else weight_coordinates(basis.occ, 1)

    # observable columns
    columns = []
    if config.store == "snapshots":
        columns.append(("fidelity", fidelity_series(result, psi0)))
    columns.append(("norm", result.norms))
    for name, op in observables:
        columns.append((name, np.real(expectation_series(result, op))))

    site_columns = []
    if outputs.get("site_populations"):
        site_pops, site_keys = _site_populations(result.populations, sites)
        site_columns = [(f"P{key}", site_pops[:, s]) for s, key in enumerate(site_keys)]

    if "csv" in outputs:
        header = ["t"] + [name for name, _ in columns + site_columns]
        table = np.column_stack([times] + [col for _, col in columns + site_columns])
        text = "\n".join([",".join(header), *float_rows(table)]) + "\n"
        pending.append((outputs["csv"], text.encode()))

    if "graph_json" in outputs:
        pending.append((outputs["graph_json"], graph_json_text(graph, wl).encode()))
    if "adjacency_csv" in outputs:
        pending.append((outputs["adjacency_csv"], graph_to_adjacency_csv(graph).encode()))

    if "heatmap" in outputs:
        hm = outputs["heatmap"]
        table = _weight_grid(result.populations[hm["time_index"]], sites)
        pending.append((hm["path"], heatmap_bytes(table, hm.get("fourth_root", False))))

    hu = outputs.get("husimi")
    if hu is not None:
        state = result.snapshots[hu.get("time_index", num - 1)]
        chart = husimi_chart(state, hu["space"], hu.get("nodes", [101, 101]), hu.get("params", {}))
        pending.append((hu["path"], grid_csv_bytes(chart)))

    return _finalize(config, out_dir, pending, started)


def _site_populations(populations, wl):
    """Populations summed over the members of each site, one column per site,
    with the site keys written like (1/2,-1/2): each coordinate as str() of
    its Fraction, reduced from the integers without building one."""
    g = np.gcd(wl.site_numerators, wl.denominator)
    rows = zip((wl.site_numerators // g).tolist(), (wl.denominator // g).tolist())
    keys = ["(" + ",".join(str(n) if d == 1 else f"{n}/{d}" for n, d in zip(*row)) + ")" for row in rows]
    return wl.site_sums(populations), keys


def _weight_grid(populations_at_t, wl):
    """Populations summed per weight site, arranged on the rectangular grid
    spanned by the first two weight coordinates (rows: second coordinate
    descending, columns: first ascending); sites that share their first two
    coordinates are summed into one cell. 1D weights produce a single row,
    and rank-0 weights (one site) a single cell."""
    sums = wl.site_sums(populations_at_t)
    if wl.site_numerators.shape[1] <= 1:
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
    algebras = {"su2": ("su2_spin", {"S": 4}), "su3": ("su3_schwinger", {"N": 3}),
                "sp4": ("sp2n_boson", {"modes": 2, "cutoff": 6}), "jc_super": ("jc_super", {"cutoff": 10})}
    for name, (algebra, params) in algebras.items():
        model = build_algebra(algebra, **params)
        run(name, model.generators, list(model.labels), model.interior())
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
        raise ConfigError("su3_center_release needs N divisible by 3 for the center start", field="scenario parameter N")
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
        raise ConfigError("so5_quench center start needs N divisible by 4", field="scenario parameter N")
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
    return configure(lookup(BUILTIN_SCENARIOS, name, "scenario"), overrides, "scenario")
