"""Command-line front end.

Subcommands: algebra, closure, lattice, evolve, husimi, oracle, scenario.
Exit codes: 0 success, 2 configuration error, 3 numeric contract violation,
4 resource guard.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .algebra import CATALOG, build_algebra, lie_closure, lmg_seed, rabi_seed, verify_model
from .coherent import SPACES, chart_param, husimi_chart
from .errors import (
    ConfigError,
    InfeasibleSectorError,
    NumericContractError,
    ResourceGuardError,
    complex_number,
    configure,
    exact_number,
    given,
    named,
    real_number,
    whole_number,
)
from .lattice import (
    connected_components,
    graph_json_text,
    graph_to_adjacency_csv,
    plaquette_fluxes,
    system_graph,
)
from .oracles import LADDER_KINDS, bloch, ladder_oracles, so5_manybody, so5_revival, so5_singles, squeezing
from .output import export_heatmap, grid_csv_bytes, json_text
from .scenarios import (
    BUILTIN_SCENARIOS,
    build_system,
    builtin_scenario,
    load_state_file,
    parse_config,
    read_system,
    run_scenario,
    system_weights,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_RESOURCE = 4


def _load_params(text):
    if not text:
        return {}
    try:
        params = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--params is not valid JSON: {exc}")
    if not isinstance(params, dict):
        raise ConfigError("--params must be a JSON object")
    # algebra parameters named k or S may be rationals written as strings
    for key, val in params.items():
        if isinstance(val, str) and "/" in val:
            params[key] = exact_number(val, f"--params {key}")
    return params


def _cmd_algebra(args):
    model = build_algebra(args.name, **_load_params(args.params))
    if args.verify:
        report = verify_model(model)
    else:
        report = {
            "name": model.name,
            "generators": list(model.labels),
            "dim": model.dim,
            "basis_dim": model.basis.dim,
            "cartan": [model.labels[i] for i in model.cartan],
            "roots": [
                {
                    "raising": model.labels[rp.raising],
                    "lowering": model.labels[rp.lowering],
                    "root": [str(r) for r in rp.root],
                }
                for rp in model.root_pairs
            ],
        }
    print(json_text(report), end="")
    return EXIT_OK


def _cmd_closure(args):
    if args.seed in ("rabi", "lmg"):
        seed, default = (rabi_seed, 12) if args.seed == "rabi" else (lmg_seed, 8)
        ops, labels, mask = named("--cutoff", seed, default if args.cutoff is None else args.cutoff)
    else:
        model = build_algebra(args.seed, **_load_params(args.params))
        ops, labels, mask = model.generators, list(model.labels), model.interior()
    report = lie_closure(ops, cap=args.cap, interior=mask, labels=labels)
    print(
        json.dumps(
            {
                "seed": args.seed,
                "iterations": report.iterations,
                "closed": report.closed,
                "dimension": report.dimension,
                "cap": report.cap,
                "added": report.added_labels,
                "max_residual": None if not report.closed else report.max_residual,
            },
            indent=1,
        )
    )
    return EXIT_OK


def _cmd_lattice(args):
    with open(args.ham) as fh:
        system = read_system(json.load(fh), "system")
    basis, H, model, terms = build_system(system)
    graph = system_graph(H, model, terms, tol=args.tol)
    wl = system_weights(system, basis, model)
    extra = {}
    if args.fluxes:
        rep = plaquette_fluxes(graph, None if wl is None else wl.coordinates_float)
        extra["fluxes"] = {
            "cycle_count": rep.cycle_count,
            "class_values": rep.class_values,
            "independent_classes": rep.independent_classes,
        }
    extra["components"] = [len(c) for c in connected_components(graph)]
    text = graph_json_text(graph, wl, extra)
    if args.export:
        with open(args.export, "wb") as fh:
            fh.write(text.encode())
        print(f"wrote {args.export}")
    else:
        print(text, end="")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(graph_to_adjacency_csv(graph))
        print(f"wrote {args.csv}")
    return EXIT_OK


def _cmd_evolve(args):
    with open(args.scenario) as fh:
        payload = json.load(fh)
    config = parse_config(payload)
    if args.out:  # the CSV name, read as the config's own
        config = parse_config(dict(payload, outputs=dict(payload.get("outputs", {}), csv=args.out)))
    archive = run_scenario(config, out_dir=args.out_dir, tol=args.tol)
    print(json_text(archive.to_dict()), end="")
    return EXIT_OK


def _cmd_husimi(args):
    with open(args.state) as fh:
        spec = json.load(fh)
    state, space_params = load_state_file(spec)
    chart_param(args.space, space_params, len(state), "space_params")
    grid = husimi_chart(state, args.space, args.nodes, space_params)
    with open(args.out, "wb") as fh:
        fh.write(grid_csv_bytes(grid))
    print(f"wrote {args.out} (integral {grid.integral():.6f})")
    if args.heatmap:
        export_heatmap(grid.values, args.heatmap)
        print(f"wrote {args.heatmap}")
    return EXIT_OK


ORACLE_ARRAYS = frozenset({"t", "js", "k", "ns", "j", "theta"})  # oracle parameters that may be lists


def _oracle_number(kind, key, value):
    """A formula parameter read by real_number, a list in ORACLE_ARRAYS entry
    by entry; squeezing's xi is read by complex_number, so it may also be a
    complex string such as "1+0.5j"."""
    field = f"oracle parameter {key}"
    if key in ORACLE_ARRAYS and isinstance(value, list):
        return np.array([real_number(v, field) for v in value])
    return (complex_number if kind == "squeezing" and key == "xi" else real_number)(value, field)


@np.errstate(all="ignore")  # an overflow is refused below, not warned about
def _cmd_oracle(args):
    params = {key: _oracle_number(args.kind, key, value) for key, value in _load_params(args.params).items()}
    if "t" in params:
        params["t"] = np.atleast_1d(params["t"])
    field = given(params, "oracle")
    if args.kind == "bloch":
        sample = configure(bloch, params, "oracle")
        payload = {
            "Omega": sample.omega,
            "t": list(sample.t),
            "Sx": list(sample.sx),
            "Sy": list(sample.sy),
            "Sz": list(sample.sz),
            "a_re": list(sample.a.real),
            "a_im": list(sample.a.imag),
            "b_re": list(sample.b.real),
            "b_im": list(sample.b.imag),
        }
    elif args.kind == "squeezing":
        sample = configure(squeezing, params, "oracle")
        payload = {
            "stable": sample.stable,
            "t": list(sample.t),
            "r": list(sample.r),
            "theta": list(sample.theta),
            "chi": list(sample.chi),
            "n_mean": list(sample.n_mean),
            "var_n": list(sample.var_n),
        }
    elif args.kind == "so5":
        N = params.pop("N", None)
        singles = configure(so5_singles, params, "oracle")
        payload = {
            "closed_form": None if singles.closed_form is None else list(singles.closed_form),
            "quoted_matrix": list(singles.quoted_matrix),
            "generator_form": list(singles.generator_form),
            "closed_vs_quoted_delta": [
                float(d)
                for d in (
                    np.sort(singles.closed_form) - np.sort(singles.quoted_matrix)
                )
            ]
            if singles.closed_form is not None
            else None,
        }
        if N is not None:
            N = whole_number(N, "oracle parameter N")
            payload["manybody_generator_form"] = list(named("oracle parameter N", so5_manybody, singles.generator_form, N))
        payload["revival_time"] = so5_revival(params["phi"], params.get("J1", 1.0))
    elif args.kind in LADDER_KINDS:
        values = ladder_oracles(args.kind, **params)
        payload = {"kind": args.kind, "values": np.atleast_1d(values).tolist()}
    else:
        raise ConfigError(f"unknown oracle kind {args.kind!r}")
    # a formula that overflows gives inf or NaN, which JSON cannot hold
    print(named(field, json.dumps, payload, indent=1 if not args.compact else None, allow_nan=False))
    return EXIT_OK


def _cmd_scenario(args):
    if args.action == "list":
        for name in sorted(BUILTIN_SCENARIOS):
            print(name)
        return EXIT_OK
    if args.config:
        with open(args.config) as fh:
            config = parse_config(json.load(fh))
    elif args.name:
        overrides = _load_params(args.params)
        config = builtin_scenario(args.name, **overrides)
    else:
        raise ConfigError("scenario run needs --name or --config")
    archive = run_scenario(config, out_dir=args.out_dir, tol=args.tol)
    print(json_text(archive.to_dict()), end="")
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built once: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="liefock",
        description="Fock-state lattices from operator algebras: build, analyze, evolve.",
    )
    parser.add_argument("--out-dir", default=".", help="directory for output files")
    parser.add_argument("--tol", type=float, default=None, help="lattice edge threshold |H_nm| > TOL "
                        "(build_fsl/system_graph; default 1e-12 max|H|); the drop tolerance DROP_TOL is fixed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="build and inspect a catalog algebra")
    p.add_argument("name", choices=sorted(CATALOG))
    p.add_argument("--params", default="", help="JSON object of representation parameters")
    p.add_argument("--verify", action="store_true", help="run the self-check report")
    p.set_defaults(fn=_cmd_algebra)

    p = sub.add_parser("closure", help="iterated-bracket closure of a generator seed")
    p.add_argument("seed", help="catalog algebra name, or 'rabi' / 'lmg'")
    p.add_argument("--cap", type=int, default=64)
    p.add_argument("--cutoff", type=int, default=None, help="cutoff (rabi) or S (lmg)")
    p.add_argument("--params", default="")
    p.set_defaults(fn=_cmd_closure)

    p = sub.add_parser("lattice", help="extract the lattice graph of a Hamiltonian spec")
    p.add_argument("--ham", required=True, help="JSON system spec (algebra+terms or basis+bilinears)")
    p.add_argument("--export", default=None, help="graph JSON output path")
    p.add_argument("--csv", default=None, help="adjacency CSV output path")
    p.add_argument("--fluxes", action="store_true", help="include plaquette flux classes")
    p.set_defaults(fn=_cmd_lattice)

    p = sub.add_parser("evolve", help="run an evolution scenario from a config file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default=None, help="override the CSV output name")
    p.set_defaults(fn=_cmd_evolve)

    p = sub.add_parser("husimi", help="evaluate a Husimi grid for a stored state")
    p.add_argument("--state", required=True, help="JSON state spec")
    p.add_argument("--space", required=True, choices=SPACES)
    p.add_argument("--out", required=True, help="CSV output (coords, weight, value)")
    p.add_argument("--heatmap", default=None, help="optional 16-bit PGM output")
    p.add_argument("--nodes", type=int, nargs=2, default=[101, 101],
                   help="node counts along coord_a and coord_b")
    p.set_defaults(fn=_cmd_husimi)

    p = sub.add_parser("oracle", help="closed-form reference values")
    p.add_argument("kind", help="bloch | squeezing | so5 | " + " | ".join(sorted(LADDER_KINDS)))
    p.add_argument("--params", default="", help="JSON object of formula parameters")
    p.add_argument("--json", dest="compact", action="store_true", help="compact JSON output")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("scenario", help="run or list built-in scenarios")
    p.add_argument("action", choices=["run", "list"])
    p.add_argument("--name", default=None)
    p.add_argument("--config", default=None, help="path to a scenario config JSON")
    p.add_argument("--params", default="", help="JSON overrides for a built-in scenario")
    p.set_defaults(fn=_cmd_scenario)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, InfeasibleSectorError, ValueError, KeyError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericContractError as exc:
        print(f"numeric contract violation: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
